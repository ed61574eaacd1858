// The refresh write path: every batch is applied to a member-wise copy of
// the published snapshot (the explicit Graph copy constructor) and the copy
// is published whole.
//
//   - Oracle: after every batch of a daily schedule (insert days, then the
//     DEL 1–8 days), the published snapshot answers all 25 BI templates
//     exactly like Graph(ExportNetwork(snapshot)) — the export+rebuild path
//     the copy replaced — and passes ValidateGraph, with compaction on and
//     off.
//     Every published snapshot compacts exactly like Graph(ExportNetwork(
//     snapshot)) rebuilds it: the same checkpoint image, byte for byte.
//   - Isolation: a batch torn mid-way (an injected fault between events,
//     inside a cascade, or at the compaction before publishing) leaves the
//     published base bit-for-bit unchanged — results, tombstones, epochs
//     and the in-place like-count zones — and the retry publishes the whole
//     batch. The copy is deep.
//   - compact_deletes = false: tombstones and both epochs carry forward
//     through later insert batches, and the tombstoned snapshot still
//     answers every template like the naive engine on a clean reload.
//   - Immutability: the bases a copy shares by pointer (CSR bases, the
//     message-date index base, bulk string bases, the static segment) keep
//     their checksums through the next insert batch, delete batch and
//     compaction; copies and later snapshots share them until a
//     compaction rebuilds them (all but the static segment, which a
//     compaction shares too).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bi/bi.h"
#include "bi/naive.h"
#include "compact_oracle.h"
#include "core/date_time.h"
#include "datagen/datagen.h"
#include "datagen/delete_stream.h"
#include "driver/refresh.h"
#include "interactive/updates.h"
#include "params/parameter_curation.h"
#include "sched/stream.h"
#include "storage/export.h"
#include "storage/graph.h"
#include "storage/recovery.h"
#include "storage/test_access.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "validate/validator.h"

namespace snb {
namespace {

using driver::GraphHandle;
using driver::RefreshConfig;
using driver::RunBatchedRefresh;
using storage::Graph;

using Events = std::vector<datagen::UpdateEvent>;

struct SharedData {
  core::SocialNetwork network;
  /// Whole simulation days of the generated insert stream, in order.
  std::vector<Events> insert_days;
  /// DeriveDeleteStream days, shifted past the last insert day.
  std::vector<Events> delete_days;
  params::WorkloadParameters params;
};

core::SocialNetwork CopyNetwork(const core::SocialNetwork& net) {
  return net;
}

std::vector<Events> SplitByDay(const Events& events) {
  std::vector<Events> days;
  core::Date current = 0;
  for (const datagen::UpdateEvent& event : events) {
    const core::Date day = core::DateFromDateTime(event.timestamp);
    if (days.empty() || day != current) days.emplace_back();
    current = day;
    days.back().push_back(event);
  }
  return days;
}

core::Date DayOf(const Events& events) {
  return core::DateFromDateTime(events.front().timestamp);
}

const SharedData& Fixture() {
  static SharedData* data = [] {
    datagen::DatagenConfig cfg;
    cfg.num_persons = 120;
    cfg.activity_scale = 0.3;
    datagen::GeneratedData gen = datagen::Generate(cfg);
    auto* d = new SharedData();
    d->network = std::move(gen.network);
    std::vector<Events> days = SplitByDay(gen.updates);
    SNB_CHECK_GE(days.size(), 6u);
    d->insert_days.assign(days.begin(), days.begin() + 6);

    // Every DEL targets a bulk-loaded entity; shifted past the last insert
    // day, no insert ever references an entity a cascade removed.
    datagen::DeleteStreamOptions options;
    options.seed = 5;
    options.person_fraction = 0.04;
    options.forum_fraction = 0.04;
    options.post_fraction = 0.02;
    options.comment_fraction = 0.02;
    options.like_fraction = 0.02;
    options.membership_fraction = 0.02;
    options.knows_fraction = 0.02;
    Events deletes = datagen::DeriveDeleteStream(d->network, options);
    SNB_CHECK(!deletes.empty());
    const core::DateTime offset =
        core::DateTimeFromDate(DayOf(d->insert_days.back()) + 1) -
        core::DateTimeFromDate(core::DateFromDateTime(
            deletes.front().timestamp));
    for (datagen::UpdateEvent& event : deletes) event.timestamp += offset;
    d->delete_days = SplitByDay(deletes);

    const Graph graph(CopyNetwork(d->network));
    params::CurationConfig pc;
    pc.per_query = 2;
    d->params = params::CurateParameters(graph, pc);
    return d;
  }();
  return *data;
}

/// The templates whose kernels read through the tombstone filters, so a
/// tombstoned graph answers them exactly like its compaction (the set
/// delete_cascade_test holds to that). The other eleven walk raw
/// adjacency and are only defined on tombstone-free graphs.
constexpr int kTombstoneAware[] = {1,  2,  3,  6,  9,  12, 13,
                                   14, 17, 18, 19, 20, 23, 24};

/// All 25 templates on a tombstone-free graph, the tombstone-aware ones on
/// a tombstoned graph.
std::vector<int> TemplatesDefinedOn(const Graph& graph) {
  if (graph.HasTombstones()) {
    return {std::begin(kTombstoneAware), std::end(kTombstoneAware)};
  }
  std::vector<int> all;
  for (int q = 1; q <= 25; ++q) all.push_back(q);
  return all;
}

/// Row count and order-sensitive fingerprint of every curated binding of
/// `templates`.
std::vector<std::pair<size_t, uint64_t>> BiHashes(
    const Graph& graph, const std::vector<int>& templates) {
  std::vector<std::pair<size_t, uint64_t>> hashes;
  for (int q : templates) {
    const size_t bindings = sched::BindingCount(Fixture().params, q);
    for (size_t b = 0; b < bindings; ++b) {
      sched::OpOutcome out = sched::ExecuteStreamOp(
          graph, Fixture().params, sched::StreamOp{q, b}, nullptr);
      hashes.emplace_back(out.rows, out.fingerprint);
    }
  }
  return hashes;
}

/// Like-count zone maxima of every base block of the message index.
std::vector<uint32_t> BaseLikeZones(const Graph& graph) {
  std::vector<uint32_t> zones;
  const storage::MessageDateIndex& index = graph.MessageIndex();
  for (size_t b = 0; b < index.BaseDateColumn().num_blocks(); ++b) {
    zones.push_back(index.BaseBlockMaxLikes(b));
  }
  return zones;
}

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/snb_shadow_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

class RefreshShadowTest : public ::testing::Test {
 protected:
  void TearDown() override { util::failpoint::DisarmAll(); }
};

// ---------------------------------------------------------------------------
// Oracle: the copied shadow is observationally equal to export+rebuild.
// ---------------------------------------------------------------------------

class RefreshOracleTest : public RefreshShadowTest,
                          public ::testing::WithParamInterface<bool> {};

TEST_P(RefreshOracleTest, EveryBatchMatchesExportRebuild) {
  const SharedData& data = Fixture();
  RefreshConfig config;
  config.compact_deletes = GetParam();

  const std::string dir =
      FreshDir(config.compact_deletes ? "oracle_compact" : "oracle_keep");
  ASSERT_TRUE(storage::InitStore(dir, data.network,
                                 DayOf(data.insert_days.front()) - 1)
                  .ok());
  GraphHandle handle(std::make_shared<Graph>(CopyNetwork(data.network)));

  std::vector<Events> schedule = data.insert_days;
  schedule.insert(schedule.end(), data.delete_days.begin(),
                  data.delete_days.end());
  bool saw_tombstones = false;
  for (const Events& day : schedule) {
    SCOPED_TRACE("day " + core::FormatDate(DayOf(day)));
    auto report_or = RunBatchedRefresh(dir, handle, day, config);
    ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();
    ASSERT_EQ(report_or.value().batches_applied, 1u);

    std::shared_ptr<const Graph> snapshot = handle.Current();
    const Graph rebuilt(storage::ExportNetwork(*snapshot));
    const std::vector<int> templates = TemplatesDefinedOn(*snapshot);
    EXPECT_EQ(BiHashes(*snapshot, templates), BiHashes(rebuilt, templates));
    validate::ValidationReport report = validate::ValidateGraph(*snapshot);
    EXPECT_TRUE(report.ok()) << report.ToString();
    if (config.compact_deletes) {
      EXPECT_FALSE(snapshot->HasTombstones());
    }
    testfixture::ExpectCompactsLikeRebuild(*snapshot, "published");
    saw_tombstones = saw_tombstones || snapshot->HasTombstones();
  }
  // Without compaction the delete days must really have published
  // tombstoned snapshots, or the filtered scan paths went untested.
  EXPECT_EQ(saw_tombstones, !config.compact_deletes);
  if (config.compact_deletes) {
    EXPECT_GT(handle.Current()->CompactionEpoch(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(CompactDeletes, RefreshOracleTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "On" : "Off";
                         });

// ---------------------------------------------------------------------------
// Isolation: a torn batch never reaches the published base.
// ---------------------------------------------------------------------------

/// One day's batch: `likes` new likes on a bulk post in base block 0, enough
/// to raise that block's like-count zone, followed by the fixture's deletes
/// (re-dated to the same day). Returns the number of like events.
size_t ZoneRaisingBatch(const Graph& graph, core::Date day, Events* batch) {
  const SharedData& data = Fixture();
  const storage::MessageDateIndex& index = graph.MessageIndex();
  const uint32_t zone = index.BaseBlockMaxLikes(0);
  const size_t block_end =
      std::min(index.base_size(), storage::columnar::ColumnBlock::kMaxValues);
  uint32_t post = storage::kNoIdx;
  for (size_t pos = 0; pos < block_end && post == storage::kNoIdx; ++pos) {
    if (Graph::IsPost(index.BaseAt(pos))) post = index.BaseAt(pos);
  }
  SNB_CHECK_NE(post, storage::kNoIdx);

  std::set<uint32_t> likers;
  graph.PostLikers().ForEach(post, [&](uint32_t p) { likers.insert(p); });
  const size_t wanted = zone - likers.size() + 1;
  const core::DateTime at = core::DateTimeFromDate(day);
  for (uint32_t p = 0; p < graph.NumPersons() && batch->size() < wanted;
       ++p) {
    if (likers.count(p) > 0) continue;
    core::Like like;
    like.person = graph.PersonId(p);
    like.message = graph.PostId(post);
    like.is_post = true;
    like.creation_date = at;
    batch->push_back({datagen::UpdateKind::kAddLikePost, at, at, like});
  }
  SNB_CHECK_EQ(batch->size(), wanted);
  const size_t likes = batch->size();
  for (const Events& del_day : data.delete_days) {
    for (datagen::UpdateEvent event : del_day) {
      event.timestamp = at + 1;
      batch->push_back(event);
    }
  }
  return likes;
}

/// Where the fault fires, and whether the batch is compacted before it is
/// published.
struct TornSite {
  const char* site;
  bool compact_deletes;
  const char* name;
};

class ShadowIsolationTest
    : public RefreshShadowTest,
      public ::testing::WithParamInterface<TornSite> {};

TEST_P(ShadowIsolationTest, TornBatchLeavesPublishedBaseUnchanged) {
  const SharedData& data = Fixture();
  const std::string site = GetParam().site;
  const bool compact = GetParam().compact_deletes;
  const core::Date day = DayOf(data.insert_days.front());

  auto base = std::make_shared<const Graph>(CopyNetwork(data.network));
  Events batch;
  const size_t likes = ZoneRaisingBatch(*base, day, &batch);
  ASSERT_GT(batch.size(), likes + 1) << "fixture derived too few deletes";

  const std::vector<int> all_templates = TemplatesDefinedOn(*base);
  const auto hashes_before = BiHashes(*base, all_templates);
  const auto zones_before = BaseLikeZones(*base);
  ASSERT_FALSE(base->HasTombstones());

  // Fire once, part-way through the batch on the first shadow: between
  // events after every like and one whole cascade, inside the first
  // cascade once persons, forums and messages are already tombstoned, or
  // after the whole batch, right before the shadow is compacted.
  util::failpoint::Spec spec;
  spec.nth = site == "refresh.apply.event" ? static_cast<int>(likes) + 2 : 1;
  spec.max_fires = 1;
  util::failpoint::Arm(site, spec);

  const std::string dir = FreshDir("isolation_" + site);
  ASSERT_TRUE(storage::InitStore(dir, data.network, day - 1).ok());
  GraphHandle handle(base);
  RefreshConfig config;
  config.compact_deletes = compact;
  config.retry.initial_backoff_ms = 0.1;
  auto report_or = RunBatchedRefresh(dir, handle, batch, config);
  ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();
  EXPECT_EQ(report_or.value().retries, 1u) << "the fault never fired";
  EXPECT_EQ(report_or.value().batches_applied, 1u);

  // The published base is untouched by the torn shadow and by the retry.
  EXPECT_EQ(BiHashes(*base, all_templates), hashes_before);
  EXPECT_FALSE(base->HasTombstones());
  EXPECT_EQ(base->TombstoneEpoch(), 0u);
  EXPECT_EQ(base->CompactionEpoch(), 0u);
  EXPECT_EQ(BaseLikeZones(*base), zones_before);
  validate::ValidationReport base_report = validate::ValidateGraph(*base);
  EXPECT_TRUE(base_report.ok()) << base_report.ToString();

  // The retry published the whole batch: same state as applying it once,
  // uninterrupted, to a freshly loaded graph (and compacting it).
  std::shared_ptr<const Graph> published = handle.Current();
  ASSERT_NE(published, base);
  Graph applied(CopyNetwork(data.network));
  for (const datagen::UpdateEvent& event : batch) {
    ASSERT_TRUE(interactive::ApplyUpdate(applied, event).ok());
  }
  const std::unique_ptr<Graph> reference =
      compact ? applied.Compact() : std::make_unique<Graph>(applied);
  if (!compact) {
    EXPECT_GT(BaseLikeZones(*published)[0], zones_before[0]);
  }
  EXPECT_EQ(BaseLikeZones(*published), BaseLikeZones(*reference));
  EXPECT_EQ(published->HasTombstones(), !compact);
  EXPECT_EQ(published->TombstoneEpoch(), reference->TombstoneEpoch());
  EXPECT_EQ(published->CompactionEpoch(), reference->CompactionEpoch());
  const std::vector<int> templates = TemplatesDefinedOn(*published);
  EXPECT_EQ(BiHashes(*published, templates), BiHashes(*reference, templates));
  validate::ValidationReport report = validate::ValidateGraph(*published);
  EXPECT_TRUE(report.ok()) << report.ToString();
  testfixture::ExpectCompactsLikeRebuild(*published, "torn-and-retried");
}

INSTANTIATE_TEST_SUITE_P(
    Sites, ShadowIsolationTest,
    ::testing::Values(TornSite{"refresh.apply.event", false, "BetweenEvents"},
                      TornSite{"graph.delete.likes", false, "InsideCascade"},
                      TornSite{"refresh.compact", true, "BeforeCompaction"}),
    [](const ::testing::TestParamInfo<TornSite>& p) { return p.param.name; });

// ---------------------------------------------------------------------------
// compact_deletes = false: tombstones carry forward until a compaction.
// ---------------------------------------------------------------------------

TEST_F(RefreshShadowTest, UncompactedTombstonesSurviveLaterInsertBatches) {
  const SharedData& data = Fixture();
  // The first insert day, preceded by the fixture's deletes re-dated to the
  // day before it.
  const Events& inserts = data.insert_days.front();
  const core::Date delete_day = DayOf(inserts) - 1;
  Events deletes;
  for (const Events& del_day : data.delete_days) {
    for (datagen::UpdateEvent event : del_day) {
      event.timestamp = core::DateTimeFromDate(delete_day);
      deletes.push_back(event);
    }
  }

  const std::string dir = FreshDir("keep_tombstones");
  ASSERT_TRUE(storage::InitStore(dir, data.network, delete_day - 1).ok());
  GraphHandle handle(std::make_shared<Graph>(CopyNetwork(data.network)));
  RefreshConfig config;
  config.compact_deletes = false;

  ASSERT_TRUE(RunBatchedRefresh(dir, handle, deletes, config).ok());
  std::shared_ptr<const Graph> after_deletes = handle.Current();
  ASSERT_TRUE(after_deletes->HasTombstones());
  const uint32_t tombstone_epoch = after_deletes->TombstoneEpoch();
  ASSERT_GT(tombstone_epoch, 0u);

  ASSERT_TRUE(RunBatchedRefresh(dir, handle, inserts, config).ok());
  std::shared_ptr<const Graph> after_inserts = handle.Current();
  ASSERT_NE(after_inserts, after_deletes);
  EXPECT_TRUE(after_inserts->HasTombstones());
  EXPECT_EQ(after_inserts->TombstoneEpoch(), tombstone_epoch);
  EXPECT_EQ(after_inserts->CompactionEpoch(), 0u);
  EXPECT_GT(after_inserts->NumMessages(), after_deletes->NumMessages());

  // A clean reload: recovery replays the WAL onto the checkpoint and hands
  // out a compacted, tombstone-free graph.
  auto reloaded_or = storage::RecoveryManager(dir).Recover();
  ASSERT_TRUE(reloaded_or.ok()) << reloaded_or.status().ToString();
  const Graph& reloaded = *reloaded_or.value().graph;
  EXPECT_FALSE(reloaded.HasTombstones());
  EXPECT_EQ(reloaded.NumPersons(), after_inserts->NumLivePersons());

  const params::WorkloadParameters& p = data.params;
#define SNB_NAIVE_ON_RELOAD(N)                                         \
  for (size_t b = 0; b < p.bi##N.size(); ++b) {                        \
    EXPECT_TRUE(bi::RunBi##N(*after_inserts, p.bi##N[b]) ==            \
                bi::naive::RunBi##N(reloaded, p.bi##N[b]))             \
        << "BI " #N " binding " << b                                   \
        << ": tombstoned snapshot differs from naive on the reload";   \
  }
  // The tombstone-aware templates (kTombstoneAware).
  SNB_NAIVE_ON_RELOAD(1) SNB_NAIVE_ON_RELOAD(2) SNB_NAIVE_ON_RELOAD(3)
  SNB_NAIVE_ON_RELOAD(6) SNB_NAIVE_ON_RELOAD(9) SNB_NAIVE_ON_RELOAD(12)
  SNB_NAIVE_ON_RELOAD(13) SNB_NAIVE_ON_RELOAD(14) SNB_NAIVE_ON_RELOAD(17)
  SNB_NAIVE_ON_RELOAD(18) SNB_NAIVE_ON_RELOAD(19) SNB_NAIVE_ON_RELOAD(20)
  SNB_NAIVE_ON_RELOAD(23) SNB_NAIVE_ON_RELOAD(24)
#undef SNB_NAIVE_ON_RELOAD
}

// ---------------------------------------------------------------------------
// Immutability: a published snapshot's shared bases never change.
// ---------------------------------------------------------------------------

/// Expects `now` to hold the same bases as `then`: same identities and
/// the same bytes.
void ExpectSameBases(const std::vector<storage::TestAccess::SharedBase>& now,
                     const std::vector<storage::TestAccess::SharedBase>& then) {
  ASSERT_EQ(now.size(), then.size());
  for (size_t i = 0; i < now.size(); ++i) {
    EXPECT_EQ(now[i].name, then[i].name);
    EXPECT_EQ(now[i].identity, then[i].identity) << then[i].name;
    EXPECT_EQ(now[i].checksum, then[i].checksum) << then[i].name;
  }
}

TEST_F(RefreshShadowTest, PublishedSharedBasesNeverChange) {
  using storage::TestAccess;
  const SharedData& data = Fixture();
  const std::string dir = FreshDir("shared_bases");
  ASSERT_TRUE(storage::InitStore(dir, data.network,
                                 DayOf(data.insert_days.front()) - 1)
                  .ok());
  GraphHandle handle(std::make_shared<Graph>(CopyNetwork(data.network)));

  // The oracle covers every byte Memory() reports as shared, and a
  // member-wise copy shares every base by pointer.
  const std::vector<TestAccess::SharedBase> loaded =
      TestAccess::SharedBases(*handle.Current());
  size_t covered = 0;
  for (const TestAccess::SharedBase& base : loaded) covered += base.bytes;
  EXPECT_EQ(covered, handle.Current()->Memory().total_shared_bytes());
  ExpectSameBases(TestAccess::SharedBases(Graph(*handle.Current())), loaded);

  // An insert batch and an uncompacted delete batch publish snapshots that
  // share the bases; the next batch compacts the tombstones away, which
  // rebuilds every base but the static segment.
  struct Step {
    const char* name;
    const Events* batch;
    bool compact_deletes;
    bool shares_bases;
  };
  const Step steps[] = {
      {"insert", &data.insert_days[0], true, true},
      {"delete", &data.delete_days[0], false, true},
      {"compaction", &data.insert_days[1], true, false},
  };
  for (const Step& step : steps) {
    SCOPED_TRACE(step.name);
    const std::shared_ptr<const Graph> published = handle.Current();
    const std::vector<TestAccess::SharedBase> before =
        TestAccess::SharedBases(*published);
    RefreshConfig config;
    config.compact_deletes = step.compact_deletes;
    auto report_or = RunBatchedRefresh(dir, handle, *step.batch, config);
    ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();
    ASSERT_EQ(report_or.value().batches_applied, 1u);

    // Checksums and identities of the published snapshot are unchanged.
    ExpectSameBases(TestAccess::SharedBases(*published), before);

    const std::shared_ptr<const Graph> next = handle.Current();
    ASSERT_NE(next, published);
    EXPECT_EQ(next->CompactionEpoch(),
              published->CompactionEpoch() + (step.shares_bases ? 0 : 1));
    const std::vector<TestAccess::SharedBase> after =
        TestAccess::SharedBases(*next);
    ASSERT_EQ(after.size(), before.size());
    for (size_t i = 0; i < before.size(); ++i) {
      const bool static_segment = before[i].name == "static";
      EXPECT_EQ(after[i].identity == before[i].identity,
                step.shares_bases || static_segment)
          << before[i].name;
    }
  }
}

}  // namespace
}  // namespace snb
