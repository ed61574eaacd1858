// Deep-delete cascade semantics (DEL 1–8, Interactive v2 dialect):
//
//   - a cascade kills the whole downstream subtree (forums moderated by the
//     person, their messages, every reply under a dead message, incident
//     edges) and nothing else, and the tombstoned graph passes the
//     tombstone-* validator invariants;
//   - a delete-heavy refresh publishes a graph whose results for every
//     morsel-partitioned BI kernel (BI 1/2/3/6/9/12/13/14/17/20/23/24) are
//     bit-identical to loading the post-delete dataset from scratch, and to
//     the naive engine, with no pool and under 1/2/4/8-thread pools, and
//     identical whether the published snapshot is compacted or still
//     carries tombstones (scan-path bit-identity); BI 18 and 19 answer the
//     tombstoned graph like the naive engine on its compaction;
//   - a torn cascade (fail-point mid-stage) returns non-OK, leaves the
//     tombstone epoch unbumped, and the torn graph is *detectable* — the
//     new validator invariants name the damage;
//   - the refresh driver treats a torn cascade as transient: it discards
//     the shadow, retries, and converges to the reference result;
//   - readers holding a pre-cascade snapshot observe zero cascade effects
//     while the refresh runs; the post-swap snapshot shows the complete
//     cascade (run under TSan in CI);
//   - deletes are idempotent: re-applying an already-applied delete (the
//     recovery-replay and resume_after_day case) is a no-op before and
//     after compaction.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bi/bi.h"
#include "bi/naive.h"
#include "compact_oracle.h"
#include "core/date_time.h"
#include "datagen/datagen.h"
#include "datagen/delete_stream.h"
#include "datagen/serializer.h"
#include "driver/refresh.h"
#include "engine/morsel.h"
#include "interactive/updates.h"
#include "params/parameter_curation.h"
#include "storage/export.h"
#include "storage/graph.h"
#include "storage/loader.h"
#include "storage/recovery.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"
#include "validate/validator.h"

namespace snb {
namespace {

using driver::GraphHandle;
using driver::RefreshConfig;
using driver::RunBatchedRefresh;
using storage::Graph;

struct SharedData {
  core::SocialNetwork network;
  std::vector<datagen::UpdateEvent> deletes;  // the delete-only stream
  core::Date first_day = 0;
  params::WorkloadParameters probes;  // bindings the BI probes run
};

core::SocialNetwork CopyNetwork(const core::SocialNetwork& net) {
  return net;
}

const SharedData& Fixture() {
  static SharedData* data = [] {
    datagen::DatagenConfig cfg;
    cfg.num_persons = 120;
    cfg.activity_scale = 0.3;
    auto* d = new SharedData();
    d->network = datagen::Generate(cfg).network;
    datagen::DeleteStreamOptions options;
    options.seed = 11;
    options.days = 6;
    // Heavier than the tool defaults: this suite is *about* deletes.
    options.person_fraction = 0.05;
    options.forum_fraction = 0.05;
    options.post_fraction = 0.03;
    options.comment_fraction = 0.03;
    options.like_fraction = 0.03;
    options.membership_fraction = 0.03;
    options.knows_fraction = 0.03;
    d->deletes = datagen::DeriveDeleteStream(d->network, options);
    SNB_CHECK(!d->deletes.empty());
    d->first_day = core::DateFromDateTime(d->deletes.front().timestamp);
    // Curated bindings for every partitioned kernel, plus windows wide
    // enough to reach every message (and the update tail) for BI 1/12, and
    // BI 23 from every home country (it keys on the creator's country, so
    // curated countries alone may miss every deleted message).
    const Graph graph(CopyNetwork(d->network));
    params::CurationConfig pc;
    pc.per_query = 3;
    d->probes = params::CurateParameters(graph, pc);
    std::set<std::string> homes;
    for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
      homes.insert(graph.PlaceAt(graph.PersonCountry(p)).name);
    }
    for (const std::string& home : homes) d->probes.bi23.push_back({home});
    d->probes.bi1.push_back({core::DateFromCivil(2030, 1, 1)});
    d->probes.bi6.push_back({d->network.tags.front().name});
    d->probes.bi12.push_back({core::DateFromCivil(2000, 1, 1), 0});
    return d;
  }();
  return *data;
}

/// Every partitioned kernel's rows over the probe bindings.
struct BiProbeResults {
  std::vector<std::vector<bi::Bi1Row>> bi1;
  std::vector<std::vector<bi::Bi2Row>> bi2;
  std::vector<std::vector<bi::Bi3Row>> bi3;
  std::vector<std::vector<bi::Bi6Row>> bi6;
  std::vector<std::vector<bi::Bi9Row>> bi9;
  std::vector<std::vector<bi::Bi12Row>> bi12;
  std::vector<std::vector<bi::Bi13Row>> bi13;
  std::vector<std::vector<bi::Bi14Row>> bi14;
  std::vector<std::vector<bi::Bi17Row>> bi17;
  std::vector<std::vector<bi::Bi20Row>> bi20;
  std::vector<std::vector<bi::Bi23Row>> bi23;
  std::vector<std::vector<bi::Bi24Row>> bi24;

  bool operator==(const BiProbeResults&) const = default;
};

#define SNB_FOR_EACH_PROBE(X) \
  X(1) X(2) X(3) X(6) X(9) X(12) X(13) X(14) X(17) X(20) X(23) X(24)

/// The kernels' results; `pool` null runs each on one slot inline.
BiProbeResults RunProbes(const Graph& graph,
                         util::ThreadPool* pool = nullptr) {
  BiProbeResults r;
#define SNB_PROBE(N)                                          \
  for (const auto& b : Fixture().probes.bi##N) {              \
    r.bi##N.push_back(bi::RunBi##N(graph, b, pool));          \
  }
  SNB_FOR_EACH_PROBE(SNB_PROBE)
#undef SNB_PROBE
  return r;
}

BiProbeResults RunNaiveProbes(const Graph& graph) {
  BiProbeResults r;
#define SNB_PROBE(N)                                          \
  for (const auto& b : Fixture().probes.bi##N) {              \
    r.bi##N.push_back(bi::naive::RunBi##N(graph, b));         \
  }
  SNB_FOR_EACH_PROBE(SNB_PROBE)
#undef SNB_PROBE
  return r;
}

/// Per-template comparison, so a failure names the drifting kernel.
void ExpectSameProbes(const BiProbeResults& got, const BiProbeResults& want,
                      const std::string& what) {
#define SNB_PROBE(N) \
  EXPECT_TRUE(got.bi##N == want.bi##N) << "BI " #N " differs: " << what;
  SNB_FOR_EACH_PROBE(SNB_PROBE)
#undef SNB_PROBE
}

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/snb_delcas_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Applies every fixture delete to a private copy of the fixture network.
std::unique_ptr<Graph> TombstonedGraph() {
  auto graph = std::make_unique<Graph>(CopyNetwork(Fixture().network));
  for (const datagen::UpdateEvent& event : Fixture().deletes) {
    SNB_CHECK(interactive::ApplyUpdate(*graph, event).ok());
  }
  return graph;
}

class DeleteCascadeTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::failpoint::DisarmAll();
    engine::internal::GlobalMorselTuning() = engine::internal::MorselTuning{};
  }
};

// ---------------------------------------------------------------------------
// Cascade semantics on the graph itself.
// ---------------------------------------------------------------------------

TEST_F(DeleteCascadeTest, CascadeKillsWholeSubtreeAndValidatorHolds) {
  std::unique_ptr<Graph> owned = TombstonedGraph();
  Graph& graph = *owned;
  EXPECT_TRUE(graph.HasTombstones());
  EXPECT_GT(graph.TombstoneEpoch(), 0u);
  EXPECT_LT(graph.NumLivePersons(), graph.NumPersons());
  EXPECT_LT(graph.NumLivePosts(), graph.NumPosts());

  // The cascade left no half-dead subtree: every tombstone-* invariant
  // (and every pre-existing one) holds on the *uncompacted* graph.
  validate::ValidationReport report = validate::ValidateGraph(graph);
  EXPECT_TRUE(report.ok()) << report.ToString();
  // Compaction drops exactly the dead rows and edges: it builds what the
  // export of the tombstoned graph rebuilds.
  testfixture::ExpectCompactsLikeRebuild(graph, "tombstoned");
}

TEST_F(DeleteCascadeTest, DeletesAreIdempotentBeforeAndAfterCompaction) {
  std::unique_ptr<Graph> owned = TombstonedGraph();
  Graph& graph = *owned;
  const uint32_t epoch = graph.TombstoneEpoch();
  const size_t live_posts = graph.NumLivePosts();
  const BiProbeResults before = RunProbes(graph);

  // Recovery replay re-runs delete batches against state that may already
  // contain them: every re-applied delete must be a complete no-op.
  for (const datagen::UpdateEvent& event : Fixture().deletes) {
    ASSERT_TRUE(interactive::ApplyUpdate(graph, event).ok());
  }
  EXPECT_EQ(graph.TombstoneEpoch(), epoch);
  EXPECT_EQ(graph.NumLivePosts(), live_posts);
  EXPECT_EQ(RunProbes(graph), before);

  // After compaction the targets are *gone*, not tombstoned — replaying
  // the same deletes must still no-op (the resume_after_day case where a
  // checkpoint already contains the batch).
  std::unique_ptr<Graph> compacted =
      testfixture::ExpectCompactsLikeRebuild(graph, "replayed tombstoned");
  EXPECT_FALSE(compacted->HasTombstones());
  const BiProbeResults compact_before = RunProbes(*compacted);
  for (const datagen::UpdateEvent& event : Fixture().deletes) {
    ASSERT_TRUE(interactive::ApplyUpdate(*compacted, event).ok());
  }
  EXPECT_FALSE(compacted->HasTombstones());
  EXPECT_EQ(RunProbes(*compacted), compact_before);
  // Compacting again changes nothing.
  testfixture::ExpectCompactsLikeRebuild(*compacted, "compacted");
}

// ---------------------------------------------------------------------------
// Recompute oracle: tombstoned reads == compacted reads == from-scratch
// load of the post-delete dataset, across thread-pool widths.
// ---------------------------------------------------------------------------

TEST_F(DeleteCascadeTest, BiResultsMatchFromScratchLoadAcrossPools) {
  std::unique_ptr<Graph> owned = TombstonedGraph();
  Graph& tombstoned = *owned;

  // Oracle: serialize the live subgraph and load it back from scratch —
  // the post-delete dataset as a bulk load that never saw a delete.
  std::string dir = FreshDir("oracle");
  ASSERT_TRUE(
      datagen::WriteCsvBasic(ExportNetwork(tombstoned), dir).ok());
  auto loaded = storage::LoadCsvBasic(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Graph oracle(std::move(loaded).value());
  ASSERT_FALSE(oracle.HasTombstones());

  // The naive engine reads raw records (it is not tombstone-aware), so it
  // is the oracle on the clean load only.
  const BiProbeResults expected = RunNaiveProbes(oracle);
  ExpectSameProbes(RunProbes(oracle), expected, "clean load, no pool");
  ExpectSameProbes(RunProbes(tombstoned), expected,
                   "tombstoned graph, no pool");

  // Drop the fan-out floor and cap the morsel size so the tiny fixture
  // still splits every scan across slots (as parallel_test does).
  engine::internal::GlobalMorselTuning().min_morsels_for_fanout = 1;
  engine::internal::GlobalMorselTuning().morsel_size_cap = 64;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    util::ThreadPool pool(threads);
    ExpectSameProbes(RunProbes(tombstoned, &pool), expected,
                     "tombstoned graph, " + std::to_string(threads) +
                         " threads");
    ExpectSameProbes(RunProbes(oracle, &pool), expected,
                     "clean load, " + std::to_string(threads) + " threads");
  }
}

// BI 18 and 19 take no pool but read through the tombstone filters too:
// every curated BI 18 binding, and BI 19 over every pair of the tag classes
// that tag a forum, with a date before every birthday, so each dead
// comment, membership, forum and knows edge can move a count.
TEST_F(DeleteCascadeTest, Bi18And19MatchNaiveOnTheCompaction) {
  std::unique_ptr<Graph> owned = TombstonedGraph();
  const Graph& tombstoned = *owned;
  const Graph compacted(ExportNetwork(tombstoned),
                        tombstoned.CompactionEpoch() + 1);
  ASSERT_FALSE(Fixture().probes.bi18.empty());
  for (const bi::Bi18Params& b : Fixture().probes.bi18) {
    EXPECT_EQ(bi::RunBi18(tombstoned, b), bi::naive::RunBi18(compacted, b));
  }

  std::set<std::string> classes;
  for (uint32_t f = 0; f < compacted.NumForums(); ++f) {
    compacted.ForumTags().ForEach(f, [&](uint32_t tag) {
      classes.insert(
          compacted.TagClassAt(compacted.TagClassOfTag(tag)).name);
    });
  }
  ASSERT_GE(classes.size(), 2u);
  size_t answered = 0;
  for (const std::string& class1 : classes) {
    for (const std::string& class2 : classes) {
      if (class2 < class1) continue;
      const bi::Bi19Params b{core::DateFromCivil(1900, 1, 1), class1, class2};
      const std::vector<bi::Bi19Row> rows = bi::RunBi19(tombstoned, b);
      EXPECT_EQ(rows, bi::naive::RunBi19(compacted, b))
          << class1 << " / " << class2;
      answered += rows.empty() ? 0 : 1;
    }
  }
  EXPECT_GT(answered, 0u);
}

// ---------------------------------------------------------------------------
// Torn cascades: detectable, unbumped epoch, retried as transient.
// ---------------------------------------------------------------------------

TEST_F(DeleteCascadeTest, TornCascadeLeavesDetectableDanglingState) {
  const SharedData& data = Fixture();
  Graph graph(CopyNetwork(data.network));
  // The moderator of forum 0 — guaranteed to dangle that forum when the
  // cascade dies between the person stage and the forum stage.
  const core::Id moderator = data.network.forums.front().moderator;

  util::failpoint::Spec spec;  // error mode
  util::failpoint::Arm("graph.delete.forums", spec);
  util::Status st = graph.DeletePerson(moderator);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(graph.TombstoneEpoch(), 0u) << "torn cascade published an epoch";
  util::failpoint::DisarmAll();

  validate::ValidationReport report = validate::ValidateGraph(graph);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.Has("tombstone-dangling")) << report.ToString();
}

TEST_F(DeleteCascadeTest, TornCascadeLeavesDetectableIndexState) {
  const SharedData& data = Fixture();
  Graph graph(CopyNetwork(data.network));
  // The creator of post 0 has a non-sentinel message-date zone, so dying
  // right before the index stage leaves it uncollapsed.
  const core::Id creator =
      data.network.persons[graph.PostCreator(0)].id;

  util::failpoint::Spec spec;
  util::failpoint::Arm("graph.delete.index", spec);
  util::Status st = graph.DeletePerson(creator);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(graph.TombstoneEpoch(), 0u);
  util::failpoint::DisarmAll();

  validate::ValidationReport report = validate::ValidateGraph(graph);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.Has("tombstone-index-agreement")) << report.ToString();
}

TEST_F(DeleteCascadeTest, RefreshRetriesTornCascadeAsTransient) {
  const SharedData& data = Fixture();
  RefreshConfig config;
  config.batch_days = 2;
  config.retry.initial_backoff_ms = 0.1;

  // Reference: same stream, no fault.
  std::string ref_dir = FreshDir("torn_ref");
  ASSERT_TRUE(
      storage::InitStore(ref_dir, data.network, data.first_day - 1).ok());
  GraphHandle ref_handle(
      std::make_shared<Graph>(CopyNetwork(data.network)));
  auto ref_or = RunBatchedRefresh(ref_dir, ref_handle, data.deletes, config);
  ASSERT_TRUE(ref_or.ok()) << ref_or.status().ToString();
  const BiProbeResults reference = RunProbes(*ref_handle.Current());

  // Fault run: the first cascade to reach the likes stage dies there once.
  // The driver must discard the torn shadow, retry, and converge.
  std::string dir = FreshDir("torn_retry");
  ASSERT_TRUE(
      storage::InitStore(dir, data.network, data.first_day - 1).ok());
  GraphHandle handle(std::make_shared<Graph>(CopyNetwork(data.network)));
  util::failpoint::Spec spec;
  spec.max_fires = 1;
  util::failpoint::Arm("graph.delete.likes", spec);
  auto report_or = RunBatchedRefresh(dir, handle, data.deletes, config);
  ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();
  EXPECT_GE(report_or.value().retries, 1u);
  EXPECT_EQ(RunProbes(*handle.Current()), reference);
  testfixture::ExpectCompactsLikeRebuild(*handle.Current(),
                                         "torn-and-retried");
}

// ---------------------------------------------------------------------------
// Snapshot stability: pre-cascade readers see zero cascade effects; the
// post-swap snapshot shows the complete cascade.
// ---------------------------------------------------------------------------

TEST_F(DeleteCascadeTest, PreCascadeSnapshotIsStableUnderConcurrentRefresh) {
  const SharedData& data = Fixture();
  RefreshConfig config;
  config.batch_days = 2;

  std::string dir = FreshDir("snapshot");
  ASSERT_TRUE(
      storage::InitStore(dir, data.network, data.first_day - 1).ok());
  GraphHandle handle(std::make_shared<Graph>(CopyNetwork(data.network)));

  std::shared_ptr<const Graph> pre = handle.Current();
  const std::vector<bi::Bi1Row> pre_rows = bi::RunBi1(*pre, data.probes.bi1.back());

  std::atomic<bool> done{false};
  std::atomic<bool> stable{true};
  std::atomic<size_t> reads{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (bi::RunBi1(*pre, data.probes.bi1.back()) != pre_rows) {
        stable.store(false, std::memory_order_release);
      }
      ++reads;
    }
  });

  auto report_or = RunBatchedRefresh(dir, handle, data.deletes, config);
  done.store(true, std::memory_order_release);
  reader.join();
  ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_TRUE(stable.load())
      << "a pre-cascade snapshot changed while cascades ran";
  EXPECT_FALSE(pre->HasTombstones());
  EXPECT_EQ(pre->TombstoneEpoch(), 0u);
  EXPECT_EQ(bi::RunBi1(*pre, data.probes.bi1.back()), pre_rows);

  // Post-swap: the published snapshot carries the *complete* cascade —
  // compacted, physically smaller, equal to the from-scratch oracle.
  std::shared_ptr<const Graph> post = handle.Current();
  EXPECT_FALSE(post->HasTombstones());
  EXPECT_GE(post->CompactionEpoch(), 1u);
  EXPECT_LT(post->NumPersons(), pre->NumPersons());
  EXPECT_EQ(RunProbes(*post), RunProbes(*TombstonedGraph()));
}

// ---------------------------------------------------------------------------
// Crash-interrupted cascade: recover, resume, nothing double-applied.
// ---------------------------------------------------------------------------

TEST_F(DeleteCascadeTest, ResumeAfterRecoveryIsIdempotentAcrossDeletes) {
  const SharedData& data = Fixture();
  RefreshConfig config;
  config.batch_days = 2;
  config.checkpoint_every_batches = 1;

  std::string dir = FreshDir("resume");
  ASSERT_TRUE(
      storage::InitStore(dir, data.network, data.first_day - 1).ok());
  GraphHandle handle(std::make_shared<Graph>(CopyNetwork(data.network)));
  auto first_or = RunBatchedRefresh(dir, handle, data.deletes, config);
  ASSERT_TRUE(first_or.ok()) << first_or.status().ToString();
  ASSERT_GT(first_or.value().batches_applied, 1u);
  const BiProbeResults reference = RunProbes(*handle.Current());

  // Recovery replays any delete batches newer than the last checkpoint and
  // must land on the same state (validated behind its own gate).
  auto recovered_or = storage::RecoveryManager(dir).Recover();
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  EXPECT_EQ(RunProbes(*recovered_or.value().graph), reference);

  // Resuming past the last committed day applies nothing.
  GraphHandle resumed(std::shared_ptr<const Graph>(
      std::move(recovered_or.value().graph)));
  RefreshConfig resume = config;
  resume.resume_after_day = recovered_or.value().last_committed_day;
  auto second_or = RunBatchedRefresh(dir, resumed, data.deletes, resume);
  ASSERT_TRUE(second_or.ok()) << second_or.status().ToString();
  EXPECT_EQ(second_or.value().batches_applied, 0u);
  EXPECT_EQ(second_or.value().events_skipped, data.deletes.size());
  EXPECT_EQ(RunProbes(*resumed.Current()), reference);
}

}  // namespace
}  // namespace snb
