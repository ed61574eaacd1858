// Crash-recovery audit for the batched refresh path (LDBC auditing rule:
// a system must survive a crash mid-refresh and recover to the last
// committed batch).
//
// The core test rehearses the refresh path once to register every
// fail-point site, then loops "crash here" over each wal.* / refresh.* /
// checkpoint.* / csv.* site in a forked child (simulated power loss via
// _Exit — no buffers flushed), recovers the store in the parent, resumes
// the refresh, and requires BI 1/6/12 results bit-equal to an uncrashed
// reference run. Also covers: WAL round-trip, torn-tail truncation,
// transient-error retry with concurrent readers on the published snapshot.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bi/bi.h"
#include "core/date_time.h"
#include "datagen/datagen.h"
#include "datagen/delete_stream.h"
#include "datagen/update_stream.h"
#include "driver/refresh.h"
#include "interactive/updates.h"
#include "storage/export.h"
#include "storage/graph.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "util/check.h"
#include "util/crc32c.h"
#include "util/failpoint.h"
#include "validate/validator.h"

namespace snb {
namespace {

using driver::GraphHandle;
using driver::RefreshConfig;
using driver::RunBatchedRefresh;

// ---------------------------------------------------------------------------
// Shared fixture data (generated once per process).
// ---------------------------------------------------------------------------

struct SharedData {
  core::SocialNetwork network;
  std::vector<datagen::UpdateEvent> updates;
  core::Date first_day = 0;
};

const SharedData& Fixture() {
  static SharedData* data = [] {
    datagen::DatagenConfig cfg;
    cfg.num_persons = 100;
    cfg.activity_scale = 0.3;
    datagen::GeneratedData gen = datagen::Generate(cfg);
    auto* d = new SharedData();
    d->network = std::move(gen.network);
    // A bounded slice keeps the ~30 forked crash runs fast; every run
    // (reference, crashed, resumed) uses the same slice, so comparisons
    // stay exact.
    size_t n = std::min<size_t>(gen.updates.size(), 400);
    d->updates.assign(gen.updates.begin(), gen.updates.begin() + n);
    d->first_day = core::DateFromDateTime(d->updates.front().timestamp);
    // Derived deep deletes ride at the tail of the stream so the refresh
    // path runs real cascades (registering the graph.delete.* fail-point
    // sites). Every DEL targets a bulk-loaded entity; shifting their
    // timestamps past the last insert keeps them in their own trailing
    // batches, so no insert ever references an entity a cascade removed.
    datagen::DeleteStreamOptions del_options;
    del_options.seed = 7;
    std::vector<datagen::UpdateEvent> deletes =
        datagen::DeriveDeleteStream(d->network, del_options);
    SNB_CHECK(!deletes.empty());
    core::DateTime offset =
        d->updates.back().timestamp + core::kMillisPerDay -
        deletes.front().timestamp;
    if (offset > 0) {
      for (datagen::UpdateEvent& event : deletes) event.timestamp += offset;
    }
    d->updates.insert(d->updates.end(), deletes.begin(), deletes.end());
    return d;
  }();
  return *data;
}

core::SocialNetwork CopyNetwork(const core::SocialNetwork& net) {
  return net;
}

// BI 1 / 6 / 12 digests — the "bit-equal results" probe set.
struct BiProbeResults {
  std::vector<bi::Bi1Row> bi1;
  std::vector<bi::Bi6Row> bi6;
  std::vector<bi::Bi12Row> bi12;

  bool operator==(const BiProbeResults&) const = default;
};

BiProbeResults RunProbes(const storage::Graph& graph) {
  BiProbeResults r;
  r.bi1 = bi::RunBi1(graph, {core::DateFromCivil(2030, 1, 1)});
  bi::Bi6Params p6;
  p6.tag = Fixture().network.tags.front().name;
  r.bi6 = bi::RunBi6(graph, p6);
  bi::Bi12Params p12;
  p12.date = core::DateFromCivil(2000, 1, 1);
  p12.like_threshold = 0;
  r.bi12 = bi::RunBi12(graph, p12);
  return r;
}

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/snb_walrec_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Applies `updates` batch-by-batch (same whole-day grouping as the refresh
// driver) and returns the BI 1 digest after every published batch, plus the
// initial state — the exact set of states an atomic-publication reader may
// legally observe.
std::vector<std::vector<bi::Bi1Row>> ReferenceSnapshots(
    const core::SocialNetwork& net,
    const std::vector<datagen::UpdateEvent>& updates, int batch_days) {
  storage::Graph graph(CopyNetwork(net));
  bi::Bi1Params probe{core::DateFromCivil(2030, 1, 1)};
  std::vector<std::vector<bi::Bi1Row>> snapshots;
  snapshots.push_back(bi::RunBi1(graph, probe));
  int64_t current_group = std::numeric_limits<int64_t>::min();
  for (const datagen::UpdateEvent& event : updates) {
    int64_t group = core::DateFromDateTime(event.timestamp) / batch_days;
    if (group != current_group && current_group != std::numeric_limits<int64_t>::min()) {
      snapshots.push_back(bi::RunBi1(graph, probe));
    }
    current_group = group;
    SNB_CHECK(interactive::ApplyUpdate(graph, event).ok());
  }
  snapshots.push_back(bi::RunBi1(graph, probe));
  return snapshots;
}

class WalRecoveryTest : public ::testing::Test {
 protected:
  void TearDown() override { util::failpoint::DisarmAll(); }
};

// ---------------------------------------------------------------------------
// WAL format round-trip and torn-tail truncation.
// ---------------------------------------------------------------------------

TEST_F(WalRecoveryTest, WalRoundTripPreservesBatches) {
  const SharedData& data = Fixture();
  ASSERT_GE(data.updates.size(), 6u);
  std::string dir = FreshDir("roundtrip");
  std::filesystem::create_directories(dir);
  std::string path = storage::WalPath(dir);

  storage::Wal wal;
  ASSERT_TRUE(wal.Open(path).ok());
  ASSERT_TRUE(wal.BatchBegin(100).ok());
  ASSERT_TRUE(wal.NoteDeleteBatch(100, 3).ok());
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(wal.Append(data.updates[i]).ok());
  }
  ASSERT_TRUE(wal.BatchCommit(100).ok());
  ASSERT_TRUE(wal.BatchBegin(101).ok());
  for (size_t i = 3; i < 6; ++i) {
    ASSERT_TRUE(wal.Append(data.updates[i]).ok());
  }
  ASSERT_TRUE(wal.BatchCommit(101).ok());
  ASSERT_TRUE(wal.Close().ok());

  auto scan_or = storage::ScanWal(path);
  ASSERT_TRUE(scan_or.ok()) << scan_or.status().ToString();
  const storage::WalScan& scan = scan_or.value();
  EXPECT_FALSE(scan.torn_tail) << scan.tail_reason;
  EXPECT_EQ(scan.valid_bytes, scan.total_bytes);
  ASSERT_EQ(scan.batches.size(), 2u);
  EXPECT_EQ(scan.batches[0].day, 100);
  EXPECT_EQ(scan.batches[1].day, 101);
  ASSERT_EQ(scan.batches[0].events.size(), 3u);
  ASSERT_EQ(scan.batches[1].events.size(), 3u);
  EXPECT_EQ(scan.batches[0].delete_count, 3u);
  EXPECT_EQ(scan.batches[1].delete_count, 0u);
  for (size_t i = 0; i < 6; ++i) {
    const datagen::UpdateEvent& got =
        scan.batches[i / 3].events[i % 3];
    EXPECT_EQ(got.kind, data.updates[i].kind) << "event " << i;
    EXPECT_EQ(got.timestamp, data.updates[i].timestamp) << "event " << i;
  }
}

TEST_F(WalRecoveryTest, FileIsThePerRecordFraming) {
  // A batch now reaches the file in one write at commit; the bytes must be
  // what writing each record as it came produced: the magic, then per
  // record u32 LE payload length, u32 LE CRC-32C of the payload, and the
  // payload (type byte + body).
  const SharedData& data = Fixture();
  std::vector<const datagen::UpdateEvent*> inserts, deletes;
  for (const datagen::UpdateEvent& event : data.updates) {
    (datagen::IsDeleteKind(event.kind) ? deletes : inserts).push_back(&event);
  }
  ASSERT_GE(inserts.size(), 5u);
  ASSERT_GE(deletes.size(), 2u);
  struct Batch {
    core::Date day;
    uint32_t delete_count;
    std::vector<const datagen::UpdateEvent*> events;
  };
  const std::vector<Batch> batches = {
      {100, 2, {inserts[0], deletes[0], deletes[1]}},
      {101, 0, {inserts[1], inserts[2], inserts[3]}},
      {102, 0, {inserts[4]}},
  };

  std::string expected = "SNBWAL01";
  auto u32 = [](std::string* out, uint32_t v) {
    for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
  };
  auto record = [&](uint8_t type, const std::string& body) {
    std::string payload(1, static_cast<char>(type));
    payload += body;
    u32(&expected, static_cast<uint32_t>(payload.size()));
    u32(&expected, util::Crc32c(payload.data(), payload.size()));
    expected += payload;
  };
  std::string dir = FreshDir("framing");
  std::filesystem::create_directories(dir);
  std::string path = storage::WalPath(dir);
  storage::Wal wal;
  ASSERT_TRUE(wal.Open(path).ok());
  for (const Batch& batch : batches) {
    std::string day;
    u32(&day, static_cast<uint32_t>(batch.day));
    ASSERT_TRUE(wal.BatchBegin(batch.day).ok());
    record(1, day);
    if (batch.delete_count > 0) {
      ASSERT_TRUE(wal.NoteDeleteBatch(batch.day, batch.delete_count).ok());
      std::string marker = day;
      u32(&marker, batch.delete_count);
      record(4, marker);
    }
    for (const datagen::UpdateEvent* event : batch.events) {
      ASSERT_TRUE(wal.Append(*event).ok());
      record(2, datagen::FormatUpdateEventLine(*event));
    }
    ASSERT_TRUE(wal.BatchCommit(batch.day).ok());
    record(3, day);
    EXPECT_EQ(wal.bytes_written(), expected.size());
  }
  ASSERT_TRUE(wal.Close().ok());

  std::ifstream in(path, std::ios::binary);
  const std::string file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_TRUE(file == expected) << "file " << file.size() << " B, expected "
                                << expected.size() << " B";

  auto scan_or = storage::ScanWal(path);
  ASSERT_TRUE(scan_or.ok()) << scan_or.status().ToString();
  const storage::WalScan& scan = scan_or.value();
  EXPECT_FALSE(scan.torn_tail) << scan.tail_reason;
  EXPECT_EQ(scan.valid_bytes, expected.size());
  ASSERT_EQ(scan.batches.size(), batches.size());
  for (size_t b = 0; b < batches.size(); ++b) {
    EXPECT_EQ(scan.batches[b].day, batches[b].day);
    EXPECT_EQ(scan.batches[b].delete_count, batches[b].delete_count);
    ASSERT_EQ(scan.batches[b].events.size(), batches[b].events.size());
    for (size_t i = 0; i < batches[b].events.size(); ++i) {
      EXPECT_EQ(datagen::FormatUpdateEventLine(scan.batches[b].events[i]),
                datagen::FormatUpdateEventLine(*batches[b].events[i]))
          << "batch " << b << " event " << i;
    }
  }
}

TEST_F(WalRecoveryTest, UncommittedBatchBecomesTornTail) {
  const SharedData& data = Fixture();
  std::string dir = FreshDir("uncommitted");
  std::filesystem::create_directories(dir);
  std::string path = storage::WalPath(dir);

  storage::Wal wal;
  ASSERT_TRUE(wal.Open(path).ok());
  ASSERT_TRUE(wal.BatchBegin(7).ok());
  ASSERT_TRUE(wal.Append(data.updates[0]).ok());
  ASSERT_TRUE(wal.BatchCommit(7).ok());
  uint64_t committed_bytes = wal.bytes_written();
  // Batch 8 never commits — simulating a crash between append and commit.
  ASSERT_TRUE(wal.BatchBegin(8).ok());
  ASSERT_TRUE(wal.Append(data.updates[1]).ok());
  ASSERT_TRUE(wal.Close().ok());

  auto scan_or = storage::ScanWal(path);
  ASSERT_TRUE(scan_or.ok());
  EXPECT_TRUE(scan_or.value().torn_tail);
  EXPECT_EQ(scan_or.value().valid_bytes, committed_bytes);
  ASSERT_EQ(scan_or.value().batches.size(), 1u);

  // Truncation makes the next scan clean.
  ASSERT_TRUE(storage::TruncateWal(path, scan_or.value().valid_bytes).ok());
  auto rescan_or = storage::ScanWal(path);
  ASSERT_TRUE(rescan_or.ok());
  EXPECT_FALSE(rescan_or.value().torn_tail);
  EXPECT_EQ(rescan_or.value().batches.size(), 1u);
}

TEST_F(WalRecoveryTest, GarbageTailIsDetectedAndCut) {
  const SharedData& data = Fixture();
  std::string dir = FreshDir("garbage");
  std::filesystem::create_directories(dir);
  std::string path = storage::WalPath(dir);

  storage::Wal wal;
  ASSERT_TRUE(wal.Open(path).ok());
  ASSERT_TRUE(wal.BatchBegin(1).ok());
  ASSERT_TRUE(wal.Append(data.updates[0]).ok());
  ASSERT_TRUE(wal.BatchCommit(1).ok());
  uint64_t committed_bytes = wal.bytes_written();
  ASSERT_TRUE(wal.Close().ok());

  // Half a record header of garbage — a torn write from a dying kernel.
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("\x03\x00", f);
  std::fclose(f);

  auto scan_or = storage::ScanWal(path);
  ASSERT_TRUE(scan_or.ok());
  EXPECT_TRUE(scan_or.value().torn_tail);
  EXPECT_EQ(scan_or.value().valid_bytes, committed_bytes);
  EXPECT_EQ(scan_or.value().batches.size(), 1u);
}

TEST_F(WalRecoveryTest, AbortBatchCutsAFailedBegin) {
  const SharedData& data = Fixture();
  std::string dir = FreshDir("abortbegin");
  std::filesystem::create_directories(dir);
  std::string path = storage::WalPath(dir);

  storage::Wal wal;
  ASSERT_TRUE(wal.Open(path).ok());
  ASSERT_TRUE(wal.BatchBegin(1).ok());
  ASSERT_TRUE(wal.Append(data.updates[0]).ok());
  ASSERT_TRUE(wal.BatchCommit(1).ok());
  uint64_t committed_bytes = wal.bytes_written();

  // Tear the *BatchBegin record itself* (error mode leaves the torn prefix
  // behind), then abort: the log must shrink back to the committed prefix.
  util::failpoint::Spec spec;
  spec.max_fires = 1;
  util::failpoint::Arm("wal.append.short_write", spec);
  EXPECT_FALSE(wal.BatchBegin(2).ok());
  EXPECT_GT(wal.bytes_written(), committed_bytes);
  ASSERT_TRUE(wal.AbortBatch().ok());
  ASSERT_TRUE(wal.Close().ok());

  auto scan_or = storage::ScanWal(path);
  ASSERT_TRUE(scan_or.ok());
  EXPECT_FALSE(scan_or.value().torn_tail) << scan_or.value().tail_reason;
  EXPECT_EQ(scan_or.value().valid_bytes, committed_bytes);
}

// ---------------------------------------------------------------------------
// Crash at every site → recover → resume → bit-equal results.
// ---------------------------------------------------------------------------

TEST_F(WalRecoveryTest, CrashAtEverySiteRecoversToReferenceResults) {
  const SharedData& data = Fixture();
  RefreshConfig config;
  config.batch_days = 7;
  config.checkpoint_every_batches = 2;

  // Reference (uncrashed) run. Doubles as the rehearsal that registers
  // every fail-point site on the refresh path.
  std::string ref_dir = FreshDir("reference");
  ASSERT_TRUE(
      storage::InitStore(ref_dir, data.network, data.first_day - 1).ok());
  GraphHandle ref_handle(
      std::make_shared<storage::Graph>(CopyNetwork(data.network)));
  auto ref_report_or =
      RunBatchedRefresh(ref_dir, ref_handle, data.updates, config);
  ASSERT_TRUE(ref_report_or.ok()) << ref_report_or.status().ToString();
  ASSERT_GT(ref_report_or.value().batches_applied, 2u);
  ASSERT_GT(ref_report_or.value().checkpoints_written, 0u);
  const BiProbeResults reference = RunProbes(*ref_handle.Current());

  // Enumerate the rehearsed sites on the durability path.
  std::vector<std::string> sites;
  for (const std::string& site : util::failpoint::RegisteredSites()) {
    if (site.rfind("wal.", 0) == 0 || site.rfind("refresh.", 0) == 0 ||
        site.rfind("checkpoint.", 0) == 0 || site.rfind("csv.", 0) == 0 ||
        site.rfind("graph.", 0) == 0) {
      sites.push_back(site);
    }
  }
  ASSERT_GE(sites.size(), 8u)
      << "refresh path should expose >= 8 crash sites";
  // The rehearsal ran real cascades, so every cascade stage must be here.
  for (const char* required :
       {"graph.delete.person", "graph.delete.forums",
        "graph.delete.messages", "graph.delete.likes",
        "graph.delete.index"}) {
    ASSERT_NE(std::find(sites.begin(), sites.end(), std::string(required)),
              sites.end())
        << required << " never registered — the fixture stream ran no "
        << "cascade through that stage";
  }

  // Crash on the site's 1st hit (cold state) and 3rd hit (mid-stream, some
  // batches already durable). Single-hit sites simply complete on the 3rd-
  // hit flavor — still a valid recovery case (clean store, full WAL).
  for (const std::string& site : sites) {
    for (int nth : {1, 3}) {
      SCOPED_TRACE(site + " @" + std::to_string(nth));
      std::string dir =
          FreshDir("crash_" + site + "_" + std::to_string(nth));
      ASSERT_TRUE(
          storage::InitStore(dir, data.network, data.first_day - 1).ok());

      pid_t pid = fork();
      ASSERT_GE(pid, 0) << "fork failed";
      if (pid == 0) {
        // Child: simulated process that dies mid-refresh. No gtest here —
        // it reports through its exit status only.
        util::failpoint::Spec spec;
        spec.mode = util::failpoint::Mode::kCrash;
        spec.nth = nth;
        util::failpoint::Arm(site, spec);
        GraphHandle handle(
            std::make_shared<storage::Graph>(CopyNetwork(data.network)));
        auto report_or = RunBatchedRefresh(dir, handle, data.updates, config);
        _exit(report_or.ok() ? 0 : 7);
      }
      int wstatus = 0;
      ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
      ASSERT_TRUE(WIFEXITED(wstatus));
      int code = WEXITSTATUS(wstatus);
      ASSERT_TRUE(code == util::failpoint::CrashExitCode() || code == 0)
          << "child exited " << code;
      if (nth == 1) {
        // Every rehearsed site is hit at least once, so the cold flavor
        // must actually crash.
        ASSERT_EQ(code, util::failpoint::CrashExitCode());
      }

      // Recover (validates the graph by default), then resume the stream.
      auto recovered_or = storage::RecoveryManager(dir).Recover();
      ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
      storage::RecoveryResult recovered = std::move(recovered_or.value());
      ASSERT_NE(recovered.graph, nullptr);

      GraphHandle handle(std::shared_ptr<const storage::Graph>(
          std::move(recovered.graph)));
      RefreshConfig resume = config;
      resume.resume_after_day = recovered.last_committed_day;
      auto resumed_or = RunBatchedRefresh(dir, handle, data.updates, resume);
      ASSERT_TRUE(resumed_or.ok()) << resumed_or.status().ToString();

      EXPECT_EQ(RunProbes(*handle.Current()), reference)
          << "recovered+resumed store diverges from uncrashed reference";
    }
  }
}

// A second recovery of an already-recovered store is a clean no-op load.
TEST_F(WalRecoveryTest, RecoveryIsIdempotent) {
  const SharedData& data = Fixture();
  RefreshConfig config;
  config.batch_days = 7;

  std::string dir = FreshDir("idempotent");
  ASSERT_TRUE(
      storage::InitStore(dir, data.network, data.first_day - 1).ok());
  GraphHandle handle(
      std::make_shared<storage::Graph>(CopyNetwork(data.network)));
  auto report_or = RunBatchedRefresh(dir, handle, data.updates, config);
  ASSERT_TRUE(report_or.ok());
  const BiProbeResults reference = RunProbes(*handle.Current());

  for (int round = 0; round < 2; ++round) {
    auto recovered_or = storage::RecoveryManager(dir).Recover();
    ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
    EXPECT_EQ(recovered_or.value().last_committed_day,
              report_or.value().last_committed_day);
    EXPECT_EQ(recovered_or.value().truncated_bytes, 0u);
    EXPECT_EQ(RunProbes(*recovered_or.value().graph), reference);
  }
}

TEST_F(WalRecoveryTest, ResumeSkipsAlreadyCommittedBatches) {
  const SharedData& data = Fixture();
  RefreshConfig config;
  config.batch_days = 7;

  std::string dir = FreshDir("resume");
  ASSERT_TRUE(
      storage::InitStore(dir, data.network, data.first_day - 1).ok());
  GraphHandle handle(
      std::make_shared<storage::Graph>(CopyNetwork(data.network)));
  auto first_or = RunBatchedRefresh(dir, handle, data.updates, config);
  ASSERT_TRUE(first_or.ok());

  RefreshConfig resume = config;
  resume.resume_after_day = first_or.value().last_committed_day;
  auto second_or = RunBatchedRefresh(dir, handle, data.updates, resume);
  ASSERT_TRUE(second_or.ok());
  EXPECT_EQ(second_or.value().batches_applied, 0u);
  EXPECT_EQ(second_or.value().events_skipped, data.updates.size());
}

// ---------------------------------------------------------------------------
// Transient failures: retry with backoff while concurrent readers keep
// serving the pre-batch snapshot (never a half-applied day).
// ---------------------------------------------------------------------------

TEST_F(WalRecoveryTest, TransientApplyFailureRetriesWhileReadersServe) {
  const SharedData& data = Fixture();
  RefreshConfig config;
  config.batch_days = 7;

  const auto legal_states =
      ReferenceSnapshots(data.network, data.updates, config.batch_days);

  std::string dir = FreshDir("transient");
  ASSERT_TRUE(
      storage::InitStore(dir, data.network, data.first_day - 1).ok());
  GraphHandle handle(
      std::make_shared<storage::Graph>(CopyNetwork(data.network)));

  // First two apply attempts of the first batch fail transiently; the
  // third succeeds after backoff.
  util::failpoint::Spec spec;
  spec.max_fires = 2;
  util::failpoint::Arm("refresh.apply", spec);

  std::atomic<bool> done{false};
  std::atomic<size_t> reads{0};
  std::atomic<bool> reader_ok{true};
  std::thread reader([&] {
    bi::Bi1Params probe{core::DateFromCivil(2030, 1, 1)};
    while (!done.load(std::memory_order_acquire)) {
      std::shared_ptr<const storage::Graph> snapshot = handle.Current();
      std::vector<bi::Bi1Row> rows = bi::RunBi1(*snapshot, probe);
      if (std::find(legal_states.begin(), legal_states.end(), rows) ==
          legal_states.end()) {
        reader_ok.store(false, std::memory_order_release);
      }
      ++reads;
    }
  });

  auto report_or = RunBatchedRefresh(dir, handle, data.updates, config);
  done.store(true, std::memory_order_release);
  reader.join();

  ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();
  EXPECT_GE(report_or.value().retries, 2u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_TRUE(reader_ok.load())
      << "a reader observed a state that no committed batch produces "
         "(half-applied day escaped the shadow swap)";
  EXPECT_EQ(bi::RunBi1(*handle.Current(),
                       {core::DateFromCivil(2030, 1, 1)}),
            legal_states.back());
}

// Transient errors *exhaust* the retry budget and surface; non-transient
// errors surface immediately without retries.
TEST_F(WalRecoveryTest, RetryBudgetAndErrorTaxonomy) {
  const SharedData& data = Fixture();
  std::string dir = FreshDir("budget");
  ASSERT_TRUE(
      storage::InitStore(dir, data.network, data.first_day - 1).ok());

  {
    GraphHandle handle(
        std::make_shared<storage::Graph>(CopyNetwork(data.network)));
    RefreshConfig config;
    config.batch_days = 7;
    config.retry.max_attempts = 3;
    config.retry.initial_backoff_ms = 0.1;
    util::failpoint::Arm("refresh.apply", util::failpoint::Spec{});
    auto report_or = RunBatchedRefresh(dir, handle, data.updates, config);
    ASSERT_FALSE(report_or.ok());
    EXPECT_TRUE(report_or.status().IsTransient());
    util::failpoint::DisarmAll();
  }
  {
    GraphHandle handle(
        std::make_shared<storage::Graph>(CopyNetwork(data.network)));
    RefreshConfig config;
    config.batch_days = 7;
    util::failpoint::Spec spec;
    spec.error_code = util::StatusCode::kCorruption;
    util::failpoint::Arm("wal.append", spec);
    auto report_or = RunBatchedRefresh(dir, handle, data.updates, config);
    ASSERT_FALSE(report_or.ok());
    EXPECT_TRUE(report_or.status().IsCorruption());
  }
}

}  // namespace
}  // namespace snb
