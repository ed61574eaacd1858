// Crash-safe batched refresh — the BI workload's defining operation
// (PAPER.md §5): daily microbatches of updates applied *atomically* between
// read windows, with write-ahead durability and retry-with-backoff on
// transient failures.
//
// Execution model per batch (one or more whole simulation days):
//
//   1. LOG    BatchBegin(day) + every event + BatchCommit(day) into the WAL
//             (storage/wal.h), which buffers the batch's records and
//             writes them with the commit marker in one write at
//             BatchCommit. After the commit fsync the batch is durable:
//             a crash anywhere later is repaired by RecoveryManager replay.
//             A failure mid-log truncates the partial batch (Wal::AbortBatch)
//             and, if transient, retries with exponential backoff + jitter.
//   2. APPLY  Copy the current snapshot member-wise into a private shadow
//             (the explicit Graph copy constructor: the immutable bases —
//             CSR bases, the message-date index base, the bulk string
//             bases and the static segment — are shared by pointer; the
//             other columns, id tables, overflow arenas and tails are
//             copied as they are, never re-sorted or re-encoded), apply the
//             batch to it, then atomically publish it through
//             GraphHandle::Replace. Published snapshots are immutable; only
//             the writer's private shadow is ever mutated. Readers hold
//             shared_ptr snapshots, so concurrent query streams keep
//             serving the pre-batch graph for as long as they need it and
//             *never observe a half-applied day*; a failed apply simply
//             discards the shadow and re-copies. Deep deletes leave
//             tombstones in the shadow; with compact_deletes the shadow is
//             compacted (export of the live subgraph + rebuild) before it
//             is published. The shadow mutates only what it copied, so
//             readers of the previous snapshot keep reading the shared
//             bases unchanged. Copy-per-batch trades memory bandwidth for
//             zero read-side coordination — the right trade at BI's
//             one-batch-per-day refresh cadence.
//   3. CHECK  Optionally every N batches: write the published snapshot as
//             a new checkpoint image (storage/recovery.h rotation protocol),
//             which bounds recovery replay time.
//
// Resume: after RecoveryManager::Recover, pass last_committed_day as
// `resume_after_day`; the driver skips batches the store already contains,
// so crash → recover → rerun converges to the same final state as a run
// that never crashed (tests/wal_recovery_test.cc proves bit-equality on
// BI 1/6/12).

#ifndef SNB_DRIVER_REFRESH_H_
#define SNB_DRIVER_REFRESH_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/date_time.h"
#include "datagen/datagen.h"
#include "storage/graph.h"
#include "storage/wal.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace snb::driver {

/// Publication point for the refresh loop's snapshots. Readers call
/// Current() and may hold the returned shared_ptr across a whole query (or
/// stream); the writer publishes a new snapshot with Replace(). Old
/// snapshots stay alive until their last reader drops them.
class GraphHandle {
 public:
  explicit GraphHandle(std::shared_ptr<const storage::Graph> graph)
      : graph_(std::move(graph)) {}

  std::shared_ptr<const storage::Graph> Current() const SNB_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return graph_;
  }

  void Replace(std::shared_ptr<const storage::Graph> graph)
      SNB_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    graph_ = std::move(graph);
  }

 private:
  mutable util::Mutex mu_{SNB_LOCK_SITE("driver.graph_handle.mu")};
  std::shared_ptr<const storage::Graph> graph_ SNB_GUARDED_BY(mu_);
};

struct RetryConfig {
  /// Attempts per phase (log / apply / checkpoint) before giving up; the
  /// first attempt counts, so 1 means "no retries".
  int max_attempts = 5;

  /// Exponential backoff: sleep initial_backoff_ms * 2^k (at most 1 s)
  /// between attempt k and k+1, each scaled by a uniform jitter in
  /// [0.8, 1.2] to de-synchronize colliding retriers.
  double initial_backoff_ms = 1.0;
};

struct RefreshConfig {
  /// Simulation days per atomic batch (1 = the BI daily microbatch).
  int batch_days = 1;

  RetryConfig retry;

  /// WAL durability policy (kOnCommit = the paper's contract).
  storage::WalSyncPolicy wal_sync = storage::WalSyncPolicy::kOnCommit;

  /// Write a rotated checkpoint every N applied batches; 0 = never.
  /// Checkpoints bound recovery replay but cost an O(graph) image write
  /// (plus a compaction when the snapshot holds updates).
  int checkpoint_every_batches = 0;

  /// Batches whose (last) day is <= this are skipped — set it to
  /// RecoveryResult::last_committed_day to resume after a crash.
  core::Date resume_after_day = std::numeric_limits<core::Date>::min();

  /// Seed for retry jitter (deterministic runs stay deterministic).
  uint64_t seed = 42;

  /// Compact the shadow before publishing when a batch left tombstones
  /// (export the live subgraph and rebuild, bumping the compaction epoch).
  /// Published snapshots are then always tombstone-free; readers never pay
  /// the filtered scan paths. With false, the bitmaps are published as-is
  /// and, because every later shadow is a member-wise copy, tombstones,
  /// TombstoneEpoch and CompactionEpoch all carry forward through later
  /// batches (insert-only ones included) until a compaction — by a later
  /// batch with this set, or by recovery. Tests that exercise tombstoned
  /// reads set this to false.
  bool compact_deletes = true;
};

struct RefreshReport {
  size_t batches_applied = 0;
  size_t events_applied = 0;
  /// Events skipped by resume_after_day.
  size_t events_skipped = 0;
  /// Failed attempts that were retried (any phase).
  size_t retries = 0;
  size_t checkpoints_written = 0;
  core::Date last_committed_day = std::numeric_limits<core::Date>::min();
  double wall_seconds = 0;
};

/// Applies `updates` to the store at `store_dir` in atomic daily batches,
/// publishing each committed batch through `handle`. The handle must hold
/// the store's current graph (fresh InitStore load or RecoveryResult). On
/// a non-transient error (or transient retries exhausted) returns the
/// error; the WAL then holds every *committed* batch and recovery brings
/// store and memory back in sync.
util::StatusOr<RefreshReport> RunBatchedRefresh(
    const std::string& store_dir, GraphHandle& handle,
    const std::vector<datagen::UpdateEvent>& updates,
    const RefreshConfig& config);

}  // namespace snb::driver

#endif  // SNB_DRIVER_REFRESH_H_
