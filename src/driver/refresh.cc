#include "driver/refresh.h"

#include <chrono>
#include <thread>
#include <utility>

#include "interactive/updates.h"
#include "storage/recovery.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace snb::driver {

namespace {

// Backoff shape between retries (see RetryConfig).
constexpr double kBackoffMultiplier = 2.0;
constexpr double kMaxBackoffMs = 1000.0;
constexpr double kJitter = 0.2;

/// Runs `attempt` up to retry.max_attempts times, sleeping exponential
/// backoff with jitter between tries. Only kTransient failures are retried;
/// anything else (and an exhausted budget) propagates to the caller.
template <typename Fn>
util::Status RetryTransient(const RetryConfig& retry, util::Rng& rng,
                            size_t* retries, Fn&& attempt) {
  double backoff_ms = retry.initial_backoff_ms;
  for (int tries = 1;; ++tries) {
    util::Status st = attempt();
    if (st.ok() || !st.IsTransient() || tries >= retry.max_attempts) {
      return st;
    }
    ++*retries;
    double jitter_scale = 1.0 + kJitter * (2.0 * rng.NextDouble() - 1.0);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(backoff_ms * jitter_scale));
    backoff_ms = std::min(backoff_ms * kBackoffMultiplier, kMaxBackoffMs);
  }
}

struct Batch {
  /// Last day the batch covers — the commit marker day.
  core::Date day = std::numeric_limits<core::Date>::min();
  std::vector<const datagen::UpdateEvent*> events;
  /// DEL 1–8 events in the batch (drives the WAL delete-batch marker).
  uint32_t delete_count = 0;
};

/// Groups the (timestamp-ordered) update stream into batches of
/// `batch_days` whole simulation days.
std::vector<Batch> GroupIntoBatches(
    const std::vector<datagen::UpdateEvent>& updates, int batch_days) {
  std::vector<Batch> batches;
  int64_t current_group = std::numeric_limits<int64_t>::min();
  for (const datagen::UpdateEvent& event : updates) {
    core::Date day = core::DateFromDateTime(event.timestamp);
    // Floor division so pre-1970 days still group correctly.
    int64_t group = day >= 0 ? day / batch_days
                             : (day - (batch_days - 1)) / batch_days;
    if (group != current_group) {
      batches.emplace_back();
      current_group = group;
    }
    batches.back().events.push_back(&event);
    batches.back().day = std::max(batches.back().day, day);
    if (datagen::IsDeleteKind(event.kind)) ++batches.back().delete_count;
  }
  return batches;
}

}  // namespace

util::StatusOr<RefreshReport> RunBatchedRefresh(
    const std::string& store_dir, GraphHandle& handle,
    const std::vector<datagen::UpdateEvent>& updates,
    const RefreshConfig& config) {
  SNB_CHECK_GE(config.batch_days, 1);
  SNB_CHECK_GE(config.retry.max_attempts, 1);

  const auto t0 = std::chrono::steady_clock::now();
  RefreshReport report;
  util::Rng rng(config.seed, uint64_t{0xbac0ff});

  storage::Wal wal;
  SNB_RETURN_IF_ERROR(
      wal.Open(storage::WalPath(store_dir), {config.wal_sync}));

  std::vector<Batch> batches =
      GroupIntoBatches(updates, config.batch_days);

  size_t applied_since_checkpoint = 0;
  for (const Batch& batch : batches) {
    if (batch.day <= config.resume_after_day) {
      report.events_skipped += batch.events.size();
      continue;
    }

    // Phase 1 — LOG. The commit fsync is the batch's durability point;
    // a failed attempt truncates the partial batch before retrying so the
    // log never holds two copies of one day.
    util::Status logged =
        RetryTransient(config.retry, rng, &report.retries, [&] {
          util::Status st = [&] {
            SNB_RETURN_IF_ERROR(wal.BatchBegin(batch.day));
            if (batch.delete_count > 0) {
              SNB_RETURN_IF_ERROR(
                  wal.NoteDeleteBatch(batch.day, batch.delete_count));
            }
            for (const datagen::UpdateEvent* event : batch.events) {
              SNB_RETURN_IF_ERROR(wal.Append(*event));
            }
            return wal.BatchCommit(batch.day);
          }();
          if (!st.ok()) {
            util::Status aborted = wal.AbortBatch();
            if (!aborted.ok()) return aborted;  // escalate: can't clean up
          }
          return st;
        });
    if (!logged.ok()) return logged;

    // Phase 2 — APPLY to a shadow copy, publish atomically. The WAL batch
    // is already committed, so this phase never touches the log: a crash
    // here is repaired by recovery replay, a transient failure re-copies
    // the shadow from the still-published pre-batch snapshot.
    util::Status applied =
        RetryTransient(config.retry, rng, &report.retries, [&] {
          SNB_FAILPOINT_STATUS("refresh.apply");
          std::shared_ptr<const storage::Graph> base = handle.Current();
          auto shadow = std::make_shared<storage::Graph>(*base);
          for (const datagen::UpdateEvent* event : batch.events) {
            SNB_FAILPOINT_STATUS("refresh.apply.event");
            util::Status st = interactive::ApplyUpdate(*shadow, *event);
            if (!st.ok()) {
              // A torn cascade only exists in this private shadow; dropping
              // the shadow and re-copying the still-published base is a
              // complete rollback, so the interruption is retryable.
              return util::Status::Transient("cascade interrupted: " +
                                             st.ToString());
            }
          }
          // Compact before publishing: readers only ever see cascades as
          // completed wholes, and (by default) never see tombstones at all.
          if (config.compact_deletes && shadow->HasTombstones()) {
            SNB_FAILPOINT_STATUS("refresh.compact");
            shadow = shadow->Compact();
          }
          SNB_FAILPOINT_STATUS("refresh.swap");
          handle.Replace(std::move(shadow));
          return util::Status::Ok();
        });
    if (!applied.ok()) return applied;

    ++report.batches_applied;
    report.events_applied += batch.events.size();
    report.last_committed_day = batch.day;
    ++applied_since_checkpoint;

    // Phase 3 — CHECKPOINT every N batches to bound recovery replay.
    if (config.checkpoint_every_batches > 0 &&
        applied_since_checkpoint >=
            static_cast<size_t>(config.checkpoint_every_batches)) {
      util::Status checkpointed =
          RetryTransient(config.retry, rng, &report.retries, [&] {
            return storage::WriteCheckpoint(store_dir, *handle.Current(),
                                            batch.day);
          });
      if (!checkpointed.ok()) return checkpointed;
      ++report.checkpoints_written;
      applied_since_checkpoint = 0;
    }
  }

  SNB_RETURN_IF_ERROR(wal.Close());
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return report;
}

}  // namespace snb::driver
