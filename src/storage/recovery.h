// Crash recovery for a batched-refresh store (LDBC auditing rule: the
// system must survive a crash mid-refresh and come back at the last
// committed daily batch, spec §6.3).
//
// A *store directory* is the durable form of a graph under refresh:
//
//   <store>/
//     checkpoint/        committed graph image (graph.img, see
//                        storage/checkpoint_image.h) + _MANIFEST
//     checkpoint.next/   in-flight checkpoint (ignored until its manifest
//                        is durable)
//     checkpoint.old/    previous checkpoint, mid-rotation window only
//     wal.log            redo log of daily batches since *store creation*
//                        (storage/wal.h)
//
// The _MANIFEST file is written and fsynced last, so a checkpoint directory
// without one is by definition torn and is never loaded. Checkpoint
// rotation (WriteCheckpoint) is: fill checkpoint.next → write manifest →
// rename checkpoint → checkpoint.old → rename checkpoint.next → checkpoint
// → delete checkpoint.old. A crash in any window leaves at least one
// manifest-complete directory, and recovery picks the one with the highest
// last-applied day.
//
// RecoveryManager::Recover =
//   pick newest committed checkpoint
//   → scan the WAL, truncate the torn tail (first bad CRC / short record /
//     uncommitted batch)
//   → decode the checkpoint's image straight into a Graph (no CSV parse,
//     no rebuild), replay every committed batch newer than it, compact if
//     the replay left tombstones
//   → run validate::ValidateGraph before the store serves anything.
//
// The WAL is never truncated at checkpoint time — it spans the store's
// whole life, and replay simply skips batches the checkpoint already
// contains. That trades log size for a much simpler crash matrix (no
// checkpoint/log-truncation interleavings); at BI refresh-stream volumes
// the log is small next to the dataset.

#ifndef SNB_STORAGE_RECOVERY_H_
#define SNB_STORAGE_RECOVERY_H_

#include <memory>
#include <string>

#include "core/date_time.h"
#include "core/schema.h"
#include "storage/graph.h"
#include "util/status.h"

namespace snb::storage {

/// Creates <store_dir> with an initial committed checkpoint of `net` (built
/// into a Graph and written as its image) and no WAL yet.
/// `last_applied_day` seeds the manifest: replay skips batches at or
/// before it (use the day before the first update for a bulk load).
SNB_NODISCARD util::Status InitStore(const std::string& store_dir,
                                     const core::SocialNetwork& net,
                                     core::Date last_applied_day);

/// Writes a new checkpoint of `graph` and atomically rotates it in (see
/// the file comment for the rename dance and its crash windows). A graph
/// with overflow, update tails or tombstones is compacted into the image
/// (WriteGraphImage).
SNB_NODISCARD util::Status WriteCheckpoint(const std::string& store_dir,
                                           const Graph& graph,
                                           core::Date last_applied_day);

struct RecoveryResult {
  std::unique_ptr<Graph> graph;

  /// Last-applied day recorded by the checkpoint that was loaded.
  core::Date checkpoint_day = 0;

  /// Last committed batch day after WAL replay (== checkpoint_day when the
  /// WAL held nothing newer). Refresh resumes after this day.
  core::Date last_committed_day = 0;

  size_t replayed_batches = 0;
  size_t replayed_events = 0;

  /// Torn-tail bytes dropped from the WAL (0 when the log scanned clean).
  uint64_t truncated_bytes = 0;
  std::string truncation_reason;

  /// Wall time of each phase, in ms: decoding the checkpoint image,
  /// replaying the committed WAL batches newer than it, compacting the
  /// tombstones the replay left (0 when it left none) and validating the
  /// result.
  double decode_ms = 0;
  double replay_ms = 0;
  double compact_ms = 0;
  double validate_ms = 0;
};

/// Opens a store directory after a (real or simulated) crash.
class RecoveryManager {
 public:
  explicit RecoveryManager(std::string store_dir)
      : store_dir_(std::move(store_dir)) {}

  /// Recovers to the last committed batch and validates the result with
  /// validate::ValidateGraph; a violation turns into kCorruption (a
  /// recovered store must never serve bad data). Idempotent: recovering an
  /// already-clean store is a no-op load.
  SNB_NODISCARD util::StatusOr<RecoveryResult> Recover() const;

 private:
  std::string store_dir_;
};

}  // namespace snb::storage

#endif  // SNB_STORAGE_RECOVERY_H_
