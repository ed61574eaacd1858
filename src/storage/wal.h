// Write-ahead log for batched refresh (the BI workload's daily insert
// microbatches, PAPER.md §5, and the LDBC auditing rule that a system must
// survive a crash mid-refresh and recover to the last committed batch).
//
// The WAL is a redo log: a batch's events and its commit marker are durable
// *before* the batch is applied to the in-memory store, so recovery =
// checkpoint + replay of every committed batch. File layout:
//
//   ┌──────────┐
//   │ SNBWAL01 │  8-byte magic
//   ├──────────┴──────────────────────────────────────────────┐
//   │ record: u32 payload_len │ u32 crc32c(payload) │ payload │  repeated
//   └─────────────────────────────────────────────────────────┘
//
// payload[0] is the record type; the rest depends on it:
//   kBatchBegin  (1)  i32 LE day    — first record of a daily batch
//   kEvent       (2)  update-stream text line (datagen::FormatUpdateEventLine)
//   kBatchCommit (3)  i32 LE day    — the batch's durability point
//   kDeleteBatch (4)  i32 LE day, u32 LE count — declares the batch carries
//                     `count` delete (DEL 1–8) events; written right after
//                     BatchBegin so recovery knows, before replaying a
//                     single event, that the batch will run cascades. Logs
//                     written before this record type existed parse
//                     unchanged (insert-only batches never carry it).
//
// Torn-tail truncation rule (applied by Scan/Recover): the valid prefix of
// a WAL ends after the last complete, CRC-clean BatchCommit record. A short
// header, short payload, CRC mismatch, unknown record type, or a batch
// whose commit marker never made it to disk all invalidate the tail from
// the enclosing batch's BatchBegin onward — partially logged batches were
// never promised to anyone.
//
// A batch reaches the file in one write at commit: BatchBegin, NoteDeleteBatch
// and Append frame their records into a per-batch buffer, and BatchCommit
// writes the buffer plus the commit record with one write(2), then fsyncs
// once. The bytes are the same as writing each record as it comes; only
// the number of system calls differs. Until the commit, a batch's records
// exist only in memory, so a crash before it leaves the log as it was
// (AbortBatch drops them; Close writes them out uncommitted, which a scan
// reports as the torn tail).
//
// Only this module touches the WAL file (scripts/lint.sh enforces it);
// recovery.cc and the refresh driver go through these functions.

#ifndef SNB_STORAGE_WAL_H_
#define SNB_STORAGE_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/date_time.h"
#include "datagen/datagen.h"
#include "util/status.h"

namespace snb::storage {

/// When the log forces data to stable storage.
enum class WalSyncPolicy : uint8_t {
  kNone = 0,      // never fsync (tests, or callers who checkpoint often)
  kOnCommit = 1,  // fsync once per BatchCommit — the durability contract
};

struct WalOptions {
  WalSyncPolicy sync = WalSyncPolicy::kOnCommit;
};

/// Path of the WAL inside a store directory (see recovery.h for the store
/// layout). Centralised so the lint gate can pin every use to this module.
std::string WalPath(const std::string& store_dir);

/// Append-only writer. One writer per file; not thread-safe (the refresh
/// driver is the single writer by construction).
class Wal {
 public:
  Wal() = default;
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Opens (creating if absent) the log at `path` for appending. A fresh
  /// file gets the magic; an existing file must start with it.
  SNB_NODISCARD util::Status Open(const std::string& path, WalOptions options = {});

  /// Starts a new batch covering `day`. Batches must not nest, and a batch
  /// that failed must be aborted (AbortBatch) before the next begins.
  SNB_NODISCARD util::Status BatchBegin(core::Date day);

  /// Declares that the open batch carries `delete_count` DEL events. Must
  /// be called (if at all) between BatchBegin and the first Append, so the
  /// declaration precedes every cascade in the log.
  SNB_NODISCARD util::Status NoteDeleteBatch(core::Date day,
                                             uint32_t delete_count);

  /// Appends one event of the open batch (to the batch buffer).
  SNB_NODISCARD util::Status Append(const datagen::UpdateEvent& event);

  /// Commits the open batch: writes the buffered records and the marker in
  /// one write and (per policy) fsyncs. After this returns OK the batch is
  /// durable and recovery will replay it.
  SNB_NODISCARD util::Status BatchCommit(core::Date day);

  /// Abandons the open batch by dropping its buffered records and
  /// truncating the file back to where the batch began (a torn record may
  /// have reached it) — the retry path after a mid-batch failure, keeping
  /// the on-disk prefix equal to "every byte belongs to a committed batch
  /// or to nothing".
  SNB_NODISCARD util::Status AbortBatch();

  SNB_NODISCARD util::Status Sync();
  /// Writes out an open batch's records uncommitted, then syncs (per
  /// policy) and closes.
  SNB_NODISCARD util::Status Close();

  bool is_open() const { return fd_ >= 0; }
  /// Bytes in the file (an open batch's buffered records not included).
  uint64_t bytes_written() const { return offset_; }

 private:
  /// Frames one record into the batch buffer; `append_payload(&buffer)`
  /// appends its payload.
  template <typename AppendPayload>
  util::Status AddRecord(uint8_t type, AppendPayload&& append_payload);
  /// Writes the batch buffer to the file in one write.
  util::Status Flush();

  int fd_ = -1;
  std::string path_;
  WalOptions options_;
  std::string pending_;        // framed records not yet written
  uint64_t offset_ = 0;        // current end-of-file offset
  uint64_t batch_start_ = 0;   // offset of the open batch's BatchBegin
  bool in_batch_ = false;
  /// Bytes past batch_start_ exist that no commit covers (set on
  /// BatchBegin entry, cleared by a successful commit or an abort) —
  /// AbortBatch's truncation predicate, which must also cover a torn
  /// BatchBegin record itself.
  bool dirty_ = false;
};

/// One batch as read back from the log.
struct WalBatch {
  core::Date day = 0;
  std::vector<datagen::UpdateEvent> events;
  /// Declared DEL-event count from the kDeleteBatch marker (0 when the
  /// batch is insert-only / the marker is absent).
  uint32_t delete_count = 0;
};

/// Result of scanning a WAL file.
struct WalScan {
  /// Fully committed batches, in log order.
  std::vector<WalBatch> batches;
  /// End offset of the valid prefix (byte after the last committed batch).
  uint64_t valid_bytes = 0;
  /// Size of the file as scanned; total_bytes - valid_bytes is the tail.
  uint64_t total_bytes = 0;
  /// True when bytes past valid_bytes exist (torn tail or uncommitted
  /// batch); `tail_reason` says what was found there.
  bool torn_tail = false;
  std::string tail_reason;
};

/// Reads committed batches up to the first invalid record (bad CRC, short
/// record, unknown type, unparseable event, batch protocol violation) —
/// framing is lost there, so that point becomes the tail. A torn tail is
/// the normal after-crash state and is reported via `torn_tail`, not as an
/// error; only an unreadable file or bad magic returns a failure Status.
SNB_NODISCARD util::StatusOr<WalScan> ScanWal(const std::string& path);

/// Truncates the log to `valid_bytes` (from a prior ScanWal). Recovery
/// calls this so a once-recovered log scans clean forever after.
SNB_NODISCARD util::Status TruncateWal(const std::string& path, uint64_t valid_bytes);

}  // namespace snb::storage

#endif  // SNB_STORAGE_WAL_H_
