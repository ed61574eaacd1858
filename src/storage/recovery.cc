#include "storage/recovery.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <utility>
#include <vector>

#include "interactive/updates.h"
#include "storage/checkpoint_image.h"
#include "storage/wal.h"
#include "util/failpoint.h"
#include "validate/validator.h"

namespace snb::storage {

namespace {

namespace fs = std::filesystem;

constexpr char kManifestName[] = "_MANIFEST";

struct StorePaths {
  std::string checkpoint;
  std::string checkpoint_next;
  std::string checkpoint_old;
  std::string wal;
};

StorePaths MakeStorePaths(const std::string& store_dir) {
  return {store_dir + "/checkpoint", store_dir + "/checkpoint.next",
          store_dir + "/checkpoint.old", WalPath(store_dir)};
}

/// Writes <dir>/_MANIFEST and fsyncs it — the commit point of a checkpoint.
util::Status WriteManifest(const std::string& dir, core::Date day) {
  std::string path = dir + "/" + kManifestName;
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return util::Status::IoError("cannot write manifest " + path);
  }
  std::string text = "day=" + std::to_string(day) + "\n";
  const char* p = text.data();
  size_t n = text.size();
  while (n > 0) {
    ssize_t written = ::write(fd, p, n);
    if (written < 0) {
      ::close(fd);
      return util::Status::IoError("manifest write failed: " +
                                   std::string(std::strerror(errno)));
    }
    p += written;
    n -= static_cast<size_t>(written);
  }
  bool synced = ::fsync(fd) == 0;
  if (::close(fd) != 0 || !synced) {
    return util::Status::IoError("manifest fsync/close failed for " + path);
  }
  return util::Status::Ok();
}

/// Reads <dir>/_MANIFEST; NotFound marks the directory as torn/absent.
util::StatusOr<core::Date> ReadManifest(const std::string& dir) {
  std::string path = dir + "/" + kManifestName;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return util::Status::NotFound("no manifest in " + dir);
  }
  char buf[64] = {0};
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  if (std::strncmp(buf, "day=", 4) != 0 || n <= 4) {
    return util::Status::Corruption("malformed manifest " + path);
  }
  return static_cast<core::Date>(std::strtol(buf + 4, nullptr, 10));
}

/// Best-effort directory fsync so renames inside `dir` survive power loss.
void SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

util::Status Rename(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::rename(from, to, ec);
  if (ec) {
    return util::Status::IoError("rename " + from + " → " + to + ": " +
                                 ec.message());
  }
  return util::Status::Ok();
}

}  // namespace

util::Status WriteCheckpoint(const std::string& store_dir, const Graph& graph,
                             core::Date last_applied_day) {
  StorePaths paths = MakeStorePaths(store_dir);
  std::error_code ec;
  fs::remove_all(paths.checkpoint_next, ec);  // stale attempt, never committed
  fs::create_directories(paths.checkpoint_next, ec);
  if (ec) {
    return util::Status::IoError("cannot create " + paths.checkpoint_next);
  }

  SNB_FAILPOINT_STATUS("checkpoint.export");
  SNB_RETURN_IF_ERROR(
      WriteGraphImage(graph, paths.checkpoint_next + "/" + kImageFileName));
  SNB_RETURN_IF_ERROR(WriteManifest(paths.checkpoint_next, last_applied_day));
  // The manifest is durable: checkpoint.next is now a committed checkpoint
  // whatever happens below — recovery will find it by its manifest.
  SNB_FAILPOINT_STATUS("checkpoint.manifest");

  if (fs::exists(paths.checkpoint)) {
    fs::remove_all(paths.checkpoint_old, ec);
    SNB_RETURN_IF_ERROR(Rename(paths.checkpoint, paths.checkpoint_old));
  }
  // The window with no checkpoint/ at all: recovery falls back to
  // checkpoint.next (newer) or checkpoint.old (older), both committed.
  SNB_FAILPOINT_STATUS("checkpoint.rotate");
  SNB_RETURN_IF_ERROR(Rename(paths.checkpoint_next, paths.checkpoint));
  fs::remove_all(paths.checkpoint_old, ec);
  SyncDir(store_dir);
  return util::Status::Ok();
}

util::Status InitStore(const std::string& store_dir,
                       const core::SocialNetwork& net,
                       core::Date last_applied_day) {
  const Graph graph{core::SocialNetwork(net)};
  return WriteCheckpoint(store_dir, graph, last_applied_day);
}

util::StatusOr<RecoveryResult> RecoveryManager::Recover() const {
  StorePaths paths = MakeStorePaths(store_dir_);
  std::error_code ec;

  // 1. Pick the committed checkpoint with the newest last-applied day.
  //    Ties prefer the canonical location (rotation completed).
  struct Candidate {
    std::string dir;
    core::Date day;
  };
  std::optional<Candidate> chosen;
  for (const std::string& dir :
       {paths.checkpoint, paths.checkpoint_next, paths.checkpoint_old}) {
    util::StatusOr<core::Date> day = ReadManifest(dir);
    if (!day.ok()) {
      if (day.status().IsCorruption()) return day.status();
      continue;  // absent or torn — not a candidate
    }
    if (!chosen.has_value() || day.value() > chosen->day) {
      chosen = Candidate{dir, day.value()};
    }
  }
  if (!chosen.has_value()) {
    return util::Status::NotFound("no committed checkpoint under " +
                                  store_dir_);
  }

  // 2. Normalize the layout: the chosen checkpoint becomes checkpoint/,
  //    leftovers of interrupted rotations are deleted.
  if (chosen->dir != paths.checkpoint) {
    fs::remove_all(paths.checkpoint, ec);
    SNB_RETURN_IF_ERROR(Rename(chosen->dir, paths.checkpoint));
  }
  fs::remove_all(paths.checkpoint_next, ec);
  fs::remove_all(paths.checkpoint_old, ec);
  SyncDir(store_dir_);

  RecoveryResult result;
  result.checkpoint_day = chosen->day;
  result.last_committed_day = chosen->day;

  // 3. Scan the WAL; truncate the torn tail at the first bad record or
  //    uncommitted batch so later scans are clean.
  WalScan scan;
  {
    util::StatusOr<WalScan> scanned = ScanWal(paths.wal);
    if (scanned.ok()) {
      scan = std::move(scanned).value();
    } else if (scanned.status().code() != util::StatusCode::kNotFound) {
      return scanned.status();  // unreadable or bad magic
    }
  }
  if (scan.torn_tail) {
    SNB_RETURN_IF_ERROR(TruncateWal(paths.wal, scan.valid_bytes));
    result.truncated_bytes = scan.total_bytes - scan.valid_bytes;
    result.truncation_reason = scan.tail_reason;
  }

  // 4. Decode the checkpoint and replay every committed batch newer than
  //    it. Replayed delete batches re-run their cascades from the start —
  //    the cascade torn by the crash never reached a published snapshot,
  //    so re-running it on the checkpoint graph is the roll-forward repair
  //    (Delete* no-ops on already-gone targets keep this idempotent).
  // Each phase's wall time lands in `*ms` (RecoveryResult's phase set).
  auto t0 = std::chrono::steady_clock::now();
  auto lap = [&t0](double* ms) {
    const auto now = std::chrono::steady_clock::now();
    *ms = std::chrono::duration<double, std::milli>(now - t0).count();
    t0 = now;
  };
  SNB_RETURN_IF_ERROR(DecodeGraphImage(
      paths.checkpoint + "/" + kImageFileName, &result.graph));
  lap(&result.decode_ms);
  for (const WalBatch& batch : scan.batches) {
    if (batch.day <= result.checkpoint_day) continue;  // in the checkpoint
    for (const datagen::UpdateEvent& event : batch.events) {
      util::Status st = interactive::ApplyUpdate(*result.graph, event);
      if (!st.ok()) {
        return util::Status::Corruption("replay of day " +
                                        std::to_string(batch.day) +
                                        " failed: " + st.ToString());
      }
      ++result.replayed_events;
    }
    ++result.replayed_batches;
    result.last_committed_day = batch.day;
  }
  lap(&result.replay_ms);

  // 4b. Compact replayed deletes: the recovered store hands out a
  //     tombstone-free graph, same as the refresh path publishes.
  if (result.graph->HasTombstones()) {
    result.graph = result.graph->Compact();
    lap(&result.compact_ms);
  }

  // 5. Never serve unvalidated data off a crash path.
  validate::ValidationReport report = validate::ValidateGraph(*result.graph);
  lap(&result.validate_ms);
  if (!report.ok()) {
    return util::Status::Corruption("recovered store fails validation:\n" +
                                    report.ToString());
  }
  return result;
}

}  // namespace snb::storage
