#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "datagen/update_stream.h"
#include "util/check.h"
#include "util/crc32c.h"
#include "util/failpoint.h"

namespace snb::storage {

namespace {

constexpr char kMagic[8] = {'S', 'N', 'B', 'W', 'A', 'L', '0', '1'};
constexpr size_t kRecordHeaderSize = 8;  // u32 len + u32 crc

enum RecordType : uint8_t {
  kBatchBegin = 1,
  kEvent = 2,
  kBatchCommit = 3,
  kDeleteBatch = 4,
};

void PutU32(uint8_t* out, uint32_t v) {
  out[0] = static_cast<uint8_t>(v);
  out[1] = static_cast<uint8_t>(v >> 8);
  out[2] = static_cast<uint8_t>(v >> 16);
  out[3] = static_cast<uint8_t>(v >> 24);
}

uint32_t GetU32(const uint8_t* in) {
  return static_cast<uint32_t>(in[0]) | (static_cast<uint32_t>(in[1]) << 8) |
         (static_cast<uint32_t>(in[2]) << 16) |
         (static_cast<uint32_t>(in[3]) << 24);
}

/// write(2) until done; short writes from the kernel are retried, so a
/// genuinely torn record can only come from a crash (or the injected
/// torn-write fail point below).
util::Status WriteAll(int fd, const void* data, size_t n) {
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    ssize_t written = ::write(fd, p, n);
    if (written < 0) {
      return util::Status::IoError("WAL write failed: " +
                                   std::string(std::strerror(errno)));
    }
    p += written;
    n -= static_cast<size_t>(written);
  }
  return util::Status::Ok();
}

/// Appends one record frame (header, type byte, payload) to `out`;
/// `append_payload(out)` appends the payload after the type byte.
template <typename AppendPayload>
void AppendFrame(std::string* out, uint8_t type,
                 AppendPayload&& append_payload) {
  const size_t start = out->size();
  out->append(kRecordHeaderSize, '\0');
  out->push_back(static_cast<char>(type));
  append_payload(out);
  auto* frame = reinterpret_cast<uint8_t*>(out->data() + start);
  const size_t len = out->size() - start - kRecordHeaderSize;
  PutU32(frame, static_cast<uint32_t>(len));
  PutU32(frame + 4, util::Crc32c(frame + kRecordHeaderSize, len));
}

/// An AppendFrame payload writer for a fixed-size payload.
auto Bytes(const uint8_t* payload, size_t len) {
  return [payload, len](std::string* out) {
    out->append(reinterpret_cast<const char*>(payload), len);
  };
}

}  // namespace

std::string WalPath(const std::string& store_dir) {
  return store_dir + "/wal.log";
}

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

util::Status Wal::Open(const std::string& path, WalOptions options) {
  SNB_CHECK(fd_ < 0);
  SNB_FAILPOINT_STATUS("wal.open");
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return util::Status::IoError("cannot open WAL " + path + ": " +
                                 std::strerror(errno));
  }
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size == 0) {
    util::Status st = WriteAll(fd, kMagic, sizeof(kMagic));
    if (!st.ok()) {
      ::close(fd);
      return st;
    }
    size = sizeof(kMagic);
  } else if (size < static_cast<off_t>(sizeof(kMagic))) {
    // A crash before the magic completed: nothing was ever committed here,
    // so restart the file from scratch.
    if (::ftruncate(fd, 0) != 0 ||
        !WriteAll(fd, kMagic, sizeof(kMagic)).ok()) {
      ::close(fd);
      return util::Status::IoError("cannot re-initialize torn WAL " + path);
    }
    size = sizeof(kMagic);
    if (::lseek(fd, size, SEEK_SET) < 0) {
      ::close(fd);
      return util::Status::IoError("lseek failed on WAL " + path);
    }
  }
  fd_ = fd;
  path_ = path;
  options_ = options;
  offset_ = static_cast<uint64_t>(size);
  in_batch_ = false;
  dirty_ = false;
  return util::Status::Ok();
}

template <typename AppendPayload>
util::Status Wal::AddRecord(uint8_t type, AppendPayload&& append_payload) {
  SNB_CHECK(fd_ >= 0);
  SNB_FAILPOINT_STATUS("wal.append");
  const size_t start = pending_.size();
  AppendFrame(&pending_, type, append_payload);

  // Torn-write site: when armed, write out the records before this one,
  // then only the first half of this frame, before firing. In crash mode
  // the process dies leaving a short record on disk (what a real power cut
  // mid-write leaves); in error mode the torn prefix stays behind and the
  // injected Status is returned — the caller's AbortBatch/truncate path
  // must cope with both.
  static const bool torn_site_registered =
      util::failpoint::RegisterSite("wal.append.short_write");
  (void)torn_site_registered;
  if (util::failpoint::AnyArmed() &&
      util::failpoint::IsArmed("wal.append.short_write")) {
    const size_t half = (pending_.size() - start) / 2;
    SNB_RETURN_IF_ERROR(WriteAll(fd_, pending_.data(), start + half));
    offset_ += start + half;
    pending_.erase(0, start + half);
    util::Status injected = util::failpoint::Hit("wal.append.short_write");
    if (!injected.ok()) {
      pending_.clear();  // the frame stays torn
      return injected;
    }
    // Armed but the spec did not fire (e.g. nth-hit not reached yet):
    // complete the record so the log stays well-formed.
    SNB_RETURN_IF_ERROR(Flush());
  }
  return util::Status::Ok();
}

util::Status Wal::Flush() {
  if (pending_.empty()) return util::Status::Ok();
  SNB_RETURN_IF_ERROR(WriteAll(fd_, pending_.data(), pending_.size()));
  offset_ += pending_.size();
  pending_.clear();
  return util::Status::Ok();
}

util::Status Wal::BatchBegin(core::Date day) {
  // A failed batch must be aborted before the next one begins.
  SNB_CHECK(!in_batch_ && pending_.empty());
  // Mark the rollback point *before* any bytes go out: a failure inside
  // AddRecord leaves a torn record that AbortBatch must be able to cut.
  batch_start_ = offset_;
  dirty_ = true;
  uint8_t payload[4];
  PutU32(payload, static_cast<uint32_t>(day));
  SNB_RETURN_IF_ERROR(AddRecord(kBatchBegin, Bytes(payload, sizeof(payload))));
  SNB_FAILPOINT_STATUS("wal.batch_begin");
  in_batch_ = true;
  return util::Status::Ok();
}

util::Status Wal::NoteDeleteBatch(core::Date day, uint32_t delete_count) {
  SNB_CHECK(in_batch_);
  uint8_t payload[8];
  PutU32(payload, static_cast<uint32_t>(day));
  PutU32(payload + 4, delete_count);
  SNB_RETURN_IF_ERROR(AddRecord(kDeleteBatch, Bytes(payload, sizeof(payload))));
  SNB_FAILPOINT_STATUS("wal.delete_batch");
  return util::Status::Ok();
}

util::Status Wal::Append(const datagen::UpdateEvent& event) {
  SNB_CHECK(in_batch_);
  return AddRecord(kEvent, [&event](std::string* out) {
    datagen::AppendUpdateEventLine(event, out);
  });
}

util::Status Wal::BatchCommit(core::Date day) {
  SNB_CHECK(in_batch_);
  uint8_t payload[4];
  PutU32(payload, static_cast<uint32_t>(day));
  SNB_RETURN_IF_ERROR(AddRecord(kBatchCommit, Bytes(payload, sizeof(payload))));
  // The whole batch, commit marker included, in one write.
  SNB_RETURN_IF_ERROR(Flush());
  SNB_FAILPOINT_STATUS("wal.commit.before_sync");
  if (options_.sync == WalSyncPolicy::kOnCommit) {
    SNB_RETURN_IF_ERROR(Sync());
  }
  SNB_FAILPOINT_STATUS("wal.commit.after_sync");
  in_batch_ = false;
  dirty_ = false;
  return util::Status::Ok();
}

util::Status Wal::AbortBatch() {
  if (!dirty_) return util::Status::Ok();
  pending_.clear();
  in_batch_ = false;
  dirty_ = false;
  if (::ftruncate(fd_, static_cast<off_t>(batch_start_)) != 0) {
    return util::Status::IoError("WAL abort-truncate failed: " +
                                 std::string(std::strerror(errno)));
  }
  if (::lseek(fd_, static_cast<off_t>(batch_start_), SEEK_SET) < 0) {
    return util::Status::IoError("WAL abort-seek failed");
  }
  offset_ = batch_start_;
  return util::Status::Ok();
}

util::Status Wal::Sync() {
  SNB_CHECK(fd_ >= 0);
  SNB_FAILPOINT_STATUS("wal.sync");
  if (::fsync(fd_) != 0) {
    return util::Status::IoError("WAL fsync failed: " +
                                 std::string(std::strerror(errno)));
  }
  return util::Status::Ok();
}

util::Status Wal::Close() {
  if (fd_ < 0) return util::Status::Ok();
  // An open batch's records reach the file uncommitted: a scan reports
  // them as the torn tail, as after a crash before the commit.
  util::Status st = Flush();
  if (st.ok() && options_.sync != WalSyncPolicy::kNone) st = Sync();
  if (::close(fd_) != 0 && st.ok()) {
    st = util::Status::IoError("WAL close failed");
  }
  fd_ = -1;
  return st;
}

util::StatusOr<WalScan> ScanWal(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return util::Status::NotFound("no WAL at " + path);
  }

  WalScan scan;
  std::vector<uint8_t> file;
  {
    char chunk[1 << 16];
    ssize_t n;
    while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
      file.insert(file.end(), chunk, chunk + n);
    }
    ::close(fd);
    if (n < 0) return util::Status::IoError("cannot read WAL " + path);
  }
  scan.total_bytes = file.size();

  if (file.size() < sizeof(kMagic) ||
      std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    if (file.empty() || file.size() < sizeof(kMagic)) {
      // Crash before the magic completed — an empty log, all tail.
      scan.valid_bytes = 0;
      scan.torn_tail = !file.empty();
      scan.tail_reason = file.empty() ? "" : "torn magic";
      return scan;
    }
    return util::Status::Corruption("bad WAL magic in " + path);
  }

  size_t pos = sizeof(kMagic);
  scan.valid_bytes = pos;
  WalBatch open_batch;
  bool in_batch = false;
  auto tail = [&](std::string reason) {
    scan.torn_tail = true;
    scan.tail_reason = std::move(reason);
  };

  while (pos < file.size()) {
    if (file.size() - pos < kRecordHeaderSize) {
      tail("short record header");
      break;
    }
    uint32_t len = GetU32(file.data() + pos);
    uint32_t crc = GetU32(file.data() + pos + 4);
    if (len == 0 || len > (64u << 20) ||
        file.size() - pos - kRecordHeaderSize < len) {
      tail("short record payload");
      break;
    }
    const uint8_t* payload = file.data() + pos + kRecordHeaderSize;
    if (util::Crc32c(payload, len) != crc) {
      tail("record CRC mismatch");
      break;
    }
    uint8_t type = payload[0];
    const uint8_t* body = payload + 1;
    size_t body_len = len - 1;
    if (type == kBatchBegin) {
      if (in_batch || body_len != 4) {
        tail(in_batch ? "BatchBegin inside open batch" : "bad BatchBegin");
        break;
      }
      open_batch = WalBatch{};
      open_batch.day = static_cast<core::Date>(GetU32(body));
      in_batch = true;
    } else if (type == kEvent) {
      if (!in_batch) {
        tail("event outside a batch");
        break;
      }
      datagen::UpdateEvent event;
      std::string line(reinterpret_cast<const char*>(body), body_len);
      util::Status st = datagen::ParseUpdateEventLine(line, &event);
      if (!st.ok()) {
        tail("unparseable event: " + st.ToString());
        break;
      }
      open_batch.events.push_back(std::move(event));
    } else if (type == kDeleteBatch) {
      if (!in_batch || body_len != 8 ||
          static_cast<core::Date>(GetU32(body)) != open_batch.day) {
        tail("delete-batch marker does not match open batch");
        break;
      }
      open_batch.delete_count = GetU32(body + 4);
    } else if (type == kBatchCommit) {
      if (!in_batch || body_len != 4 ||
          static_cast<core::Date>(GetU32(body)) != open_batch.day) {
        tail("commit marker does not match open batch");
        break;
      }
      scan.batches.push_back(std::move(open_batch));
      in_batch = false;
      scan.valid_bytes = pos + kRecordHeaderSize + len;
    } else {
      tail("unknown record type " + std::to_string(type));
      break;
    }
    pos += kRecordHeaderSize + len;
  }
  // A clean-looking but uncommitted batch at EOF is tail too: its commit
  // marker never reached the disk.
  if (!scan.torn_tail && in_batch) tail("uncommitted batch at end of log");
  if (!scan.torn_tail && scan.valid_bytes < file.size()) {
    tail("trailing bytes after last committed batch");
  }
  return scan;
}

util::Status TruncateWal(const std::string& path, uint64_t valid_bytes) {
  // Truncating to a zero-byte prefix would also drop the magic; rewrite the
  // header so the file stays a valid (empty) log.
  if (valid_bytes < sizeof(kMagic)) {
    int fd = ::open(path.c_str(), O_WRONLY | O_TRUNC);
    if (fd < 0) return util::Status::IoError("cannot truncate WAL " + path);
    util::Status st = WriteAll(fd, kMagic, sizeof(kMagic));
    if (st.ok() && ::fsync(fd) != 0) {
      st = util::Status::IoError("fsync after WAL truncate failed");
    }
    ::close(fd);
    return st;
  }
  if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    return util::Status::IoError("cannot truncate WAL " + path + ": " +
                                 std::strerror(errno));
  }
  return util::Status::Ok();
}

}  // namespace snb::storage
