// Datagen straight to disk: runs the in-memory Generate() and writes its
// bulk dataset as CsvBasic plus its update streams, the layout that
// storage::LoadCsvBasic and ReadUpdateStreams read back.

#ifndef SNB_DATAGEN_STREAMING_H_
#define SNB_DATAGEN_STREAMING_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "datagen/config.h"
#include "util/status.h"

namespace snb::datagen {

struct StreamingOptions {
  DatagenConfig datagen;
  /// Output directory: receives <out_dir>/static, <out_dir>/dynamic and the
  /// two updateStream_0_0_*.csv files — the same layout as WriteCsvBasic +
  /// WriteUpdateStreams.
  std::string out_dir;
  /// Unread. Kept only because perfbench still sets it.
  std::string spill_dir;
  /// Unread. Kept only because perfbench still sets it.
  size_t memory_budget_bytes = 256u << 20;
};

struct StreamingStats {
  size_t persons = 0;
  size_t knows = 0;
  size_t forums = 0;
  size_t memberships = 0;
  size_t posts = 0;
  size_t comments = 0;
  size_t likes = 0;
  size_t update_events = 0;
  int64_t split_time = 0;  // bulk/update boundary (ms since epoch)
};

/// Generate(options.datagen), then WriteCsvBasic(network) and
/// WriteUpdateStreams(updates) into `options.out_dir`. `stats` (optional)
/// receives Generate's totals over bulk + updates and its split time.
util::Status GenerateStreaming(const StreamingOptions& options,
                               StreamingStats* stats);

}  // namespace snb::datagen

#endif  // SNB_DATAGEN_STREAMING_H_
