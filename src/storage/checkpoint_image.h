// Binary columnar checkpoint image of a Graph: the durable form of a
// committed checkpoint (storage/recovery.h), decoded straight back into a
// Graph instead of being parsed from CSV and rebuilt.
//
// Only a *frozen* graph is written: one with no adjacency overflow, no
// update tails (message-index tail, string-column tails) and no
// tombstones — which is what a bulk load or a compaction produces. A graph
// that holds any of these is compacted first (Graph::Compact(), which for a
// tombstone-free graph only folds the overflow and tails into fresh
// bases), so the decoded graph is laid out as a bulk build: it accepts
// IU/DEL replay like any other and owns fresh shared bases.
//
// File layout, every integer little-endian:
//
//   header   8 B magic "SNBGIMG\0", u32 version, u32 section count
//   section  u32 kind, u32 CRC-32C of the payload, u64 payload length,
//            payload
//
// The sections come in one fixed order (the kinds are checked against it):
// the graph's epochs and table sizes, the static records (places,
// organisations, tag classes, tags), the dictionary, the person, forum,
// post and comment columns, one section per relation and the message-date
// index. Inside a payload, per-row columns are a u64 count plus the raw
// little-endian array; string columns are their row offsets plus their
// bytes; CSR and date-index bases are ColumnBlock::SerializeTo blocks. Id
// tables, the static segment's indexes and the tombstone bitmaps are
// rebuilt on load, not stored.
//
// Both sides work one section at a time, so neither holds a whole-image
// buffer next to the graph. The decoder is strict and total: any byte
// string yields either a graph whose columns, offsets and references are
// all in range (so validate::ValidateGraph and the queries can read it
// safely) or a kCorruption / kIoError Status — never a crash.
// fuzz/fuzz_checkpoint_image drives it with that contract.

#ifndef SNB_STORAGE_CHECKPOINT_IMAGE_H_
#define SNB_STORAGE_CHECKPOINT_IMAGE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "storage/graph.h"
#include "util/status.h"

namespace snb::storage {

inline constexpr char kImageMagic[8] = {'S', 'N', 'B', 'G', 'I', 'M', 'G', 0};
inline constexpr uint32_t kImageVersion = 1;
inline constexpr size_t kImageHeaderBytes = 16;
inline constexpr size_t kImageSectionHeaderBytes = 16;

/// The image's file name inside a store's checkpoint directory.
inline constexpr char kImageFileName[] = "graph.img";

/// Writes `graph` (compacted first unless frozen) as an image at `path`,
/// replacing any file there, and fsyncs it. Each section's write is the
/// fail-point site "checkpoint.image.write": armed, it writes half the
/// section before firing, so a crash leaves a torn image behind.
SNB_NODISCARD util::Status WriteGraphImage(const Graph& graph,
                                           const std::string& path);

/// Decodes the image at `path` into `*out`. kIoError when the file cannot
/// be read, kCorruption for any malformed content: a wrong magic or
/// version, a missing, reordered, truncated or trailing section, a CRC
/// mismatch, or a payload whose columns disagree in size or hold an
/// out-of-range reference. `*out` is only set on success.
SNB_NODISCARD util::Status DecodeGraphImage(const std::string& path,
                                            std::unique_ptr<Graph>* out);

}  // namespace snb::storage

#endif  // SNB_STORAGE_CHECKPOINT_IMAGE_H_
