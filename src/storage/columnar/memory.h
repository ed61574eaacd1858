// Memory accounting for the columnar store.
//
// Every member of the store is in some family; each reports the heap bytes
// it holds AND the bytes the seed (uncompressed) layout would need for the
// same content — so the compression win is a measured pair of numbers on
// the same store. Graph::Memory() aggregates families and derives the two
// headline densities the bench tracks:
//
//   bytes/edge     Σ adjacency-family bytes / Σ stored directed edges
//   bytes/message  (message-date index + per-message hot columns) /
//                  (#posts + #comments)
//
// A family also reports how many of its bytes sit in bases that every copy
// of the snapshot shares by pointer (CSR bases, the message-date index
// base, bulk string bases, the static segment): a refresh copy allocates
// only total_bytes() - total_shared_bytes().
//
// The raw-equivalent figures use the seed representation's exact shape:
// 8 B offset per node(+1), 4 B target per edge, 8 B date per dated edge,
// 4 B ref + 8 B date per indexed message.

#ifndef SNB_STORAGE_COLUMNAR_MEMORY_H_
#define SNB_STORAGE_COLUMNAR_MEMORY_H_

#include <cstddef>
#include <string>
#include <vector>

namespace snb::storage::columnar {

/// One accounted column family (an adjacency relation, an index, the
/// dictionary, a hot-column group).
struct MemoryFamily {
  std::string name;       // e.g. "adj/knows", "index/message-date", "dict"
  size_t bytes = 0;       // heap bytes actually held
  size_t raw_bytes = 0;   // seed-layout bytes for the same content
  size_t items = 0;       // edges / entries / codes in the family
  size_t shared_bytes = 0;  // part of `bytes` in bases copies share
};

struct MemoryBreakdown {
  std::vector<MemoryFamily> families;

  size_t edge_bytes = 0;      // Σ bytes over adjacency families
  size_t edge_raw_bytes = 0;  // Σ raw_bytes over adjacency families
  size_t num_edges = 0;

  size_t message_bytes = 0;      // index + message hot columns
  size_t message_raw_bytes = 0;
  size_t num_messages = 0;

  size_t total_bytes() const {
    size_t t = 0;
    for (const MemoryFamily& f : families) t += f.bytes;
    return t;
  }
  size_t total_shared_bytes() const {
    size_t t = 0;
    for (const MemoryFamily& f : families) t += f.shared_bytes;
    return t;
  }
  size_t total_raw_bytes() const {
    size_t t = 0;
    for (const MemoryFamily& f : families) t += f.raw_bytes;
    return t;
  }

  double BytesPerEdge() const {
    return num_edges == 0 ? 0.0
                          : static_cast<double>(edge_bytes) / num_edges;
  }
  double RawBytesPerEdge() const {
    return num_edges == 0 ? 0.0
                          : static_cast<double>(edge_raw_bytes) / num_edges;
  }
  double BytesPerMessage() const {
    return num_messages == 0
               ? 0.0
               : static_cast<double>(message_bytes) / num_messages;
  }
  double RawBytesPerMessage() const {
    return num_messages == 0
               ? 0.0
               : static_cast<double>(message_raw_bytes) / num_messages;
  }

  /// Multi-line human-readable table (bench logs, tools/snb_scale_smoke).
  std::string ToString() const;
};

}  // namespace snb::storage::columnar

#endif  // SNB_STORAGE_COLUMNAR_MEMORY_H_
