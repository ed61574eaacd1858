// Compressed sparse row over zoned column blocks.
//
// The bulk-loaded part of a relation as three FOR-packed columns:
//
//   offsets  num_nodes+1 non-decreasing edge positions (FOR per block keeps
//            Degree() and span lookup O(1), unlike delta)
//   targets  neighbour indices, sorted by (src, dst, date) — the same store
//            invariant the raw CSR kept, so spans stay binary-searchable
//   dates    optional parallel DateTime payload
//
// Against the seed layout (8 B offset/node, 4 B target + 8 B date/edge)
// the packed columns typically cut bytes/edge by 2–4×: a block of 1024
// targets spans only the live index range (≈⌈log2 n⌉ bits), a block of
// offsets spans only the edges under 1024 nodes, and dates share their
// high bits within any one block. RawByteSize() reports the seed-layout
// cost for the same content so the win is a measured number.
//
// Immutable once built — the update path lives in AdjacencyList's overflow
// arena, never here. AdjacencyList holds it by shared_ptr<const>, so every
// copy of a snapshot shares one CSR; only a rebuild (bulk load, compaction,
// recovery) makes a new one.

#ifndef SNB_STORAGE_COLUMNAR_CSR_H_
#define SNB_STORAGE_COLUMNAR_CSR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/date_time.h"
#include "storage/columnar/column_block.h"
#include "util/check.h"

namespace snb::storage {
struct ImageCodec;
}  // namespace snb::storage

namespace snb::storage::columnar {

/// One directed edge with an optional DateTime payload, used at build time.
struct EdgeInput {
  uint32_t src;
  uint32_t dst;
  core::DateTime date = 0;
};

class CompressedCsr {
 public:
  CompressedCsr() = default;

  /// Builds the three columns from an edge list (consumed). Edges are
  /// sorted by (src, dst, date), so every node's span comes out sorted by
  /// (target, date) — the `adjacency-sorted` validator invariant.
  void Build(size_t num_nodes, std::vector<EdgeInput> edges, bool with_dates);

  size_t num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return num_edges_; }
  bool with_dates() const { return with_dates_; }

  /// Edge positions [EdgeBegin, EdgeEnd) of `node`'s span.
  uint64_t EdgeBegin(uint32_t node) const {
    SNB_DCHECK(node < num_nodes_);
    return offsets_.At(node);
  }
  uint64_t EdgeEnd(uint32_t node) const {
    SNB_DCHECK(node < num_nodes_);
    return offsets_.At(node + 1);
  }

  uint32_t TargetAt(uint64_t k) const {
    return static_cast<uint32_t>(targets_.At(k));
  }
  core::DateTime DateAt(uint64_t k) const {
    SNB_DCHECK(with_dates_);
    return static_cast<core::DateTime>(dates_.At(k));
  }

  // Column introspection (validator block-zone checks; tests corrupt a
  // private clone through mutable_targets, never a shared base).
  const ZonedColumn& offsets() const { return offsets_; }
  const ZonedColumn& targets() const { return targets_; }
  const ZonedColumn& dates() const { return dates_; }
  ZonedColumn& mutable_targets() { return targets_; }

  /// Heap bytes held by the packed columns.
  size_t ByteSize() const {
    return offsets_.ByteSize() + targets_.ByteSize() + dates_.ByteSize();
  }

  /// Seed-layout bytes for the same content: 8 B/offset, 4 B/target,
  /// 8 B/date when dated.
  size_t RawByteSize() const {
    return (num_nodes_ + 1) * sizeof(uint64_t) +
           num_edges_ * sizeof(uint32_t) +
           (with_dates_ ? num_edges_ * sizeof(core::DateTime) : 0);
  }

 private:
  friend struct storage::ImageCodec;  // checkpoint image

  size_t num_nodes_ = 0;
  size_t num_edges_ = 0;
  bool with_dates_ = false;
  ZonedColumn offsets_;  // num_nodes_ + 1 values
  ZonedColumn targets_;  // num_edges_ values
  ZonedColumn dates_;    // num_edges_ values, empty when !with_dates_
};

}  // namespace snb::storage::columnar

#endif  // SNB_STORAGE_COLUMNAR_CSR_H_
