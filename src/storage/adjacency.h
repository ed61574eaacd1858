// Appendable adjacency over the compressed columnar CSR.
//
// The bulk-loaded part of every relation lives in a columnar::CompressedCsr
// (FOR-packed offset/target/date columns with per-block zone metadata — see
// storage/columnar/csr.h) for scan locality and density — choke points
// CP-3.2/3.3. The CSR is immutable once built and held by a
// shared_ptr<const>, so a copied list shares it by pointer: copying a list
// costs its overflow arena, not its base. Inserts arriving through the update workload land in a
// chunked overflow arena: one append-only entry pool threaded into
// per-node insertion-ordered chains, replacing the seed's per-vertex
// vector-of-vectors (24 B of header per node per relation before the first
// element). Iteration walks base then overflow, so readers see a single
// merged list, and appends never move an existing entry.

#ifndef SNB_STORAGE_ADJACENCY_H_
#define SNB_STORAGE_ADJACENCY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/date_time.h"
#include "storage/columnar/csr.h"
#include "util/check.h"

namespace snb::storage {

/// One directed edge with an optional DateTime payload, used at build time.
using EdgeInput = columnar::EdgeInput;

class AdjacencyList {
 public:
  AdjacencyList() = default;

  /// Builds the CSR base from an edge list (consumed). `with_dates` controls
  /// whether the payload column is materialized. Each node's base span comes
  /// out sorted by (target, date) regardless of input order — a store
  /// invariant the validator checks (`adjacency-sorted`), and what makes
  /// base spans binary-searchable.
  void Build(size_t num_nodes, std::vector<EdgeInput> edges, bool with_dates) {
    with_dates_ = with_dates;
    num_nodes_ = num_nodes;
    auto csr = std::make_shared<columnar::CompressedCsr>();
    csr->Build(num_nodes, std::move(edges), with_dates);
    csr_ = std::move(csr);
  }

  size_t num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return csr_->num_edges() + overflow_.size(); }
  size_t num_base_edges() const { return csr_->num_edges(); }
  size_t num_overflow_edges() const { return overflow_.size(); }

  /// Grows the node space (new nodes start with no edges).
  void AddNodes(size_t count) { num_nodes_ += count; }

  /// Appends one edge (update path).
  void Append(uint32_t src, uint32_t dst, core::DateTime date = 0) {
    SNB_CHECK_LT(src, num_nodes_);
    if (head_.size() < num_nodes_) {
      head_.resize(num_nodes_, kNilEntry);
      tail_.resize(num_nodes_, kNilEntry);
    }
    const uint32_t entry = static_cast<uint32_t>(overflow_.size());
    SNB_CHECK_LT(entry, kNilEntry);
    overflow_.push_back(OverflowEntry{dst, kNilEntry, date});
    if (head_[src] == kNilEntry) {
      head_[src] = entry;
    } else {
      overflow_[tail_[src]].next = entry;
    }
    tail_[src] = entry;
  }

  size_t Degree(uint32_t node) const {
    SNB_DCHECK(node < num_nodes_);
    size_t d = BaseDegree(node);
    if (node < head_.size()) {
      for (uint32_t e = head_[node]; e != kNilEntry; e = overflow_[e].next) {
        ++d;
      }
    }
    return d;
  }

  /// Size of the bulk-loaded (sorted) part of `node`'s list.
  size_t BaseDegree(uint32_t node) const {
    SNB_DCHECK(node < num_nodes_);
    if (node >= csr_->num_nodes()) return 0;  // node added after bulk load
    return csr_->EdgeEnd(node) - csr_->EdgeBegin(node);
  }

  /// Visits only the bulk-loaded (sorted) neighbours: f(target). The
  /// validator's adjacency-sorted invariant is over exactly this sequence.
  template <typename F>
  void ForEachBase(uint32_t node, F&& f) const {
    SNB_DCHECK(node < num_nodes_);
    const columnar::CompressedCsr& csr = *csr_;
    if (node >= csr.num_nodes()) return;
    const uint64_t end = csr.EdgeEnd(node);
    for (uint64_t k = csr.EdgeBegin(node); k < end; ++k) {
      f(csr.TargetAt(k));
    }
  }

  /// Materializes the sorted base span (validator / tests).
  std::vector<uint32_t> BaseCollect(uint32_t node) const {
    std::vector<uint32_t> out;
    out.reserve(BaseDegree(node));
    ForEachBase(node, [&out](uint32_t t) { out.push_back(t); });
    return out;
  }

  /// Visits every neighbour: f(target).
  template <typename F>
  void ForEach(uint32_t node, F&& f) const {
    ForEachBase(node, f);
    ForEachOverflow(node, f);
  }

  /// Visits only the neighbours appended since the bulk load, in append
  /// order: f(target).
  template <typename F>
  void ForEachOverflow(uint32_t node, F&& f) const {
    if (node >= head_.size()) return;
    for (uint32_t e = head_[node]; e != kNilEntry; e = overflow_[e].next) {
      f(overflow_[e].target);
    }
  }

  /// Visits the neighbours at positions [begin, end) of the merged list, in
  /// ForEach order (base, then overflow), so disjoint slices of
  /// [0, Degree(node)) partition one ForEach.
  template <typename F>
  void ForEachSlice(uint32_t node, size_t begin, size_t end, F&& f) const {
    const size_t base = BaseDegree(node);
    if (begin < base) {
      const columnar::CompressedCsr& csr = *csr_;
      const uint64_t first = csr.EdgeBegin(node);
      const uint64_t last = first + std::min(end, base);
      for (uint64_t k = first + begin; k < last; ++k) f(csr.TargetAt(k));
    }
    if (end <= base || node >= head_.size()) return;
    size_t pos = base;
    for (uint32_t e = head_[node]; e != kNilEntry && pos < end;
         e = overflow_[e].next, ++pos) {
      if (pos >= begin) f(overflow_[e].target);
    }
  }

  /// Visits every neighbour with its payload: f(target, date).
  template <typename F>
  void ForEachDated(uint32_t node, F&& f) const {
    SNB_DCHECK(node < num_nodes_);
    const columnar::CompressedCsr& csr = *csr_;
    SNB_DCHECK(with_dates_ || csr.num_edges() == 0);
    if (node < csr.num_nodes()) {
      const uint64_t end = csr.EdgeEnd(node);
      for (uint64_t k = csr.EdgeBegin(node); k < end; ++k) {
        f(csr.TargetAt(k), csr.DateAt(k));
      }
    }
    if (node < head_.size()) {
      for (uint32_t e = head_[node]; e != kNilEntry; e = overflow_[e].next) {
        f(overflow_[e].target, overflow_[e].date);
      }
    }
  }

  /// What a Remapped() map returns for a node or target it drops (the
  /// graph's kNoIdx).
  static constexpr uint32_t kDropped = UINT32_MAX;

  /// This relation rebuilt as a fresh base over `num_nodes` nodes, its
  /// overflow folded in: edge s → t becomes source(s) → target(t) with its
  /// date, and is dropped when either map returns kDropped or drop(s, t)
  /// holds. `source` must number the nodes it keeps 0, 1, ... in order and
  /// `target` must be monotone, so every base span stays sorted and only
  /// the spans that took appends can need sorting; the result is laid out
  /// exactly as Build lays out the same edges. Compaction rewrites each
  /// relation through its row maps with this.
  template <typename SourceFn, typename TargetFn, typename DropFn>
  AdjacencyList Remapped(size_t num_nodes, SourceFn&& source,
                         TargetFn&& target, DropFn&& drop) const {
    const columnar::CompressedCsr& csr = *csr_;
    std::vector<uint64_t> offsets{0}, targets, dates;
    offsets.reserve(num_nodes + 1);
    targets.reserve(num_edges());
    if (with_dates_) dates.reserve(num_edges());
    auto keep = [&](uint32_t s, uint32_t t, core::DateTime date) {
      const uint32_t dst = target(t);
      if (dst == kDropped || drop(s, t)) return;
      targets.push_back(dst);
      if (with_dates_) dates.push_back(static_cast<uint64_t>(date));
    };
    uint64_t k = 0;
    for (uint32_t node = 0; node < num_nodes_; ++node) {
      const uint64_t end = node < csr.num_nodes() ? csr.EdgeEnd(node) : k;
      if (source(node) == kDropped) {
        k = end;
        continue;
      }
      for (; k < end; ++k) {
        keep(node, csr.TargetAt(k), with_dates_ ? csr.DateAt(k) : 0);
      }
      if (node < head_.size() && head_[node] != kNilEntry) {
        const size_t span = offsets.back();
        for (uint32_t e = head_[node]; e != kNilEntry; e = overflow_[e].next) {
          keep(node, overflow_[e].target, overflow_[e].date);
        }
        SortSpan(span, with_dates_, &targets, &dates);
      }
      offsets.push_back(targets.size());
    }
    SNB_CHECK_EQ(offsets.size(), num_nodes + 1);
    auto rebuilt = std::make_shared<columnar::CompressedCsr>();
    rebuilt->BuildSorted(offsets, targets, dates, with_dates_);
    AdjacencyList out;
    out.csr_ = std::move(rebuilt);
    out.num_nodes_ = num_nodes;
    out.with_dates_ = with_dates_;
    return out;
  }

  /// Materializes the merged neighbour list (used by callers that need to
  /// sort or binary-search).
  std::vector<uint32_t> Collect(uint32_t node) const {
    std::vector<uint32_t> out;
    out.reserve(Degree(node));
    ForEach(node, [&out](uint32_t t) { out.push_back(t); });
    return out;
  }

  /// True when `dst` is among `src`'s neighbours (linear scan; callers on
  /// hot paths should build hash sets instead).
  bool Contains(uint32_t src, uint32_t dst) const {
    bool found = false;
    ForEach(src, [&found, dst](uint32_t t) {
      if (t == dst) found = true;
    });
    return found;
  }

  /// The packed base columns (memory accounting, block-zone validation).
  const columnar::CompressedCsr& csr() const { return *csr_; }

  /// Heap bytes actually held: packed base columns + overflow arena.
  size_t ByteSize() const {
    return SharedByteSize() + overflow_.capacity() * sizeof(OverflowEntry) +
           (head_.capacity() + tail_.capacity()) * sizeof(uint32_t);
  }

  /// The part of ByteSize() in the CSR base, which copies share.
  size_t SharedByteSize() const { return csr_->ByteSize(); }

  /// Seed-layout bytes for the same content: raw CSR arrays plus per-vertex
  /// overflow vectors (two 24 B vector headers per node once any overflow
  /// exists, 4 B target + 8 B date per overflow edge).
  size_t RawByteSize() const {
    size_t raw = csr_->RawByteSize();
    if (!overflow_.empty()) {
      raw += num_nodes_ * 2 * 24;
      raw += overflow_.size() *
             (sizeof(uint32_t) + (with_dates_ ? sizeof(core::DateTime) : 0));
    }
    return raw;
  }

 private:
  friend struct TestAccess;  // corruption seeding in tests (test_access.h)
  friend struct ImageCodec;  // checkpoint image (checkpoint_image.cc)

  static constexpr uint32_t kNilEntry = UINT32_MAX;

  /// Sorts the span of `targets` (and the parallel `dates`, when `dated`)
  /// from `first` on by (target, date), as Build orders a span. Appends
  /// mostly name newer rows, so the span is checked in place first.
  static void SortSpan(size_t first, bool dated,
                       std::vector<uint64_t>* targets,
                       std::vector<uint64_t>* dates) {
    auto date = [dates](size_t i) {
      return static_cast<core::DateTime>((*dates)[i]);
    };
    bool sorted = true;
    for (size_t i = first + 1; sorted && i < targets->size(); ++i) {
      const uint64_t prev = (*targets)[i - 1], next = (*targets)[i];
      sorted = prev < next ||
               (prev == next && (!dated || date(i - 1) <= date(i)));
    }
    if (sorted) return;
    if (!dated) {
      std::sort(targets->begin() + static_cast<ptrdiff_t>(first),
                targets->end());
      return;
    }
    std::vector<std::pair<uint64_t, core::DateTime>> span;
    span.reserve(targets->size() - first);
    for (size_t i = first; i < targets->size(); ++i) {
      span.emplace_back((*targets)[i], date(i));
    }
    std::sort(span.begin(), span.end());
    for (size_t i = 0; i < span.size(); ++i) {
      (*targets)[first + i] = span[i].first;
      (*dates)[first + i] = static_cast<uint64_t>(span[i].second);
    }
  }

  /// One overflow edge; `next` threads the per-node chain in append order.
  struct OverflowEntry {
    uint32_t target;
    uint32_t next;
    core::DateTime date;
  };

  // Written only by Build, which replaces it: copies share one base.
  // Allocated non-const, as Build's is, so TestAccess::Csr may write
  // through an unshared one.
  std::shared_ptr<const columnar::CompressedCsr> csr_ =
      std::make_shared<columnar::CompressedCsr>();
  std::vector<OverflowEntry> overflow_;  // chunk-grown append-only arena
  std::vector<uint32_t> head_, tail_;    // per-node chain ends, lazily sized
  size_t num_nodes_ = 0;
  bool with_dates_ = false;
};

}  // namespace snb::storage

#endif  // SNB_STORAGE_ADJACENCY_H_
