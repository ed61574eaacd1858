#include "storage/columnar/csr.h"

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace snb::storage::columnar {

void CompressedCsr::Build(size_t num_nodes, std::vector<EdgeInput> edges,
                          bool with_dates) {
  num_nodes_ = num_nodes;
  num_edges_ = edges.size();
  with_dates_ = with_dates;
  // Establish the sorted-base invariant (same contract as the raw CSR):
  // edges ordered by (src, dst, date). A counting sort by src places each
  // node's span, then only spans out of (dst, date) order are sorted. A
  // relation built by walking its targets' rows in order (person → posts,
  // forum → posts, post → tags, ...) arrives with every span sorted, so it
  // costs a linear pass instead of a comparison sort of every edge.
  std::vector<uint64_t> offsets(num_nodes + 1, 0);
  for (const EdgeInput& e : edges) {
    SNB_CHECK_LT(e.src, num_nodes);
    ++offsets[e.src + 1];
  }
  for (size_t i = 1; i <= num_nodes; ++i) offsets[i] += offsets[i - 1];
  std::vector<EdgeInput> sorted(edges.size());
  {
    std::vector<uint64_t> next(offsets.begin(), offsets.end() - 1);
    for (const EdgeInput& e : edges) sorted[next[e.src]++] = e;
    std::vector<EdgeInput>().swap(edges);
  }
  auto by_target = [](const EdgeInput& a, const EdgeInput& b) {
    return a.dst != b.dst ? a.dst < b.dst : a.date < b.date;
  };
  for (size_t n = 0; n < num_nodes; ++n) {
    auto first = sorted.begin() + static_cast<ptrdiff_t>(offsets[n]);
    auto last = sorted.begin() + static_cast<ptrdiff_t>(offsets[n + 1]);
    if (!std::is_sorted(first, last, by_target)) {
      std::sort(first, last, by_target);
    }
  }
  offsets_ = ZonedColumn::BuildFor(offsets);

  std::vector<uint64_t> column(sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) column[i] = sorted[i].dst;
  targets_ = ZonedColumn::BuildFor(column);

  if (with_dates) {
    for (size_t i = 0; i < sorted.size(); ++i) {
      column[i] = static_cast<uint64_t>(sorted[i].date);
    }
    dates_ = ZonedColumn::BuildFor(column);
  } else {
    dates_ = ZonedColumn();
  }
}

void CompressedCsr::BuildSorted(std::span<const uint64_t> offsets,
                                std::span<const uint64_t> targets,
                                std::span<const uint64_t> dates,
                                bool with_dates) {
  SNB_CHECK(!offsets.empty());
  SNB_CHECK_EQ(offsets.back(), targets.size());
  SNB_CHECK_EQ(dates.size(), with_dates ? targets.size() : 0);
  num_nodes_ = offsets.size() - 1;
  num_edges_ = targets.size();
  with_dates_ = with_dates;
  offsets_ = ZonedColumn::BuildFor(offsets);
  targets_ = ZonedColumn::BuildFor(targets);
  dates_ = with_dates ? ZonedColumn::BuildFor(dates) : ZonedColumn();
}

}  // namespace snb::storage::columnar
