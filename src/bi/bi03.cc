#include <cstdlib>

#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"
#include "engine/bound.h"
#include "engine/top_k.h"

namespace snb::bi {

std::vector<Bi3Row> RunBi3(const Graph& graph, const Bi3Params& params,
                           util::ThreadPool* pool) {
  // Month windows [m1, m2) and [m2, m3).
  int32_t y2 = params.year, m2 = params.month + 1;
  if (m2 > 12) {
    m2 = 1;
    ++y2;
  }
  int32_t y3 = y2, m3 = m2 + 1;
  if (m3 > 12) {
    m3 = 1;
    ++y3;
  }
  const core::DateTime t1 = core::DateTimeFromCivil(params.year, params.month, 1);
  const core::DateTime t2 = core::DateTimeFromCivil(y2, m2, 1);
  const core::DateTime t3 = core::DateTimeFromCivil(y3, m3, 1);

  // Index range scan over [t1, t3) — the window filter becomes a binary
  // search on the sorted base plus zone-map pruning of the update tail
  // (CP-2.2/2.3).
  struct State {
    std::vector<int64_t> count1, count2;
  };
  const size_t num_tags = graph.NumTags();
  const Graph::MessageRangeView range = graph.MessageRange(t1, t3);
  const State all = internal::Aggregate(
      pool, range.size(),
      [num_tags] {
        return State{std::vector<int64_t>(num_tags, 0),
                     std::vector<int64_t>(num_tags, 0)};
      },
      [&](State& s, size_t begin, size_t end) {
        PollCancel();
        range.ForEach(begin, end, [&](uint32_t msg) {
          std::vector<int64_t>& counts =
              graph.MessageCreationDate(msg) < t2 ? s.count1 : s.count2;
          graph.ForEachMessageTag(msg, [&](uint32_t tag) { ++counts[tag]; });
        });
      },
      [num_tags](State& into, const State& from) {
        for (size_t t = 0; t < num_tags; ++t) {
          into.count1[t] += from.count1[t];
          into.count2[t] += from.count2[t];
        }
      });
  const std::vector<int64_t>& count1 = all.count1;
  const std::vector<int64_t>& count2 = all.count2;

  // Top-k finisher over integer candidates: the CP-1.3 bound on |diff|
  // drops losing tags before their name string is dereferenced; only the
  // final ≤100 rows materialize strings.
  struct Cand {
    uint32_t tag;
    int64_t count1;
    int64_t count2;
    int64_t diff;
  };
  auto better = [&graph](const Cand& a, const Cand& b) {
    if (a.diff != b.diff) return a.diff > b.diff;
    return graph.TagAt(a.tag).name < graph.TagAt(b.tag).name;
  };
  engine::BoundRef bound;
  auto key_of = [](const Cand& c) { return c.diff; };
  engine::TopK<Cand, decltype(better)> top(100, better);
  for (uint32_t t = 0; t < num_tags; ++t) {
    if (count1[t] == 0 && count2[t] == 0) continue;
    const int64_t diff = std::llabs(count1[t] - count2[t]);
    if (bound.CannotPlace(diff)) {
      storage::CountRowsSkippedBound(1);
      continue;
    }
    if (top.Add({t, count1[t], count2[t], diff})) {
      top.PublishBound(bound, key_of);
    }
  }

  std::vector<Bi3Row> rows;
  for (const Cand& c : top.Take()) {
    Bi3Row row;
    row.tag = graph.TagAt(c.tag).name;
    row.count_month1 = c.count1;
    row.count_month2 = c.count2;
    row.diff = c.diff;
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace snb::bi
