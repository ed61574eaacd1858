#include <map>

#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"

namespace snb::bi {

std::vector<Bi1Row> RunBi1(const Graph& graph, const Bi1Params& params,
                           util::ThreadPool* pool) {
  using internal::Bi1Group;
  using internal::Bi1Key;
  const core::DateTime cutoff = core::DateTimeFromDate(params.date);

  // Few distinct (year, isComment, category) groups — an ordered map both
  // aggregates and produces the output order (CP-1.4: low-cardinality
  // group-by). The creation-date index replaces the full scan plus
  // per-message date filter (CP-2.2): only messages before the cutoff are
  // visited.
  struct State {
    std::map<Bi1Key, Bi1Group> groups;
    int64_t total = 0;
  };
  const Graph::MessageRangeView range =
      graph.MessageRange(storage::kMinMessageDate, cutoff);
  const State all = internal::Aggregate(
      pool, range.size(), [] { return State{}; },
      [&](State& s, size_t begin, size_t end) {
        PollCancel();
        range.ForEach(begin, end, [&](uint32_t msg) {
          const int32_t length = graph.MessageLength(msg);
          Bi1Group& g = s.groups[{core::Year(graph.MessageCreationDate(msg)),
                                  !Graph::IsPost(msg),
                                  internal::Bi1LengthCategory(length)}];
          ++g.count;
          g.sum_length += length;
          ++s.total;
        });
      },
      [](State& into, const State& from) {
        for (const auto& [key, g] : from.groups) {
          Bi1Group& target = into.groups[key];
          target.count += g.count;
          target.sum_length += g.sum_length;
        }
        into.total += from.total;
      });

  std::vector<Bi1Row> rows;
  rows.reserve(all.groups.size());
  for (const auto& [key, g] : all.groups) {
    Bi1Row row;
    row.year = key.year;
    row.is_comment = key.is_comment;
    row.length_category = key.category;
    row.message_count = g.count;
    row.average_message_length =
        static_cast<double>(g.sum_length) / static_cast<double>(g.count);
    row.sum_message_length = g.sum_length;
    row.percentage_of_messages =
        all.total == 0
            ? 0.0
            : static_cast<double>(g.count) / static_cast<double>(all.total);
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace snb::bi
