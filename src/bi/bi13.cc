#include <map>
#include <unordered_map>

#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"
#include "engine/top_k.h"

namespace snb::bi {

std::vector<Bi13Row> RunBi13(const Graph& graph, const Bi13Params& params,
                             util::ThreadPool* pool) {
  using internal::CountryIdx;
  std::vector<Bi13Row> rows;
  const uint32_t country = CountryIdx(graph, params.country);
  if (country == storage::kNoIdx) return rows;

  // (year, month) → tag → count. The outer map keeps the output order
  // (year ↓, month ↑).
  struct MonthKey {
    int32_t year;
    int32_t month;
    bool operator<(const MonthKey& o) const {
      if (year != o.year) return year > o.year;
      return month < o.month;
    }
  };
  using GroupMap = std::map<MonthKey, std::unordered_map<uint32_t, int64_t>>;
  const GroupMap groups = internal::Aggregate(
      pool, graph.NumMessages(), [] { return GroupMap{}; },
      [&](GroupMap& local, size_t begin, size_t end) {
        PollCancel();
        graph.ForEachMessage(begin, end, [&](uint32_t msg) {
          if (graph.MessageCountry(msg) != country) return;
          core::DateTime created = graph.MessageCreationDate(msg);
          // The group exists even with no tags.
          auto& tag_counts =
              local[{core::Year(created), core::Month(created)}];
          graph.ForEachMessageTag(msg,
                                  [&](uint32_t tag) { ++tag_counts[tag]; });
        });
      },
      [](GroupMap& into, const GroupMap& from) {
        for (const auto& [key, tag_counts] : from) {
          auto& target = into[key];  // keeps empty groups too
          for (const auto& [tag, count] : tag_counts) target[tag] += count;
        }
      });

  for (const auto& [key, tag_counts] : groups) {
    Bi13Row row;
    row.year = key.year;
    row.month = key.month;
    using TagCount = std::pair<std::string, int64_t>;
    auto better = [](const TagCount& a, const TagCount& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    };
    engine::TopK<TagCount, decltype(better)> top(5, better);
    for (const auto& [tag, count] : tag_counts) {
      top.Add({graph.TagAt(tag).name, count});
    }
    row.popular_tags = top.Take();
    rows.push_back(std::move(row));
    if (rows.size() == 100) break;
  }
  return rows;
}

}  // namespace snb::bi
