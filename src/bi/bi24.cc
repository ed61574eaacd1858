#include <map>

#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"
#include "engine/top_k.h"

namespace snb::bi {

std::vector<Bi24Row> RunBi24(const Graph& graph, const Bi24Params& params,
                             util::ThreadPool* pool) {
  using internal::ContinentOfCountry;
  const std::vector<bool> class_tags =
      internal::TagsOfClass(graph, params.tag_class, /*transitive=*/false);

  struct Key {
    int32_t year;
    int32_t month;
    uint32_t continent;
    bool operator<(const Key& o) const {
      if (year != o.year) return year < o.year;
      if (month != o.month) return month < o.month;
      return continent < o.continent;
    }
  };
  struct Agg {
    int64_t messages = 0;
    int64_t likes = 0;
  };
  using GroupMap = std::map<Key, Agg>;
  const GroupMap groups = internal::Aggregate(
      pool, graph.NumMessages(), [] { return GroupMap{}; },
      [&](GroupMap& local, size_t begin, size_t end) {
        PollCancel();
        graph.ForEachMessage(begin, end, [&](uint32_t msg) {
          bool match = false;
          graph.ForEachMessageTag(msg, [&](uint32_t tag) {
            if (class_tags[tag]) match = true;
          });
          if (!match) return;
          core::DateTime created = graph.MessageCreationDate(msg);
          uint32_t continent =
              ContinentOfCountry(graph, graph.MessageCountry(msg));
          Agg& agg =
              local[{core::Year(created), core::Month(created), continent}];
          ++agg.messages;
          agg.likes += internal::MessageLikeCount(graph, msg);
        });
      },
      [](GroupMap& into, const GroupMap& from) {
        for (const auto& [key, agg] : from) {
          Agg& target = into[key];
          target.messages += agg.messages;
          target.likes += agg.likes;
        }
      });

  std::vector<Bi24Row> rows;
  rows.reserve(groups.size());
  for (const auto& [key, agg] : groups) {
    rows.push_back({agg.messages, agg.likes, key.year, key.month,
                    key.continent == storage::kNoIdx
                        ? std::string()
                        : graph.PlaceAt(key.continent).name});
  }
  // The map order is (year ↑, month ↑, continent-index ↑); re-sort by the
  // continent *name* for the final tie-break before applying the limit.
  engine::SortAndLimit(
      rows,
      [](const Bi24Row& a, const Bi24Row& b) {
        if (a.year != b.year) return a.year < b.year;
        if (a.month != b.month) return a.month < b.month;
        return a.continent < b.continent;
      },
      100);
  return rows;
}

}  // namespace snb::bi
