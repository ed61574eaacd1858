#include <unordered_map>
#include <vector>

#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"
#include "engine/top_k.h"

namespace snb::bi {

namespace {

using internal::ClassPostings;

// The walk: the posting lists, posts and comments, of the class's direct
// tags.
constexpr ClassPostings::Messages kMessages =
    ClassPostings::Messages::kPostsAndComments;

std::vector<uint32_t> WalkTags(const Graph& graph, const Bi24Params& params) {
  return internal::ClassTagList(graph, params.tag_class,
                                /*transitive=*/false);
}

}  // namespace

size_t Bi24Work(const Graph& graph, const Bi24Params& params) {
  return ClassPostings::Length(graph, WalkTags(graph, params), kMessages);
}

std::vector<Bi24Row> RunBi24(const Graph& graph, const Bi24Params& params,
                             util::ThreadPool* pool) {
  using internal::ContinentOfCountry;
  PollCancel();
  ClassPostings postings(graph, WalkTags(graph, params), kMessages);

  struct Agg {
    int64_t messages = 0;
    int64_t likes = 0;
  };
  // Group key (year, month, continent index) packed into one word.
  auto pack = [](int32_t year, int32_t month, uint32_t continent) {
    return (uint64_t{static_cast<uint32_t>(year)} << 36) |
           (uint64_t{static_cast<uint32_t>(month)} << 32) | continent;
  };
  using GroupMap = std::unordered_map<uint64_t, Agg>;
  const GroupMap groups = internal::Aggregate(
      pool, postings.size(), [] { return GroupMap{}; },
      [&](GroupMap& local, size_t begin, size_t end) {
        PollCancel();
        postings.ForEach(begin, end, [&](uint32_t msg) {
          const core::CivilDate created = core::CivilFromDate(
              core::DateFromDateTime(graph.MessageCreationDate(msg)));
          const uint32_t continent =
              ContinentOfCountry(graph, graph.MessageCountry(msg));
          Agg& agg = local[pack(created.year, created.month, continent)];
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
      },
      kPostingMorselSize);

  std::vector<Bi24Row> rows;
  rows.reserve(groups.size());
  for (const auto& [key, agg] : groups) {
    const auto continent = static_cast<uint32_t>(key);
    rows.push_back({agg.messages, agg.likes, static_cast<int32_t>(key >> 36),
                    static_cast<int32_t>((key >> 32) & 0xf),
                    continent == storage::kNoIdx
                        ? std::string()
                        : graph.PlaceAt(continent).name});
  }
  // Continent names are unique, so (year, month, continent name) is a total
  // order over the groups.
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
