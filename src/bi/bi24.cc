#include <algorithm>
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

/// Months since year 0 of an instant: year · 12 + month − 1.
int32_t MonthIndex(core::DateTime dt) {
  const core::CivilDate c = core::CivilFromDate(core::DateFromDateTime(dt));
  return c.year * 12 + c.month - 1;
}

}  // namespace

size_t Bi24Work(const Graph& graph, const Bi24Params& params) {
  return ClassPostings::Length(graph, WalkTags(graph, params), kMessages);
}

std::vector<Bi24Row> RunBi24(const Graph& graph, const Bi24Params& params,
                             util::ThreadPool* pool) {
  PollCancel();
  std::vector<Bi24Row> rows;
  ClassPostings postings(graph, WalkTags(graph, params), kMessages);
  if (postings.size() == 0) return rows;

  // Low-cardinality group-by (CP-1.4) over a dense (month × continent)
  // array. Continent slots: the distinct parents of the places, so
  // slot_of_place[country] is the slot of the message's continent; the
  // entry past the places stands for a country of kNoIdx, whose continent
  // is kNoIdx too.
  const uint32_t num_places = static_cast<uint32_t>(graph.NumPlaces());
  std::vector<uint32_t> slot_of_place(num_places + 1);
  std::vector<uint32_t> continent_of_slot;
  {
    std::vector<uint32_t> slot_of_parent(num_places + 1, storage::kNoIdx);
    for (uint32_t place = 0; place <= num_places; ++place) {
      const uint32_t parent =
          place < num_places ? graph.PlacePartOf(place) : storage::kNoIdx;
      uint32_t& slot = slot_of_parent[std::min(parent, num_places)];
      if (slot == storage::kNoIdx) {
        slot = static_cast<uint32_t>(continent_of_slot.size());
        continent_of_slot.push_back(parent);
      }
      slot_of_place[place] = slot;
    }
  }
  const size_t num_slots = continent_of_slot.size();
  // Every message on the lists lies within the graph's message-date bounds.
  const auto [first_date, last_date] = graph.MessageIndex().DateBounds();
  const int32_t first_month = MonthIndex(first_date);
  const size_t num_months =
      static_cast<size_t>(MonthIndex(last_date) - first_month) + 1;

  struct Agg {
    int64_t messages = 0;
    int64_t likes = 0;
  };
  using Groups = std::vector<Agg>;
  auto add = [&](Groups& local, core::DateTime created, uint32_t country,
                 int64_t likes) {
    const size_t month = static_cast<size_t>(MonthIndex(created) - first_month);
    Agg& agg = local[month * num_slots +
                     slot_of_place[std::min(country, num_places)]];
    ++agg.messages;
    agg.likes += likes;
  };
  const Groups groups = internal::Aggregate(
      pool, postings.size(),
      [&] { return Groups(num_months * num_slots); },
      [&](Groups& local, size_t begin, size_t end) {
        PollCancel();
        postings.ForEach(
            begin, end,
            [&](uint32_t post) {
              add(local, graph.PostCreation(post), graph.PostCountry(post),
                  graph.LivePostLikeCount(post));
            },
            [&](uint32_t comment) {
              add(local, graph.CommentCreation(comment),
                  graph.CommentCountry(comment),
                  graph.LiveCommentLikeCount(comment));
            });
      },
      [](Groups& into, const Groups& from) {
        for (size_t i = 0; i < into.size(); ++i) {
          into[i].messages += from[i].messages;
          into[i].likes += from[i].likes;
        }
      },
      kPostingMorselSize);

  for (size_t i = 0; i < groups.size(); ++i) {
    const Agg& agg = groups[i];
    if (agg.messages == 0) continue;
    const int32_t month = first_month + static_cast<int32_t>(i / num_slots);
    const uint32_t continent = continent_of_slot[i % num_slots];
    rows.push_back({agg.messages, agg.likes, month / 12, month % 12 + 1,
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
