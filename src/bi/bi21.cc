#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"
#include "engine/top_k.h"

namespace snb::bi {

std::vector<Bi21Row> RunBi21(const Graph& graph, const Bi21Params& params) {
  using internal::CountryIdx;
  std::vector<Bi21Row> rows;
  const uint32_t country = CountryIdx(graph, params.country);
  if (country == storage::kNoIdx) return rows;
  const core::DateTime end = core::DateTimeFromDate(params.end_date);

  // Per-person message counts before endDate (needed for *all* persons:
  // likers from any country can be zombies).
  CancelPoller poll;
  std::vector<int64_t> messages(graph.NumPersons(), 0);
  for (uint32_t post = 0; post < graph.NumPosts(); ++post) {
    poll.Tick();
    if (graph.PostCreation(post) < end) ++messages[graph.PostCreator(post)];
  }
  for (uint32_t c = 0; c < graph.NumComments(); ++c) {
    poll.Tick();
    if (graph.CommentCreation(c) < end) ++messages[graph.CommentCreator(c)];
  }

  // Zombie predicate: created before endDate and < 1 message per month on
  // average (partial months on both ends count — MonthsSpanInclusive).
  std::vector<bool> zombie(graph.NumPersons(), false);
  for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
    core::DateTime created = graph.PersonCreation(p);
    if (created >= end) continue;
    int64_t months = core::MonthsSpanInclusive(created, end);
    if (messages[p] < months) zombie[p] = true;
  }

  graph.CountryPersons().ForEach(country, [&](uint32_t p) {
    if (!zombie[p]) return;
    int64_t zombie_likes = 0, total_likes = 0;
    auto count_likes = [&](const storage::AdjacencyList& likers,
                           uint32_t message) {
      likers.ForEachDated(message, [&](uint32_t liker, core::DateTime) {
        poll.Tick();
        if (graph.PersonCreation(liker) >= end) return;
        ++total_likes;
        if (zombie[liker]) ++zombie_likes;
      });
    };
    graph.PersonPosts().ForEach(p, [&](uint32_t post) {
      if (graph.PostCreation(post) < end) {
        count_likes(graph.PostLikers(), post);
      }
    });
    graph.PersonComments().ForEach(p, [&](uint32_t comment) {
      if (graph.CommentCreation(comment) < end) {
        count_likes(graph.CommentLikers(), comment);
      }
    });
    double score = total_likes == 0 ? 0.0
                                    : static_cast<double>(zombie_likes) /
                                          static_cast<double>(total_likes);
    rows.push_back({graph.PersonId(p), zombie_likes, total_likes, score});
  });

  engine::SortAndLimit(
      rows,
      [](const Bi21Row& a, const Bi21Row& b) {
        if (a.zombie_score != b.zombie_score) {
          return a.zombie_score > b.zombie_score;
        }
        return a.zombie_id < b.zombie_id;
      },
      100);
  return rows;
}

}  // namespace snb::bi
