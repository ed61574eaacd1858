#include <unordered_map>
#include <unordered_set>

#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"
#include "engine/top_k.h"

namespace snb::bi {

std::vector<Bi7Row> RunBi7(const Graph& graph, const Bi7Params& params) {
  CancelPoller poll;
  std::vector<Bi7Row> rows;
  const uint32_t tag = graph.TagByName(params.tag);
  if (tag == storage::kNoIdx) return rows;

  // popularity(q): total likes received across all of q's messages,
  // memoized (CP-5.3: intra-query result reuse), each message's from the
  // graph's like-count column (CP-6.1: inter-query result reuse).
  std::vector<int64_t> popularity_memo(graph.NumPersons(), -1);
  auto popularity = [&](uint32_t q) {
    if (popularity_memo[q] >= 0) return popularity_memo[q];
    int64_t total = 0;
    graph.PersonPosts().ForEach(q, [&](uint32_t post) {
      total += graph.LivePostLikeCount(post);
    });
    graph.PersonComments().ForEach(q, [&](uint32_t comment) {
      total += graph.LiveCommentLikeCount(comment);
    });
    popularity_memo[q] = total;
    return total;
  };

  // Distinct likers of tag-carrying messages per author.
  std::unordered_map<uint32_t, std::unordered_set<uint32_t>> likers_of_author;
  auto handle = [&](uint32_t msg) {
    uint32_t author = graph.MessageCreator(msg);
    auto& likers = likers_of_author[author];
    auto visit = [&](uint32_t liker, core::DateTime) {
      poll.Tick();
      likers.insert(liker);
    };
    if (Graph::IsPost(msg)) {
      graph.PostLikers().ForEachDated(msg, visit);
    } else {
      graph.CommentLikers().ForEachDated(Graph::AsComment(msg), visit);
    }
  };
  graph.TagPosts().ForEach(
      tag, [&](uint32_t post) { handle(Graph::MessageOfPost(post)); });
  graph.TagComments().ForEach(tag, [&](uint32_t comment) {
    handle(Graph::MessageOfComment(comment));
  });

  rows.reserve(likers_of_author.size());
  for (const auto& [author, likers] : likers_of_author) {
    int64_t score = 0;
    for (uint32_t q : likers) {
      poll.Tick();
      score += popularity(q);
    }
    rows.push_back({graph.PersonId(author), score});
  }
  engine::SortAndLimit(
      rows,
      [](const Bi7Row& a, const Bi7Row& b) {
        if (a.authority_score != b.authority_score) {
          return a.authority_score > b.authority_score;
        }
        return a.person_id < b.person_id;
      },
      100);
  return rows;
}

}  // namespace snb::bi
