#include <algorithm>
#include <unordered_map>

#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"
#include "engine/bound.h"
#include "engine/top_k.h"

namespace snb::bi {

std::vector<Bi6Row> RunBi6(const Graph& graph, const Bi6Params& params,
                           util::ThreadPool* pool) {
  std::vector<Bi6Row> rows;
  const uint32_t tag = graph.TagByName(params.tag);
  if (tag == storage::kNoIdx) return rows;

  struct Agg {
    int64_t messages = 0;
    int64_t replies = 0;
    int64_t likes = 0;
  };
  using AggMap = std::unordered_map<uint32_t, Agg>;
  auto handle = [&](AggMap& by_person, uint32_t msg) {
    if (!graph.MessageAlive(msg)) return;  // tag adjacency keeps dead rows
    Agg& a = by_person[graph.MessageCreator(msg)];
    ++a.messages;
    a.likes += graph.LiveLikeCount(msg);
    a.replies += graph.LiveReplyCount(msg);
  };
  // The scan domain: the tag's posts, then its comments.
  const size_t num_posts = graph.TagPosts().Degree(tag);
  const size_t num_messages = num_posts + graph.TagComments().Degree(tag);
  const AggMap by_person = internal::Aggregate(
      pool, num_messages, [] { return AggMap{}; },
      [&](AggMap& local, size_t begin, size_t end) {
        PollCancel();
        if (begin < num_posts) {
          graph.TagPosts().ForEachSlice(
              tag, begin, std::min(end, num_posts), [&](uint32_t post) {
                handle(local, Graph::MessageOfPost(post));
              });
        }
        if (end > num_posts) {
          graph.TagComments().ForEachSlice(
              tag, begin > num_posts ? begin - num_posts : 0, end - num_posts,
              [&](uint32_t comment) {
                handle(local, Graph::MessageOfComment(comment));
              });
        }
      },
      [](AggMap& into, const AggMap& from) {
        for (const auto& [person, a] : from) {
          Agg& target = into[person];
          target.messages += a.messages;
          target.replies += a.replies;
          target.likes += a.likes;
        }
      },
      kPostingMorselSize);

  // Top-k finisher with CP-1.3 bound pushdown: the score is computable from
  // the aggregate alone, so a person strictly below the k-th score is
  // dropped before their Person record (and external id) is dereferenced.
  // Score ties always fall through to the person-id tie-break, keeping the
  // result bit-identical to the sort-everything oracle.
  struct Cand {
    core::Id person_id;
    int64_t replies;
    int64_t likes;
    int64_t messages;
    int64_t score;
  };
  auto better = [](const Cand& a, const Cand& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.person_id < b.person_id;
  };
  engine::BoundRef bound;
  auto key_of = [](const Cand& c) { return c.score; };
  engine::TopK<Cand, decltype(better)> top(100, better);
  for (const auto& [person, a] : by_person) {
    const int64_t score = a.messages + 2 * a.replies + 10 * a.likes;
    if (bound.CannotPlace(score)) {
      storage::CountRowsSkippedBound(1);
      continue;
    }
    Cand c{graph.PersonId(person), a.replies, a.likes, a.messages, score};
    if (top.Add(c)) top.PublishBound(bound, key_of);
  }

  for (const Cand& c : top.Take()) {
    Bi6Row row;
    row.person_id = c.person_id;
    row.reply_count = c.replies;
    row.like_count = c.likes;
    row.message_count = c.messages;
    row.score = c.score;
    rows.push_back(row);
  }
  return rows;
}

}  // namespace snb::bi
