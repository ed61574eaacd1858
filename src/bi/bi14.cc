#include <unordered_map>

#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"
#include "engine/bound.h"
#include "engine/top_k.h"

namespace snb::bi {

std::vector<Bi14Row> RunBi14(const Graph& graph, const Bi14Params& params,
                             util::ThreadPool* pool) {
  const core::DateTime begin = core::DateTimeFromDate(params.begin);
  const core::DateTime end =
      core::DateTimeFromDate(params.end) + core::kMillisPerDay;  // inclusive

  struct Agg {
    int64_t threads = 0;
    int64_t messages = 0;
  };
  using AggMap = std::unordered_map<uint32_t, Agg>;

  // One scan over the [begin, end) slice of the creation-date index
  // (CP-2.2/2.3) instead of the full post/comment tables. A window post is
  // a thread root and counts for its creator; a window comment whose
  // thread root (precomputed; CP-7.2/7.3 transitive replyOf* collapsed at
  // load) is a live window post credits that root's creator. Every person
  // credited this way created a window post, so threadCount > 0 holds.
  const Graph::MessageRangeView range = graph.MessageRange(begin, end);
  const AggMap by_person = internal::Aggregate(
      pool, range.size(), [] { return AggMap{}; },
      [&](AggMap& local, size_t from, size_t to) {
        PollCancel();
        range.ForEach(from, to, [&](uint32_t msg) {
          if (Graph::IsPost(msg)) {
            Agg& a = local[graph.PostCreator(Graph::AsPost(msg))];
            ++a.threads;
            ++a.messages;
            return;
          }
          const uint32_t root = graph.CommentRootPost(Graph::AsComment(msg));
          const core::DateTime root_created =
              graph.MessageCreationDate(Graph::MessageOfPost(root));
          if (root_created >= begin && root_created < end &&
              graph.PostAlive(root)) {
            ++local[graph.PostCreator(root)].messages;
          }
        });
      },
      [](AggMap& into, const AggMap& from) {
        for (const auto& [person, a] : from) {
          Agg& target = into[person];
          target.threads += a.threads;
          target.messages += a.messages;
        }
      });

  // Top-k finisher with CP-1.3 bound pushdown: the message count alone
  // decides all but ties, so a person strictly below the k-th count is
  // dropped before their Person record is touched; names materialize only
  // for the final ≤100 rows.
  struct Cand {
    uint32_t person;
    core::Id person_id;
    int64_t threads;
    int64_t messages;
  };
  auto better = [](const Cand& a, const Cand& b) {
    if (a.messages != b.messages) return a.messages > b.messages;
    return a.person_id < b.person_id;
  };
  engine::BoundRef bound;
  auto key_of = [](const Cand& c) { return c.messages; };
  engine::TopK<Cand, decltype(better)> top(100, better);
  for (const auto& [person, a] : by_person) {
    if (bound.CannotPlace(a.messages)) {
      storage::CountRowsSkippedBound(1);
      continue;
    }
    Cand c{person, graph.PersonId(person), a.threads, a.messages};
    if (top.Add(c)) top.PublishBound(bound, key_of);
  }

  std::vector<Bi14Row> rows;
  for (const Cand& c : top.Take()) {
    rows.push_back({graph.PersonId(c.person),
                    std::string(graph.PersonFirstName(c.person)),
                    std::string(graph.PersonLastName(c.person)), c.threads,
                    c.messages});
  }
  return rows;
}

}  // namespace snb::bi
