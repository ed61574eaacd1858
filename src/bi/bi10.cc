#include <unordered_map>

#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"
#include "engine/top_k.h"

namespace snb::bi {

std::vector<Bi10Row> RunBi10(const Graph& graph, const Bi10Params& params) {
  std::vector<Bi10Row> rows;
  const uint32_t tag = graph.TagByName(params.tag);
  if (tag == storage::kNoIdx) return rows;
  const core::DateTime after = core::DateTimeFromDate(params.date);

  CancelPoller poll;
  std::unordered_map<uint32_t, int64_t> score;
  graph.TagPersons().ForEach(tag, [&](uint32_t p) { score[p] += 100; });
  auto handle = [&](uint32_t msg) {
    poll.Tick();
    if (graph.MessageCreationDate(msg) > after) {
      ++score[graph.MessageCreator(msg)];
    }
  };
  graph.TagPosts().ForEach(
      tag, [&](uint32_t post) { handle(Graph::MessageOfPost(post)); });
  graph.TagComments().ForEach(tag, [&](uint32_t comment) {
    handle(Graph::MessageOfComment(comment));
  });

  // friendsScore: scatter each scored person's score to their friends.
  std::unordered_map<uint32_t, int64_t> friends_score;
  for (const auto& [person, s] : score) {
    graph.Knows().ForEach(person, [&, s = s](uint32_t f) {
      poll.Tick();
      friends_score[f] += s;
    });
  }

  rows.reserve(score.size() + friends_score.size());
  auto emit = [&](uint32_t person) {
    auto s = score.find(person);
    auto fs = friends_score.find(person);
    rows.push_back({graph.PersonId(person),
                    s == score.end() ? 0 : s->second,
                    fs == friends_score.end() ? 0 : fs->second});
  };
  for (const auto& [person, s] : score) emit(person);
  for (const auto& [person, fs] : friends_score) {
    if (!score.contains(person)) emit(person);
  }

  engine::SortAndLimit(
      rows,
      [](const Bi10Row& a, const Bi10Row& b) {
        int64_t ta = a.score + a.friends_score;
        int64_t tb = b.score + b.friends_score;
        if (ta != tb) return ta > tb;
        return a.person_id < b.person_id;
      },
      100);
  return rows;
}

}  // namespace snb::bi
