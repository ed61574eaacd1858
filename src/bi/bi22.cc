#include <unordered_map>

#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"
#include "engine/top_k.h"

namespace snb::bi {

std::vector<Bi22Row> RunBi22(const Graph& graph, const Bi22Params& params) {
  using internal::CountryIdx;
  using internal::PairKey;
  using internal::PersonsOfCountry;
  std::vector<Bi22Row> rows;
  const uint32_t c1 = CountryIdx(graph, params.country1);
  const uint32_t c2 = CountryIdx(graph, params.country2);
  if (c1 == storage::kNoIdx || c2 == storage::kNoIdx) return rows;
  const std::vector<bool> in1 = PersonsOfCountry(graph, c1);
  const std::vector<bool> in2 = PersonsOfCountry(graph, c2);

  // Pair scores keyed by (p1 ∈ country1, p2 ∈ country2).
  std::unordered_map<uint64_t, int64_t> score;
  auto credit = [&](uint32_t a, uint32_t b, int64_t points) {
    if (in1[a] && in2[b] && a != b) score[PairKey(a, b)] += points;
    if (in1[b] && in2[a] && a != b) score[PairKey(b, a)] += points;
  };

  // Direct replies: +4 per reply, either direction.
  CancelPoller poll;
  for (uint32_t comment = 0; comment < graph.NumComments(); ++comment) {
    poll.Tick();
    uint32_t replier = graph.CommentCreator(comment);
    uint32_t target =
        graph.MessageCreator(graph.CommentReplyOf(comment));
    credit(replier, target, 4);
  }
  // Likes: +1 per like, either direction.
  for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
    if (!in1[p] && !in2[p]) continue;
    graph.PersonLikes().ForEachDated(p, [&](uint32_t msg, core::DateTime) {
      credit(p, graph.MessageCreator(msg), 1);
    });
  }
  // Knows: +10 once per pair.
  for (uint32_t a = 0; a < graph.NumPersons(); ++a) {
    if (!in1[a]) continue;
    graph.Knows().ForEach(a, [&](uint32_t b) {
      poll.Tick();
      if (in2[b] && a != b) score[PairKey(a, b)] += 10;
    });
  }

  rows.reserve(score.size());
  for (const auto& [key, s] : score) {
    uint32_t p1 = static_cast<uint32_t>(key >> 32);
    uint32_t p2 = static_cast<uint32_t>(key);
    rows.push_back({graph.PersonId(p1), graph.PersonId(p2),
                    graph.PlaceAt(graph.PersonCity(p1)).name, s});
  }
  engine::SortAndLimit(
      rows,
      [](const Bi22Row& a, const Bi22Row& b) {
        if (a.score != b.score) return a.score > b.score;
        if (a.person1_id != b.person1_id) return a.person1_id < b.person1_id;
        return a.person2_id < b.person2_id;
      },
      100);
  return rows;
}

}  // namespace snb::bi
