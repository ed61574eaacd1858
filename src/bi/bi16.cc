#include <unordered_map>

#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"
#include "engine/bfs.h"
#include "engine/top_k.h"

namespace snb::bi {

std::vector<Bi16Row> RunBi16(const Graph& graph, const Bi16Params& params) {
  using internal::CountryIdx;
  using internal::TagsOfClass;
  std::vector<Bi16Row> rows;
  const uint32_t start = graph.PersonIdx(params.person_id);
  const uint32_t country = CountryIdx(graph, params.country);
  if (start == storage::kNoIdx || country == storage::kNoIdx) return rows;
  const std::vector<bool> class_tags =
      TagsOfClass(graph, params.tag_class, /*transitive=*/false);

  // Depth-bounded BFS (see bi.h for the trail-semantics note: shortest
  // distance in [1, maxPathDistance] qualifies).
  std::vector<int32_t> dist =
      engine::BfsDistances(graph.Knows(), start, params.max_path_distance);

  CancelPoller poll;
  std::unordered_map<uint64_t, int64_t> counts;  // (person, tag) → messages
  for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
    poll.Tick();
    if (p == start || dist[p] < 1 ||
        dist[p] > params.max_path_distance) {
      continue;
    }
    if (graph.PersonCountry(p) != country) continue;
    auto handle = [&](uint32_t msg) {
      poll.Tick();
      bool qualifies = false;
      graph.ForEachMessageTag(msg, [&](uint32_t tag) {
        if (class_tags[tag]) qualifies = true;
      });
      if (!qualifies) return;
      graph.ForEachMessageTag(msg, [&](uint32_t tag) {
        ++counts[internal::PairKey(p, tag)];
      });
    };
    graph.PersonPosts().ForEach(
        p, [&](uint32_t post) { handle(Graph::MessageOfPost(post)); });
    graph.PersonComments().ForEach(p, [&](uint32_t comment) {
      handle(Graph::MessageOfComment(comment));
    });
  }

  rows.reserve(counts.size());
  for (const auto& [key, count] : counts) {
    uint32_t person = static_cast<uint32_t>(key >> 32);
    uint32_t tag = static_cast<uint32_t>(key);
    rows.push_back({graph.PersonId(person), graph.TagAt(tag).name, count});
  }
  engine::SortAndLimit(
      rows,
      [](const Bi16Row& a, const Bi16Row& b) {
        if (a.message_count != b.message_count) {
          return a.message_count > b.message_count;
        }
        if (a.tag != b.tag) return a.tag < b.tag;
        return a.person_id < b.person_id;
      },
      100);
  return rows;
}

}  // namespace snb::bi
