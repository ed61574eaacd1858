#include <algorithm>
#include <unordered_map>

#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"
#include "engine/bfs.h"

namespace snb::bi {

std::vector<Bi25Row> RunBi25(const Graph& graph, const Bi25Params& params) {
  std::vector<Bi25Row> rows;
  const uint32_t p1 = graph.PersonIdx(params.person1_id);
  const uint32_t p2 = graph.PersonIdx(params.person2_id);
  if (p1 == storage::kNoIdx || p2 == storage::kNoIdx) return rows;
  const core::DateTime start = core::DateTimeFromDate(params.start_date);
  const core::DateTime end =
      core::DateTimeFromDate(params.end_date) + core::kMillisPerDay;

  CancelPoller poll;
  std::vector<std::vector<uint32_t>> paths =
      engine::AllShortestPaths(graph.Knows(), p1, p2, /*max_paths=*/10000);
  if (paths.empty()) return rows;

  auto forum_in_window = [&](uint32_t msg) {
    uint32_t forum = internal::ForumOfMessage(graph, msg);
    core::DateTime created = graph.ForumCreation(forum);
    return created >= start && created < end;
  };

  // Pair weight = Σ over direct replies between the two persons (both
  // directions) in forums created inside the window: post reply 1.0,
  // comment reply 0.5. Memoized per unordered pair (CP-5.3).
  std::unordered_map<uint64_t, double> weight_memo;
  auto pair_weight = [&](uint32_t a, uint32_t b) {
    uint64_t key = internal::PairKey(std::min(a, b), std::max(a, b));
    auto it = weight_memo.find(key);
    if (it != weight_memo.end()) return it->second;
    double w = 0;
    auto scan = [&](uint32_t replier, uint32_t author) {
      graph.PersonComments().ForEach(replier, [&](uint32_t comment) {
        poll.Tick();
        uint32_t parent = graph.CommentReplyOf(comment);
        if (graph.MessageCreator(parent) != author) return;
        if (!forum_in_window(parent)) return;
        w += Graph::IsPost(parent) ? 1.0 : 0.5;
      });
    };
    scan(a, b);
    scan(b, a);
    weight_memo[key] = w;
    return w;
  };

  rows.reserve(paths.size());
  for (const std::vector<uint32_t>& path : paths) {
    Bi25Row row;
    row.person_ids.reserve(path.size());
    for (uint32_t p : path) row.person_ids.push_back(graph.PersonId(p));
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      row.weight += pair_weight(path[i], path[i + 1]);
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const Bi25Row& a, const Bi25Row& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.person_ids < b.person_ids;
  });
  return rows;
}

}  // namespace snb::bi
