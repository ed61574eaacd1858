// Naive engine, BI 21–25.

#include <algorithm>
#include <map>
#include <unordered_map>
#include <functional>
#include <unordered_set>

#include "bi/naive.h"
#include "bi/naive_common.h"

namespace snb::bi::naive {

using internal::kNoIdx;

std::vector<Bi21Row> RunBi21(const Graph& graph, const Bi21Params& params) {
  uint32_t country = graph.PlaceByName(params.country);
  std::vector<Bi21Row> rows;
  if (country == kNoIdx) return rows;
  const core::DateTime end = core::DateTimeFromDate(params.end_date);

  std::vector<int64_t> messages(graph.NumPersons(), 0);
  graph.ForEachMessage([&](uint32_t msg) {
    if (graph.MessageCreationDate(msg) < end) {
      ++messages[graph.MessageCreator(msg)];
    }
  });
  std::vector<bool> zombie(graph.NumPersons(), false);
  for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
    core::DateTime created = graph.PersonCreation(p);
    if (created >= end) continue;
    if (messages[p] < core::MonthsSpanInclusive(created, end)) {
      zombie[p] = true;
    }
  }

  struct Agg {
    int64_t zombie_likes = 0, total_likes = 0;
  };
  std::unordered_map<uint32_t, Agg> by_author;
  internal::ForEachLike(graph,
                        [&](uint32_t liker, uint32_t msg, core::DateTime) {
    if (graph.MessageCreationDate(msg) >= end) return;
    if (graph.PersonCreation(liker) >= end) return;
    uint32_t author = graph.MessageCreator(msg);
    if (!zombie[author]) return;
    if (internal::PersonCountrySlow(graph, author) != country) return;
    Agg& agg = by_author[author];
    ++agg.total_likes;
    if (zombie[liker]) ++agg.zombie_likes;
  });

  for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
    if (!zombie[p]) continue;
    if (internal::PersonCountrySlow(graph, p) != country) continue;
    auto it = by_author.find(p);
    int64_t zl = it == by_author.end() ? 0 : it->second.zombie_likes;
    int64_t tl = it == by_author.end() ? 0 : it->second.total_likes;
    double score =
        tl == 0 ? 0.0 : static_cast<double>(zl) / static_cast<double>(tl);
    rows.push_back({graph.PersonId(p), zl, tl, score});
  }
  std::sort(rows.begin(), rows.end(), [](const Bi21Row& a, const Bi21Row& b) {
    if (a.zombie_score != b.zombie_score) {
      return a.zombie_score > b.zombie_score;
    }
    return a.zombie_id < b.zombie_id;
  });
  if (rows.size() > 100) rows.resize(100);
  return rows;
}

std::vector<Bi22Row> RunBi22(const Graph& graph, const Bi22Params& params) {
  uint32_t c1 = graph.PlaceByName(params.country1);
  uint32_t c2 = graph.PlaceByName(params.country2);
  std::vector<Bi22Row> rows;
  if (c1 == kNoIdx || c2 == kNoIdx) return rows;

  std::vector<bool> in1(graph.NumPersons()), in2(graph.NumPersons());
  for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
    uint32_t country = internal::PersonCountrySlow(graph, p);
    in1[p] = country == c1;
    in2[p] = country == c2;
  }
  std::map<std::pair<uint32_t, uint32_t>, int64_t> score;
  auto credit = [&](uint32_t a, uint32_t b, int64_t points) {
    if (in1[a] && in2[b] && a != b) score[{a, b}] += points;
    if (in1[b] && in2[a] && a != b) score[{b, a}] += points;
  };
  for (uint32_t c = 0; c < graph.NumComments(); ++c) {
    uint32_t replier = graph.CommentCreator(c);
    uint32_t target =
        graph.MessageCreator(graph.CommentReplyOf(c));
    credit(replier, target, 4);
  }
  internal::ForEachLike(graph,
                        [&](uint32_t liker, uint32_t msg, core::DateTime) {
    credit(liker, graph.MessageCreator(msg), 1);
  });
  internal::ForEachKnowsEdge(graph, [&](uint32_t a, uint32_t b) {
    if (in1[a] && in2[b]) score[{a, b}] += 10;
    if (in1[b] && in2[a]) score[{b, a}] += 10;
  });

  for (const auto& [pair, s] : score) {
    rows.push_back({graph.PersonId(pair.first),
                    graph.PersonId(pair.second),
                    graph.PlaceAt(graph.PersonCity(pair.first)).name,
                    s});
  }
  std::sort(rows.begin(), rows.end(), [](const Bi22Row& a, const Bi22Row& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.person1_id != b.person1_id) return a.person1_id < b.person1_id;
    return a.person2_id < b.person2_id;
  });
  if (rows.size() > 100) rows.resize(100);
  return rows;
}

std::vector<Bi23Row> RunBi23(const Graph& graph, const Bi23Params& params) {
  uint32_t home = graph.PlaceByName(params.country);
  std::vector<Bi23Row> rows;
  if (home == kNoIdx) return rows;

  std::map<std::pair<std::string, int32_t>, int64_t> counts;
  graph.ForEachMessage([&](uint32_t msg) {
    uint32_t creator = graph.MessageCreator(msg);
    if (internal::PersonCountrySlow(graph, creator) != home) return;
    uint32_t dest = graph.MessageCountry(msg);
    if (dest == home) return;
    ++counts[{graph.PlaceAt(dest).name,
              core::Month(graph.MessageCreationDate(msg))}];
  });
  for (const auto& [key, count] : counts) {
    rows.push_back({count, key.first, key.second});
  }
  std::sort(rows.begin(), rows.end(), [](const Bi23Row& a, const Bi23Row& b) {
    if (a.message_count != b.message_count) {
      return a.message_count > b.message_count;
    }
    if (a.destination != b.destination) return a.destination < b.destination;
    return a.month < b.month;
  });
  if (rows.size() > 100) rows.resize(100);
  return rows;
}

std::vector<Bi24Row> RunBi24(const Graph& graph, const Bi24Params& params) {
  std::vector<bool> class_tags =
      internal::TagsOfClassSlow(graph, params.tag_class, false);

  std::unordered_map<uint32_t, int64_t> like_counts;
  internal::ForEachLike(
      graph, [&](uint32_t, uint32_t msg, core::DateTime) { ++like_counts[msg]; });

  struct Agg {
    int64_t messages = 0, likes = 0;
  };
  std::map<std::tuple<int32_t, int32_t, std::string>, Agg> groups;
  graph.ForEachMessage([&](uint32_t msg) {
    bool match = false;
    for (uint32_t t : internal::MessageTagsSlow(graph, msg)) {
      if (class_tags[t]) match = true;
    }
    if (!match) return;
    uint32_t country = graph.MessageCountry(msg);
    core::Id continent_id = graph.PlaceAt(country).part_of;
    std::string continent =
        continent_id == core::kNoId
            ? std::string()
            : graph.PlaceAt(graph.PlaceIdx(continent_id)).name;
    core::DateTime created = graph.MessageCreationDate(msg);
    Agg& agg =
        groups[{core::Year(created), core::Month(created), continent}];
    ++agg.messages;
    auto it = like_counts.find(msg);
    if (it != like_counts.end()) agg.likes += it->second;
  });

  std::vector<Bi24Row> rows;
  for (const auto& [key, agg] : groups) {
    rows.push_back({agg.messages, agg.likes, std::get<0>(key),
                    std::get<1>(key), std::get<2>(key)});
    if (rows.size() == 100) break;
  }
  return rows;
}

std::vector<Bi25Row> RunBi25(const Graph& graph, const Bi25Params& params) {
  std::vector<Bi25Row> rows;
  uint32_t p1 = graph.PersonIdx(params.person1_id);
  uint32_t p2 = graph.PersonIdx(params.person2_id);
  if (p1 == kNoIdx || p2 == kNoIdx) return rows;
  const core::DateTime start = core::DateTimeFromDate(params.start_date);
  const core::DateTime end =
      core::DateTimeFromDate(params.end_date) + core::kMillisPerDay;

  // Edge list + layered BFS + DFS path enumeration, all without adjacency.
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  internal::ForEachKnowsEdge(graph, [&](uint32_t a, uint32_t b) {
    edges.emplace_back(a, b);
  });
  std::vector<int32_t> dist(graph.NumPersons(), -1);
  dist[p1] = 0;
  for (int32_t depth = 1;; ++depth) {
    bool changed = false;
    for (const auto& [a, b] : edges) {
      if (dist[a] == depth - 1 && dist[b] < 0) {
        dist[b] = depth;
        changed = true;
      }
      if (dist[b] == depth - 1 && dist[a] < 0) {
        dist[a] = depth;
        changed = true;
      }
    }
    if (!changed || dist[p2] >= 0) break;
  }
  if (dist[p2] < 0) {
    if (p1 == p2) {
      // Single trivial path.
    } else {
      return rows;
    }
  }

  // Enumerate paths backwards from p2.
  std::vector<std::vector<uint32_t>> paths;
  std::vector<uint32_t> current{p2};
  auto predecessors = [&](uint32_t node) {
    std::vector<uint32_t> preds;
    for (const auto& [a, b] : edges) {
      if (a == node && dist[b] == dist[node] - 1) preds.push_back(b);
      if (b == node && dist[a] == dist[node] - 1) preds.push_back(a);
    }
    std::sort(preds.begin(), preds.end());
    return preds;
  };
  std::function<void(uint32_t)> dfs = [&](uint32_t node) {
    if (node == p1) {
      std::vector<uint32_t> path(current.rbegin(), current.rend());
      paths.push_back(std::move(path));
      return;
    }
    for (uint32_t pred : predecessors(node)) {
      current.push_back(pred);
      dfs(pred);
      current.pop_back();
    }
  };
  if (p1 == p2) {
    paths.push_back({p1});
  } else {
    dfs(p2);
  }

  auto forum_in_window = [&](uint32_t msg) {
    uint32_t post = Graph::IsPost(msg)
                        ? Graph::AsPost(msg)
                        : internal::RootPostSlow(graph, Graph::AsComment(msg));
    core::DateTime created = graph.ForumCreation(graph.PostForum(post));
    return created >= start && created < end;
  };
  auto pair_weight = [&](uint32_t a, uint32_t b) {
    double w = 0;
    for (uint32_t c = 0; c < graph.NumComments(); ++c) {
      uint32_t replier = graph.CommentCreator(c);
      if (replier != a && replier != b) continue;
      uint32_t parent = graph.CommentReplyOf(c);
      uint32_t author = graph.MessageCreator(parent);
      if (!((replier == a && author == b) || (replier == b && author == a))) {
        continue;
      }
      if (!forum_in_window(parent)) continue;
      w += Graph::IsPost(parent) ? 1.0 : 0.5;
    }
    return w;
  };

  for (const std::vector<uint32_t>& path : paths) {
    Bi25Row row;
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

}  // namespace snb::bi::naive
