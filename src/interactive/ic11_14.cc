// Interactive complex reads IC 11–14.

#include <algorithm>
#include <set>
#include <unordered_map>

#include "engine/bfs.h"
#include "engine/top_k.h"
#include "interactive/ic_common.h"
#include "interactive/interactive.h"

namespace snb::interactive {

using internal::kNoIdx;

std::vector<Ic11Row> RunIc11(const Graph& graph, const Ic11Params& params) {
  std::vector<Ic11Row> rows;
  uint32_t start = graph.PersonIdx(params.person_id);
  uint32_t country = graph.PlaceByName(params.country_name);
  if (start == kNoIdx || country == kNoIdx) return rows;

  for (uint32_t p : internal::FriendsAndFoafs(graph, start)) {
    for (const core::WorkAt& w : graph.PersonWorkAt(p)) {
      if (w.work_from >= params.work_from_year) continue;
      uint32_t org = graph.OrganisationIdx(w.company);
      if (graph.PlaceIdx(graph.OrganisationAt(org).place) != country) {
        continue;
      }
      rows.push_back({graph.PersonId(p), std::string(graph.PersonFirstName(p)),
                      std::string(graph.PersonLastName(p)),
                      graph.OrganisationAt(org).name, w.work_from});
    }
  }
  engine::SortAndLimit(
      rows,
      [](const Ic11Row& a, const Ic11Row& b) {
        if (a.work_from != b.work_from) return a.work_from < b.work_from;
        if (a.person_id != b.person_id) return a.person_id < b.person_id;
        return a.company_name > b.company_name;  // descending per the card
      },
      10);
  return rows;
}

std::vector<Ic12Row> RunIc12(const Graph& graph, const Ic12Params& params) {
  std::vector<Ic12Row> rows;
  uint32_t start = graph.PersonIdx(params.person_id);
  uint32_t root_class = graph.TagClassByName(params.tag_class_name);
  if (start == kNoIdx || root_class == kNoIdx) return rows;

  // Tag bitmap of the class and its descendants.
  std::vector<bool> class_tags(graph.NumTags(), false);
  std::vector<uint32_t> classes{root_class};
  for (size_t i = 0; i < classes.size(); ++i) {
    graph.TagClassChildren().ForEach(
        classes[i], [&](uint32_t child) { classes.push_back(child); });
  }
  for (uint32_t tc : classes) {
    graph.TagClassTags().ForEach(tc,
                                 [&](uint32_t t) { class_tags[t] = true; });
  }

  struct Agg {
    int64_t replies = 0;
    std::set<std::string> tags;
  };
  std::unordered_map<uint32_t, Agg> by_friend;
  graph.Knows().ForEach(start, [&](uint32_t fr) {
    graph.PersonComments().ForEach(fr, [&](uint32_t comment) {
      uint32_t parent = graph.CommentReplyOf(comment);
      if (!Graph::IsPost(parent)) return;  // direct replies to posts only
      bool qualifies = false;
      std::vector<std::string> matched;
      graph.PostTags().ForEach(Graph::AsPost(parent), [&](uint32_t tag) {
        if (class_tags[tag]) {
          qualifies = true;
          matched.push_back(graph.TagAt(tag).name);
        }
      });
      if (!qualifies) return;
      Agg& agg = by_friend[fr];
      ++agg.replies;
      for (std::string& name : matched) agg.tags.insert(std::move(name));
    });
  });

  rows.reserve(by_friend.size());
  for (const auto& [fr, agg] : by_friend) {
    rows.push_back({graph.PersonId(fr), std::string(graph.PersonFirstName(fr)),
                    std::string(graph.PersonLastName(fr)),
                    {agg.tags.begin(), agg.tags.end()}, agg.replies});
  }
  engine::SortAndLimit(
      rows,
      [](const Ic12Row& a, const Ic12Row& b) {
        if (a.reply_count != b.reply_count) {
          return a.reply_count > b.reply_count;
        }
        return a.person_id < b.person_id;
      },
      20);
  return rows;
}

Ic13Row RunIc13(const Graph& graph, const Ic13Params& params) {
  uint32_t p1 = graph.PersonIdx(params.person1_id);
  uint32_t p2 = graph.PersonIdx(params.person2_id);
  if (p1 == kNoIdx || p2 == kNoIdx) return {-1};
  return {engine::ShortestPathLength(graph.Knows(), p1, p2)};
}

std::vector<Ic14Row> RunIc14(const Graph& graph, const Ic14Params& params) {
  std::vector<Ic14Row> rows;
  uint32_t p1 = graph.PersonIdx(params.person1_id);
  uint32_t p2 = graph.PersonIdx(params.person2_id);
  if (p1 == kNoIdx || p2 == kNoIdx) return rows;

  std::vector<std::vector<uint32_t>> paths =
      engine::AllShortestPaths(graph.Knows(), p1, p2, /*max_paths=*/10000);
  if (paths.empty()) return rows;

  // Pair weight: direct replies to posts 1.0, to comments 0.5, both
  // directions; memoized per unordered pair.
  std::unordered_map<uint64_t, double> memo;
  auto pair_weight = [&](uint32_t a, uint32_t b) {
    uint64_t key = (static_cast<uint64_t>(std::min(a, b)) << 32) |
                   std::max(a, b);
    auto it = memo.find(key);
    if (it != memo.end()) return it->second;
    double w = 0;
    auto scan = [&](uint32_t replier, uint32_t author) {
      graph.PersonComments().ForEach(replier, [&](uint32_t comment) {
        uint32_t parent = graph.CommentReplyOf(comment);
        if (graph.MessageCreator(parent) != author) return;
        w += Graph::IsPost(parent) ? 1.0 : 0.5;
      });
    };
    scan(a, b);
    scan(b, a);
    memo[key] = w;
    return w;
  };

  rows.reserve(paths.size());
  for (const std::vector<uint32_t>& path : paths) {
    Ic14Row row;
    for (uint32_t p : path) {
      row.person_ids_in_path.push_back(graph.PersonId(p));
    }
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      row.path_weight += pair_weight(path[i], path[i + 1]);
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const Ic14Row& a, const Ic14Row& b) {
    if (a.path_weight != b.path_weight) return a.path_weight > b.path_weight;
    return a.person_ids_in_path < b.person_ids_in_path;
  });
  return rows;
}

}  // namespace snb::interactive
