// Naive engine, IC 8–14.

#include <algorithm>
#include <functional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "bi/naive_common.h"
#include "interactive/naive.h"

namespace snb::interactive::naive {

namespace internal = snb::bi::naive::internal;
using internal::kNoIdx;

namespace {

std::vector<int32_t> EdgeListBfs(const Graph& graph, uint32_t src,
                                 int32_t max_depth) {
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  internal::ForEachKnowsEdge(graph, [&](uint32_t a, uint32_t b) {
    edges.emplace_back(a, b);
  });
  std::vector<int32_t> dist(graph.NumPersons(), -1);
  dist[src] = 0;
  for (int32_t depth = 1; max_depth < 0 || depth <= max_depth; ++depth) {
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
    if (!changed) break;
  }
  return dist;
}

}  // namespace

std::vector<Ic8Row> RunIc8(const Graph& graph, const Ic8Params& params) {
  std::vector<Ic8Row> rows;
  uint32_t start = graph.PersonIdx(params.person_id);
  if (start == kNoIdx) return rows;
  for (uint32_t c = 0; c < graph.NumComments(); ++c) {
    uint32_t parent = graph.CommentReplyOf(c);
    if (graph.MessageCreator(parent) != start) continue;
    const uint32_t author = graph.CommentCreator(c);
    rows.push_back(
        {graph.PersonId(author), std::string(graph.PersonFirstName(author)),
         std::string(graph.PersonLastName(author)), graph.CommentCreation(c),
         graph.CommentId(c),
         std::string(graph.MessageContent(Graph::MessageOfComment(c)))});
  }
  std::sort(rows.begin(), rows.end(), [](const Ic8Row& a, const Ic8Row& b) {
    if (a.creation_date != b.creation_date) {
      return a.creation_date > b.creation_date;
    }
    return a.comment_id < b.comment_id;
  });
  if (rows.size() > 20) rows.resize(20);
  return rows;
}

std::vector<Ic9Row> RunIc9(const Graph& graph, const Ic9Params& params) {
  uint32_t start = graph.PersonIdx(params.person_id);
  if (start == kNoIdx) return {};
  std::vector<int32_t> dist = EdgeListBfs(graph, start, 2);
  const core::DateTime before = core::DateTimeFromDate(params.max_date);
  std::vector<Ic9Row> rows;
  graph.ForEachMessage([&](uint32_t msg) {
    uint32_t creator = graph.MessageCreator(msg);
    if (creator == start || dist[creator] < 1) return;
    core::DateTime created = graph.MessageCreationDate(msg);
    if (created >= before) return;
    rows.push_back({graph.PersonId(creator),
                    std::string(graph.PersonFirstName(creator)),
                    std::string(graph.PersonLastName(creator)),
                    graph.MessageId(msg),
                    std::string(graph.MessageContent(msg)), created});
  });
  std::sort(rows.begin(), rows.end(), [](const Ic9Row& a, const Ic9Row& b) {
    if (a.creation_date != b.creation_date) {
      return a.creation_date > b.creation_date;
    }
    return a.message_id < b.message_id;
  });
  if (rows.size() > 20) rows.resize(20);
  return rows;
}

std::vector<Ic10Row> RunIc10(const Graph& graph, const Ic10Params& params) {
  std::vector<Ic10Row> rows;
  uint32_t start = graph.PersonIdx(params.person_id);
  if (start == kNoIdx) return rows;
  std::vector<int32_t> dist = EdgeListBfs(graph, start, 2);

  int32_t next_month = params.month == 12 ? 1 : params.month + 1;
  std::set<core::Id> interests;
  graph.PersonInterests().ForEach(
      start, [&](uint32_t t) { interests.insert(graph.TagAt(t).id); });

  // Post statistics per candidate from one post scan.
  std::unordered_map<uint32_t, std::pair<int64_t, int64_t>> common_uncommon;
  for (uint32_t post = 0; post < graph.NumPosts(); ++post) {
    uint32_t creator = graph.PostCreator(post);
    if (dist[creator] != 2) continue;
    bool common = false;
    for (uint32_t t :
         internal::MessageTagsSlow(graph, Graph::MessageOfPost(post))) {
      if (interests.contains(graph.TagAt(t).id)) common = true;
    }
    if (common) {
      ++common_uncommon[creator].first;
    } else {
      ++common_uncommon[creator].second;
    }
  }

  for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
    if (dist[p] != 2) continue;
    core::CivilDate b = core::CivilFromDate(graph.PersonBirthday(p));
    bool in_window = (b.month == params.month && b.day >= 21) ||
                     (b.month == next_month && b.day < 22);
    if (!in_window) continue;
    auto it = common_uncommon.find(p);
    int64_t score =
        it == common_uncommon.end() ? 0 : it->second.first - it->second.second;
    rows.push_back(
        {graph.PersonId(p), std::string(graph.PersonFirstName(p)),
         std::string(graph.PersonLastName(p)), score, graph.PersonGender(p),
         graph.PlaceAt(graph.PersonCity(p)).name});
  }
  std::sort(rows.begin(), rows.end(), [](const Ic10Row& a, const Ic10Row& b) {
    if (a.common_interest_score != b.common_interest_score) {
      return a.common_interest_score > b.common_interest_score;
    }
    return a.person_id < b.person_id;
  });
  if (rows.size() > 10) rows.resize(10);
  return rows;
}

std::vector<Ic11Row> RunIc11(const Graph& graph, const Ic11Params& params) {
  std::vector<Ic11Row> rows;
  uint32_t start = graph.PersonIdx(params.person_id);
  uint32_t country = graph.PlaceByName(params.country_name);
  if (start == kNoIdx || country == kNoIdx) return rows;
  std::vector<int32_t> dist = EdgeListBfs(graph, start, 2);
  for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
    if (p == start || dist[p] < 1) continue;
    for (const core::WorkAt& w : graph.PersonWorkAt(p)) {
      if (w.work_from >= params.work_from_year) continue;
      const core::Organisation& org =
          graph.OrganisationAt(graph.OrganisationIdx(w.company));
      if (graph.PlaceIdx(org.place) != country) continue;
      rows.push_back(
          {graph.PersonId(p), std::string(graph.PersonFirstName(p)),
           std::string(graph.PersonLastName(p)), org.name, w.work_from});
    }
  }
  std::sort(rows.begin(), rows.end(), [](const Ic11Row& a, const Ic11Row& b) {
    if (a.work_from != b.work_from) return a.work_from < b.work_from;
    if (a.person_id != b.person_id) return a.person_id < b.person_id;
    return a.company_name > b.company_name;
  });
  if (rows.size() > 10) rows.resize(10);
  return rows;
}

std::vector<Ic12Row> RunIc12(const Graph& graph, const Ic12Params& params) {
  std::vector<Ic12Row> rows;
  uint32_t start = graph.PersonIdx(params.person_id);
  if (start == kNoIdx) return rows;
  bool class_exists = false;
  for (uint32_t tc = 0; tc < graph.NumTagClasses(); ++tc) {
    if (graph.TagClassAt(tc).name == params.tag_class_name) {
      class_exists = true;
    }
  }
  if (!class_exists) return rows;
  std::vector<bool> class_tags =
      internal::TagsOfClassSlow(graph, params.tag_class_name, true);

  std::vector<bool> friends(graph.NumPersons(), false);
  internal::ForEachKnowsEdge(graph, [&](uint32_t a, uint32_t b) {
    if (a == start) friends[b] = true;
    if (b == start) friends[a] = true;
  });

  struct Agg {
    int64_t replies = 0;
    std::set<std::string> tags;
  };
  std::unordered_map<uint32_t, Agg> by_friend;
  for (uint32_t c = 0; c < graph.NumComments(); ++c) {
    const uint32_t parent = graph.CommentReplyOf(c);
    if (!Graph::IsPost(parent)) continue;
    uint32_t author = graph.CommentCreator(c);
    if (!friends[author]) continue;
    bool qualifies = false;
    std::vector<std::string> matched;
    for (uint32_t tag : internal::MessageTagsSlow(graph, parent)) {
      if (class_tags[tag]) {
        qualifies = true;
        matched.push_back(graph.TagAt(tag).name);
      }
    }
    if (!qualifies) continue;
    Agg& agg = by_friend[author];
    ++agg.replies;
    for (std::string& name : matched) agg.tags.insert(std::move(name));
  }
  for (const auto& [fr, agg] : by_friend) {
    rows.push_back({graph.PersonId(fr), std::string(graph.PersonFirstName(fr)),
                    std::string(graph.PersonLastName(fr)),
                    {agg.tags.begin(), agg.tags.end()}, agg.replies});
  }
  std::sort(rows.begin(), rows.end(), [](const Ic12Row& a, const Ic12Row& b) {
    if (a.reply_count != b.reply_count) return a.reply_count > b.reply_count;
    return a.person_id < b.person_id;
  });
  if (rows.size() > 20) rows.resize(20);
  return rows;
}

Ic13Row RunIc13(const Graph& graph, const Ic13Params& params) {
  uint32_t p1 = graph.PersonIdx(params.person1_id);
  uint32_t p2 = graph.PersonIdx(params.person2_id);
  if (p1 == kNoIdx || p2 == kNoIdx) return {-1};
  if (p1 == p2) return {0};
  std::vector<int32_t> dist = EdgeListBfs(graph, p1, -1);
  return {dist[p2]};
}

std::vector<Ic14Row> RunIc14(const Graph& graph, const Ic14Params& params) {
  std::vector<Ic14Row> rows;
  uint32_t p1 = graph.PersonIdx(params.person1_id);
  uint32_t p2 = graph.PersonIdx(params.person2_id);
  if (p1 == kNoIdx || p2 == kNoIdx) return rows;

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
  if (p1 != p2 && dist[p2] < 0) return rows;

  std::vector<std::vector<uint32_t>> paths;
  if (p1 == p2) {
    paths.push_back({p1});
  } else {
    std::vector<uint32_t> current{p2};
    std::function<void(uint32_t)> dfs = [&](uint32_t node) {
      if (node == p1) {
        paths.emplace_back(current.rbegin(), current.rend());
        return;
      }
      std::vector<uint32_t> preds;
      for (const auto& [a, b] : edges) {
        if (a == node && dist[b] == dist[node] - 1) preds.push_back(b);
        if (b == node && dist[a] == dist[node] - 1) preds.push_back(a);
      }
      std::sort(preds.begin(), preds.end());
      preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
      for (uint32_t pred : preds) {
        current.push_back(pred);
        dfs(pred);
        current.pop_back();
      }
    };
    dfs(p2);
  }

  auto pair_weight = [&](uint32_t a, uint32_t b) {
    double w = 0;
    for (uint32_t c = 0; c < graph.NumComments(); ++c) {
      uint32_t replier = graph.CommentCreator(c);
      if (replier != a && replier != b) continue;
      uint32_t parent = graph.CommentReplyOf(c);
      uint32_t author = graph.MessageCreator(parent);
      if ((replier == a && author == b) || (replier == b && author == a)) {
        w += Graph::IsPost(parent) ? 1.0 : 0.5;
      }
    }
    return w;
  };
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

}  // namespace snb::interactive::naive
