// Naive engine, BI 16–20.

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "bi/naive.h"
#include "bi/naive_common.h"

namespace snb::bi::naive {

using internal::kNoIdx;

namespace {

/// Level-synchronous BFS that rescans the whole knows edge list per level —
/// the no-adjacency-index baseline.
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

std::vector<Bi16Row> RunBi16(const Graph& graph, const Bi16Params& params) {
  std::vector<Bi16Row> rows;
  uint32_t start = graph.PersonIdx(params.person_id);
  uint32_t country = graph.PlaceByName(params.country);
  if (start == kNoIdx || country == kNoIdx) return rows;
  std::vector<bool> class_tags =
      internal::TagsOfClassSlow(graph, params.tag_class, false);

  std::vector<int32_t> dist =
      EdgeListBfs(graph, start, params.max_path_distance);

  std::map<std::pair<core::Id, std::string>, int64_t> counts;
  graph.ForEachMessage([&](uint32_t msg) {
    uint32_t creator = graph.MessageCreator(msg);
    if (creator == start) return;
    if (dist[creator] < 1 || dist[creator] > params.max_path_distance) return;
    if (internal::PersonCountrySlow(graph, creator) != country) return;
    std::vector<uint32_t> tags = internal::MessageTagsSlow(graph, msg);
    bool qualifies = false;
    for (uint32_t t : tags) {
      if (class_tags[t]) qualifies = true;
    }
    if (!qualifies) return;
    for (uint32_t t : tags) {
      ++counts[{graph.PersonId(creator), graph.TagAt(t).name}];
    }
  });
  for (const auto& [key, count] : counts) {
    rows.push_back({key.first, key.second, count});
  }
  std::sort(rows.begin(), rows.end(), [](const Bi16Row& a, const Bi16Row& b) {
    if (a.message_count != b.message_count) {
      return a.message_count > b.message_count;
    }
    if (a.tag != b.tag) return a.tag < b.tag;
    return a.person_id < b.person_id;
  });
  if (rows.size() > 100) rows.resize(100);
  return rows;
}

std::vector<Bi17Row> RunBi17(const Graph& graph, const Bi17Params& params) {
  uint32_t country = graph.PlaceByName(params.country);
  if (country == kNoIdx) return {{0}};

  std::vector<bool> local(graph.NumPersons(), false);
  for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
    local[p] = internal::PersonCountrySlow(graph, p) == country;
  }
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  std::unordered_set<uint64_t> edge_set;
  internal::ForEachKnowsEdge(graph, [&](uint32_t a, uint32_t b) {
    if (local[a] && local[b]) {
      edges.emplace_back(a, b);
      edge_set.insert((static_cast<uint64_t>(a) << 32) | b);
    }
  });
  // For every in-country edge (a < b), scan all in-country persons c > b.
  int64_t triangles = 0;
  std::vector<uint32_t> locals;
  for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
    if (local[p]) locals.push_back(p);
  }
  for (const auto& [a, b] : edges) {
    for (uint32_t c : locals) {
      if (c <= b) continue;
      if (edge_set.contains((static_cast<uint64_t>(a) << 32) | c) &&
          edge_set.contains((static_cast<uint64_t>(b) << 32) | c)) {
        ++triangles;
      }
    }
  }
  return {{triangles}};
}

std::vector<Bi18Row> RunBi18(const Graph& graph, const Bi18Params& params) {
  const core::DateTime after = core::DateTimeFromDate(params.date);
  auto language_ok = [&](uint32_t code) {
    const std::string& lang = graph.Dict().Decode(code);
    return std::find(params.languages.begin(), params.languages.end(),
                     lang) != params.languages.end();
  };

  std::unordered_map<uint32_t, int64_t> message_count;
  for (uint32_t post = 0; post < graph.NumPosts(); ++post) {
    const uint32_t msg = Graph::MessageOfPost(post);
    if (!graph.MessageHasContent(msg) ||
        graph.MessageLength(msg) >= params.length_threshold ||
        graph.PostCreation(post) <= after ||
        !language_ok(graph.PostLanguageCode(post))) {
      continue;
    }
    ++message_count[graph.PostCreator(post)];
  }
  for (uint32_t c = 0; c < graph.NumComments(); ++c) {
    const uint32_t msg = Graph::MessageOfComment(c);
    if (!graph.MessageHasContent(msg) ||
        graph.MessageLength(msg) >= params.length_threshold ||
        graph.CommentCreation(c) <= after) {
      continue;
    }
    uint32_t root = internal::RootPostSlow(graph, c);
    if (!language_ok(graph.PostLanguageCode(root))) continue;
    ++message_count[graph.CommentCreator(c)];
  }

  std::map<int64_t, int64_t> histogram;
  for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
    auto it = message_count.find(p);
    ++histogram[it == message_count.end() ? 0 : it->second];
  }
  std::vector<Bi18Row> rows;
  for (const auto& [messages, persons] : histogram) {
    rows.push_back({messages, persons});
  }
  std::sort(rows.begin(), rows.end(), [](const Bi18Row& a, const Bi18Row& b) {
    if (a.person_count != b.person_count) {
      return a.person_count > b.person_count;
    }
    return a.message_count > b.message_count;
  });
  return rows;
}

std::vector<Bi19Row> RunBi19(const Graph& graph, const Bi19Params& params) {
  std::vector<bool> class1 =
      internal::TagsOfClassSlow(graph, params.tag_class1, false);
  std::vector<bool> class2 =
      internal::TagsOfClassSlow(graph, params.tag_class2, false);

  // Forum → carries tag of class; via the forum → tag edges.
  auto forum_in_class = [&](uint32_t forum, const std::vector<bool>& cls) {
    bool match = false;
    graph.ForumTags().ForEach(forum, [&](uint32_t t) { match |= cls[t]; });
    return match;
  };
  std::vector<bool> in1(graph.NumPersons(), false),
      in2(graph.NumPersons(), false);
  internal::ForEachMembership(
      graph, [&](uint32_t forum, uint32_t person, core::DateTime) {
        if (forum_in_class(forum, class1)) in1[person] = true;
        if (forum_in_class(forum, class2)) in2[person] = true;
      });

  std::unordered_set<uint64_t> knows_set;
  internal::ForEachKnowsEdge(graph, [&](uint32_t a, uint32_t b) {
    knows_set.insert((static_cast<uint64_t>(a) << 32) | b);
    knows_set.insert((static_cast<uint64_t>(b) << 32) | a);
  });

  struct Agg {
    std::unordered_set<uint32_t> strangers;
    int64_t interactions = 0;
  };
  std::unordered_map<uint32_t, Agg> by_person;
  for (uint32_t c = 0; c < graph.NumComments(); ++c) {
    uint32_t person = graph.CommentCreator(c);
    if (graph.PersonBirthday(person) <= params.date) continue;
    uint32_t msg = graph.CommentReplyOf(c);
    while (true) {
      uint32_t author = graph.MessageCreator(msg);
      if (in1[author] && in2[author] && author != person &&
          !knows_set.contains((static_cast<uint64_t>(person) << 32) |
                              author)) {
        Agg& agg = by_person[person];
        agg.strangers.insert(author);
        ++agg.interactions;
      }
      if (Graph::IsPost(msg)) break;
      msg = graph.CommentReplyOf(Graph::AsComment(msg));
    }
  }

  std::vector<Bi19Row> rows;
  for (const auto& [person, agg] : by_person) {
    rows.push_back({graph.PersonId(person),
                    static_cast<int64_t>(agg.strangers.size()),
                    agg.interactions});
  }
  std::sort(rows.begin(), rows.end(), [](const Bi19Row& a, const Bi19Row& b) {
    if (a.interaction_count != b.interaction_count) {
      return a.interaction_count > b.interaction_count;
    }
    return a.person_id < b.person_id;
  });
  if (rows.size() > 100) rows.resize(100);
  return rows;
}

std::vector<Bi20Row> RunBi20(const Graph& graph, const Bi20Params& params) {
  std::vector<Bi20Row> rows;
  for (const std::string& class_name : params.tag_classes) {
    bool exists = false;
    for (uint32_t tc = 0; tc < graph.NumTagClasses(); ++tc) {
      if (graph.TagClassAt(tc).name == class_name) exists = true;
    }
    if (!exists) continue;
    std::vector<bool> tags =
        internal::TagsOfClassSlow(graph, class_name, true);
    int64_t count = 0;
    graph.ForEachMessage([&](uint32_t msg) {
      for (uint32_t t : internal::MessageTagsSlow(graph, msg)) {
        if (tags[t]) {
          ++count;
          return;
        }
      }
    });
    rows.push_back({class_name, count});
  }
  std::sort(rows.begin(), rows.end(), [](const Bi20Row& a, const Bi20Row& b) {
    if (a.message_count != b.message_count) {
      return a.message_count > b.message_count;
    }
    return a.tag_class < b.tag_class;
  });
  if (rows.size() > 100) rows.resize(100);
  return rows;
}

}  // namespace snb::bi::naive
