// Helpers for the naive engine: pointer-chasing equivalents of the optimized
// engine's precomputed columns and reverse indexes, over the base columns
// and forward adjacency of persons, forums and messages. Internal.

#ifndef SNB_BI_NAIVE_COMMON_H_
#define SNB_BI_NAIVE_COMMON_H_

#include <string>
#include <vector>

#include "storage/graph.h"

namespace snb::bi::naive::internal {

using storage::Graph;
using storage::kNoIdx;

/// Country place index of a person, chased through the city record.
inline uint32_t PersonCountrySlow(const Graph& graph, uint32_t person) {
  const uint32_t city = graph.PersonCity(person);  // a City (Graph checks)
  return graph.PlaceIdx(graph.PlaceAt(city).part_of);
}

/// Thread-root post of a comment, chased reply-by-reply.
inline uint32_t RootPostSlow(const Graph& graph, uint32_t comment) {
  uint32_t msg = graph.CommentReplyOf(comment);
  while (!Graph::IsPost(msg)) msg = graph.CommentReplyOf(Graph::AsComment(msg));
  return Graph::AsPost(msg);
}

/// Full scan of the undirected knows relation; f(a, b) once per edge, a < b.
template <typename F>
void ForEachKnowsEdge(const Graph& graph, F&& f) {
  for (uint32_t a = 0; a < graph.NumPersons(); ++a) {
    graph.Knows().ForEach(a, [&](uint32_t b) {
      if (a < b) f(a, b);
    });
  }
}

/// Full scan of the likes relation; f(person, message_ref, date).
template <typename F>
void ForEachLike(const Graph& graph, F&& f) {
  for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
    graph.PersonLikes().ForEachDated(
        p, [&](uint32_t msg, core::DateTime date) { f(p, msg, date); });
  }
}

/// Full scan of forum memberships; f(forum, person, join_date).
template <typename F>
void ForEachMembership(const Graph& graph, F&& f) {
  for (uint32_t forum = 0; forum < graph.NumForums(); ++forum) {
    graph.ForumMembers().ForEachDated(
        forum,
        [&](uint32_t person, core::DateTime join) { f(forum, person, join); });
  }
}

/// Tag bitmap of a class, resolved through record scans.
inline std::vector<bool> TagsOfClassSlow(const Graph& graph,
                                         const std::string& class_name,
                                         bool transitive) {
  std::vector<bool> class_mask(graph.NumTagClasses(), false);
  for (uint32_t tc = 0; tc < graph.NumTagClasses(); ++tc) {
    if (graph.TagClassAt(tc).name == class_name) class_mask[tc] = true;
  }
  if (transitive) {
    // Fixed-point over the parent records.
    bool changed = true;
    while (changed) {
      changed = false;
      for (uint32_t tc = 0; tc < graph.NumTagClasses(); ++tc) {
        if (class_mask[tc]) continue;
        core::Id parent = graph.TagClassAt(tc).parent;
        if (parent == core::kNoId) continue;
        if (class_mask[graph.TagClassIdx(parent)]) {
          class_mask[tc] = true;
          changed = true;
        }
      }
    }
  }
  std::vector<bool> tags(graph.NumTags(), false);
  for (uint32_t t = 0; t < graph.NumTags(); ++t) {
    tags[t] = class_mask[graph.TagClassIdx(graph.TagAt(t).tag_class)];
  }
  return tags;
}

/// Tag indices of a message, materialized from its tag adjacency.
inline std::vector<uint32_t> MessageTagsSlow(const Graph& graph,
                                             uint32_t msg) {
  std::vector<uint32_t> out;
  graph.ForEachMessageTag(msg, [&](uint32_t tag) { out.push_back(tag); });
  return out;
}

}  // namespace snb::bi::naive::internal

#endif  // SNB_BI_NAIVE_COMMON_H_
