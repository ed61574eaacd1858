#include "bi/bi.h"
#include "bi/common.h"

namespace snb::bi {

namespace internal {

std::vector<ClassPostings::Segment> ClassPostings::Segments(
    const Graph& graph, const std::vector<uint32_t>& tags,
    Messages messages) {
  std::vector<Segment> segments;
  size_t end = 0;
  auto add = [&](uint32_t tag, bool comments, size_t degree) {
    if (degree == 0) return;
    segments.push_back({tag, comments, end, end + degree});
    end += degree;
  };
  for (uint32_t tag : tags) {
    add(tag, /*comments=*/false, graph.TagPosts().Degree(tag));
    if (messages == Messages::kPostsAndComments) {
      add(tag, /*comments=*/true, graph.TagComments().Degree(tag));
    }
  }
  return segments;
}

size_t ClassPostings::Length(const Graph& graph,
                             const std::vector<uint32_t>& tags,
                             Messages messages) {
  const std::vector<Segment> segments = Segments(graph, tags, messages);
  return segments.empty() ? 0 : segments.back().end;
}

ClassPostings::ClassPostings(const Graph& graph,
                             const std::vector<uint32_t>& tags,
                             Messages messages)
    : graph_(graph),
      segments_(Segments(graph, tags, messages)),
      size_(segments_.empty() ? 0 : segments_.back().end),
      seen_(messages == Messages::kPostsOnly ? graph.NumPosts()
                                             : graph.NumMessages()) {}

}  // namespace internal

}  // namespace snb::bi
