#include <string>
#include <vector>

#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"
#include "engine/top_k.h"

namespace snb::bi {

namespace {

using internal::ClassPostings;

// Each class's walk: the posting lists, posts and comments, of its tags and
// of its descendant classes' tags.
constexpr ClassPostings::Messages kMessages =
    ClassPostings::Messages::kPostsAndComments;

std::vector<uint32_t> WalkTags(const Graph& graph,
                               const std::string& class_name) {
  return internal::ClassTagList(graph, class_name, /*transitive=*/true);
}

}  // namespace

size_t Bi20Work(const Graph& graph, const Bi20Params& params) {
  size_t work = 0;
  for (const std::string& class_name : params.tag_classes) {
    work += ClassPostings::Length(graph, WalkTags(graph, class_name),
                                  kMessages);
  }
  return work;
}

std::vector<Bi20Row> RunBi20(const Graph& graph, const Bi20Params& params,
                             util::ThreadPool* pool) {
  PollCancel();
  std::vector<Bi20Row> rows;
  rows.reserve(params.tag_classes.size());
  for (const std::string& class_name : params.tag_classes) {
    if (graph.TagClassByName(class_name) == storage::kNoIdx) continue;
    // One walk per class; the outer UNWIND stays sequential, so a
    // single-class parameter list still partitions across the pool.
    ClassPostings postings(graph, WalkTags(graph, class_name), kMessages);
    const int64_t count = internal::Aggregate(
        pool, postings.size(), [] { return int64_t{0}; },
        [&](int64_t& local, size_t begin, size_t end) {
          PollCancel();
          // Distinct messages, not tag occurrences: each is visited once.
          postings.ForEach(begin, end, [&](uint32_t) { ++local; });
        },
        [](int64_t& into, int64_t from) { into += from; },
        kPostingMorselSize);
    rows.push_back({class_name, count});
  }
  engine::SortAndLimit(
      rows,
      [](const Bi20Row& a, const Bi20Row& b) {
        if (a.message_count != b.message_count) {
          return a.message_count > b.message_count;
        }
        return a.tag_class < b.tag_class;
      },
      100);
  return rows;
}

}  // namespace snb::bi
