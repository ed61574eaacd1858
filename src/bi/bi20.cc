#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"
#include "engine/top_k.h"

namespace snb::bi {

std::vector<Bi20Row> RunBi20(const Graph& graph, const Bi20Params& params,
                             util::ThreadPool* pool) {
  std::vector<Bi20Row> rows;
  rows.reserve(params.tag_classes.size());
  for (const std::string& class_name : params.tag_classes) {
    if (graph.TagClassByName(class_name) == storage::kNoIdx) continue;
    std::vector<bool> tags =
        internal::TagsOfClass(graph, class_name, /*transitive=*/true);
    // One full message scan per class; the outer UNWIND stays sequential,
    // so a single-class parameter list still partitions across the pool.
    const int64_t count = internal::Aggregate(
        pool, graph.NumMessages(), [] { return int64_t{0}; },
        [&](int64_t& local, size_t begin, size_t end) {
          PollCancel();
          graph.ForEachMessage(begin, end, [&](uint32_t msg) {
            bool match = false;
            graph.ForEachMessageTag(msg, [&](uint32_t tag) {
              if (tags[tag]) match = true;
            });
            if (match) ++local;  // distinct messages, not tag occurrences
          });
        },
        [](int64_t& into, int64_t from) { into += from; });
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
