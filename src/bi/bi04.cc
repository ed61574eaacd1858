#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"
#include "engine/top_k.h"

namespace snb::bi {

std::vector<Bi4Row> RunBi4(const Graph& graph, const Bi4Params& params) {
  using internal::CountryIdx;
  using internal::TagsOfClass;
  const uint32_t country = CountryIdx(graph, params.country);
  const std::vector<bool> class_tags =
      TagsOfClass(graph, params.tag_class, /*transitive=*/false);
  std::vector<Bi4Row> rows;
  if (country == storage::kNoIdx) return rows;

  CancelPoller poll;
  graph.CountryPersons().ForEach(country, [&](uint32_t moderator) {
    graph.PersonModerates().ForEach(moderator, [&](uint32_t forum) {
      int64_t post_count = 0;
      graph.ForumPosts().ForEach(forum, [&](uint32_t post) {
        poll.Tick();
        bool has_class_tag = false;
        graph.PostTags().ForEach(post, [&](uint32_t tag) {
          if (class_tags[tag]) has_class_tag = true;
        });
        if (has_class_tag) ++post_count;
      });
      if (post_count == 0) return;
      rows.push_back({graph.ForumId(forum),
                      std::string(graph.ForumTitle(forum)),
                      graph.ForumCreation(forum), graph.PersonId(moderator),
                      post_count});
    });
  });

  engine::SortAndLimit(
      rows,
      [](const Bi4Row& a, const Bi4Row& b) {
        if (a.post_count != b.post_count) return a.post_count > b.post_count;
        return a.forum_id < b.forum_id;
      },
      20);
  return rows;
}

}  // namespace snb::bi
