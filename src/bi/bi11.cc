#include <unordered_map>

#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"
#include "engine/top_k.h"

namespace snb::bi {

std::vector<Bi11Row> RunBi11(const Graph& graph, const Bi11Params& params) {
  using internal::CountryIdx;
  std::vector<Bi11Row> rows;
  const uint32_t country = CountryIdx(graph, params.country);
  if (country == storage::kNoIdx) return rows;

  struct Agg {
    int64_t replies = 0;
    int64_t likes = 0;
  };
  std::unordered_map<uint64_t, Agg> groups;  // (person, tag) packed

  CancelPoller poll;
  graph.CountryPersons().ForEach(country, [&](uint32_t person) {
    graph.PersonComments().ForEach(person, [&](uint32_t comment) {
      poll.Tick();
      uint32_t parent = graph.CommentReplyOf(comment);
      if (!Graph::IsPost(parent)) return;  // direct replies to posts only
      uint32_t post = Graph::AsPost(parent);

      // No tag in common with the parent post.
      bool overlap = false;
      graph.CommentTags().ForEach(comment, [&](uint32_t ct) {
        graph.PostTags().ForEach(post, [&](uint32_t pt) {
          if (ct == pt) overlap = true;
        });
      });
      if (overlap) return;

      // No blacklisted word in the content.
      const auto content =
          graph.MessageContent(Graph::MessageOfComment(comment));
      for (const std::string& word : params.blacklist) {
        if (!word.empty() && content.find(word) != content.npos) return;
      }

      const int64_t likes = graph.LiveCommentLikeCount(comment);
      graph.CommentTags().ForEach(comment, [&](uint32_t tag) {
        Agg& agg = groups[internal::PairKey(person, tag)];
        ++agg.replies;
        agg.likes += likes;
      });
    });
  });

  rows.reserve(groups.size());
  for (const auto& [key, agg] : groups) {
    uint32_t person = static_cast<uint32_t>(key >> 32);
    uint32_t tag = static_cast<uint32_t>(key);
    rows.push_back({graph.PersonId(person), graph.TagAt(tag).name,
                    agg.likes, agg.replies});
  }
  engine::SortAndLimit(
      rows,
      [](const Bi11Row& a, const Bi11Row& b) {
        if (a.like_count != b.like_count) return a.like_count > b.like_count;
        if (a.person_id != b.person_id) return a.person_id < b.person_id;
        return a.tag < b.tag;
      },
      100);
  return rows;
}

}  // namespace snb::bi
