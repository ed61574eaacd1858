#include <algorithm>
#include <vector>

#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"
#include "engine/top_k.h"

namespace snb::bi {

namespace {

using internal::ClassPostings;

// One posts-only walk per class: a post counts toward a class when any of
// its tags is of that (direct) class, i.e. when it sits on one of the
// class's posting lists; each walk claims a post once. Equal classes share
// the first walk, so the second walks no tags.
struct WalkTags {
  std::vector<uint32_t> class1;
  std::vector<uint32_t> class2;
};

WalkTags TagsOfWalks(const Graph& graph, const Bi9Params& params) {
  WalkTags tags;
  tags.class1 =
      internal::ClassTagList(graph, params.tag_class1, /*transitive=*/false);
  if (params.tag_class2 != params.tag_class1) {
    tags.class2 =
        internal::ClassTagList(graph, params.tag_class2, /*transitive=*/false);
  }
  return tags;
}

}  // namespace

size_t Bi9Work(const Graph& graph, const Bi9Params& params) {
  const WalkTags tags = TagsOfWalks(graph, params);
  return ClassPostings::Length(graph, tags.class1,
                               ClassPostings::Messages::kPostsOnly) +
         ClassPostings::Length(graph, tags.class2,
                               ClassPostings::Messages::kPostsOnly);
}

std::vector<Bi9Row> RunBi9(const Graph& graph, const Bi9Params& params,
                           util::ThreadPool* pool) {
  PollCancel();
  const bool same_class = params.tag_class2 == params.tag_class1;
  const WalkTags tags = TagsOfWalks(graph, params);
  ClassPostings posts1(graph, tags.class1,
                       ClassPostings::Messages::kPostsOnly);
  ClassPostings posts2(graph, tags.class2,
                       ClassPostings::Messages::kPostsOnly);

  struct Counts {
    int64_t count1 = 0;
    int64_t count2 = 0;
  };
  using ForumCounts = std::vector<Counts>;  // by forum index
  const size_t n1 = posts1.size();
  const ForumCounts by_forum = internal::Aggregate(
      pool, n1 + posts2.size(),
      [&] { return ForumCounts(graph.NumForums()); },
      [&](ForumCounts& local, size_t begin, size_t end) {
        PollCancel();
        if (begin < n1) {
          posts1.ForEach(begin, std::min(end, n1), [&](uint32_t post) {
            ++local[graph.PostForum(post)].count1;
          });
        }
        if (end > n1) {
          posts2.ForEach(begin > n1 ? begin - n1 : 0, end - n1,
                         [&](uint32_t post) {
                           ++local[graph.PostForum(post)].count2;
                         });
        }
      },
      [](ForumCounts& into, const ForumCounts& from) {
        for (size_t forum = 0; forum < into.size(); ++forum) {
          into[forum].count1 += from[forum].count1;
          into[forum].count2 += from[forum].count2;
        }
      },
      kPostingMorselSize);

  // Member threshold over live memberships of live forums, checked only for
  // the forums that hold a class-tagged post.
  const bool tombstoned = graph.HasTombstones();
  auto live_members = [&](uint32_t forum) {
    if (!tombstoned) {
      return static_cast<int64_t>(graph.ForumMembers().Degree(forum));
    }
    int64_t members = 0;
    graph.ForumMembers().ForEach(forum, [&](uint32_t person) {
      if (graph.MembershipAlive(person, forum)) ++members;
    });
    return members;
  };
  std::vector<Bi9Row> rows;
  for (uint32_t forum = 0; forum < by_forum.size(); ++forum) {
    const Counts& counts = by_forum[forum];
    const int64_t count2 = same_class ? counts.count1 : counts.count2;
    if (counts.count1 == 0 && count2 == 0) continue;
    if (!graph.ForumAlive(forum) || live_members(forum) <= params.threshold) {
      continue;
    }
    rows.push_back({graph.ForumId(forum), counts.count1, count2});
  }
  engine::SortAndLimit(
      rows,
      [](const Bi9Row& a, const Bi9Row& b) {
        if (a.count1 != b.count1) return a.count1 > b.count1;
        if (a.count2 != b.count2) return a.count2 > b.count2;
        return a.forum_id < b.forum_id;
      },
      100);
  return rows;
}

}  // namespace snb::bi
