#include <unordered_map>
#include <unordered_set>

#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"
#include "engine/top_k.h"

namespace snb::bi {

std::vector<Bi5Row> RunBi5(const Graph& graph, const Bi5Params& params) {
  using internal::CountryIdx;
  std::vector<Bi5Row> rows;
  const uint32_t country = CountryIdx(graph, params.country);
  if (country == storage::kNoIdx) return rows;

  // Forum popularity: members living in the country.
  CancelPoller poll;
  std::unordered_map<uint32_t, int64_t> popularity;
  graph.CountryPersons().ForEach(country, [&](uint32_t person) {
    graph.PersonForums().ForEach(person, [&](uint32_t forum) {
      poll.Tick();
      ++popularity[forum];
    });
  });

  struct ForumPop {
    uint32_t forum;
    core::Id forum_id;
    int64_t members;
  };
  auto forum_better = [](const ForumPop& a, const ForumPop& b) {
    if (a.members != b.members) return a.members > b.members;
    return a.forum_id < b.forum_id;
  };
  engine::TopK<ForumPop, decltype(forum_better)> top_forums(100, forum_better);
  for (const auto& [forum, members] : popularity) {
    top_forums.Add({forum, graph.ForumId(forum), members});
  }
  std::vector<ForumPop> forums = top_forums.Take();

  // Members of the top forums and their post counts inside those forums.
  std::unordered_set<uint32_t> members;
  for (const ForumPop& f : forums) {
    graph.ForumMembers().ForEach(f.forum,
                                 [&](uint32_t p) { members.insert(p); });
  }
  std::unordered_map<uint32_t, int64_t> post_count;
  for (uint32_t p : members) post_count[p] = 0;
  for (const ForumPop& f : forums) {
    graph.ForumPosts().ForEach(f.forum, [&](uint32_t post) {
      poll.Tick();
      uint32_t creator = graph.PostCreator(post);
      auto it = post_count.find(creator);
      if (it != post_count.end()) ++it->second;
    });
  }

  rows.reserve(post_count.size());
  for (const auto& [person, count] : post_count) {
    rows.push_back({graph.PersonId(person),
                    std::string(graph.PersonFirstName(person)),
                    std::string(graph.PersonLastName(person)),
                    graph.PersonCreation(person), count});
  }
  engine::SortAndLimit(
      rows,
      [](const Bi5Row& a, const Bi5Row& b) {
        if (a.post_count != b.post_count) return a.post_count > b.post_count;
        return a.person_id < b.person_id;
      },
      100);
  return rows;
}

}  // namespace snb::bi
