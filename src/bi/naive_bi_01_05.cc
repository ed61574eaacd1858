// Naive engine, BI 1–5. See naive.h for the ground rules.

#include <algorithm>
#include <cstdlib>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "bi/naive.h"
#include "bi/naive_common.h"

namespace snb::bi::naive {

using internal::kNoIdx;

std::vector<Bi1Row> RunBi1(const Graph& graph, const Bi1Params& params) {
  const core::DateTime cutoff = core::DateTimeFromDate(params.date);
  struct Group {
    int64_t count = 0;
    int64_t sum = 0;
  };
  std::map<std::tuple<int32_t, bool, int32_t>, Group> groups;
  int64_t total = 0;
  auto category = [](int32_t len) {
    return len < 40 ? 0 : len < 80 ? 1 : len < 160 ? 2 : 3;
  };
  auto add = [&](core::DateTime created, bool is_comment, int32_t length) {
    if (created >= cutoff) return;
    Group& g = groups[{core::Year(created), is_comment, category(length)}];
    ++g.count;
    g.sum += length;
    ++total;
  };
  for (uint32_t i = 0; i < graph.NumPosts(); ++i) {
    add(graph.PostCreation(i), false,
        graph.MessageLength(Graph::MessageOfPost(i)));
  }
  for (uint32_t i = 0; i < graph.NumComments(); ++i) {
    add(graph.CommentCreation(i), true,
        graph.MessageLength(Graph::MessageOfComment(i)));
  }
  std::vector<Bi1Row> rows;
  for (const auto& [key, g] : groups) {
    Bi1Row row;
    row.year = std::get<0>(key);
    row.is_comment = std::get<1>(key);
    row.length_category = std::get<2>(key);
    row.message_count = g.count;
    row.average_message_length =
        static_cast<double>(g.sum) / static_cast<double>(g.count);
    row.sum_message_length = g.sum;
    row.percentage_of_messages =
        total == 0 ? 0.0
                   : static_cast<double>(g.count) / static_cast<double>(total);
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(), [](const Bi1Row& a, const Bi1Row& b) {
    if (a.year != b.year) return a.year > b.year;
    if (a.is_comment != b.is_comment) return !a.is_comment;
    return a.length_category < b.length_category;
  });
  return rows;
}

std::vector<Bi2Row> RunBi2(const Graph& graph, const Bi2Params& params) {
  const core::DateTime start = core::DateTimeFromDate(params.start_date);
  const core::DateTime end =
      core::DateTimeFromDate(params.end_date) + core::kMillisPerDay;
  const core::DateTime sim_end = core::DateTimeFromDate(params.simulation_end);
  uint32_t c1 = graph.PlaceByName(params.country1);
  uint32_t c2 = graph.PlaceByName(params.country2);

  std::map<std::tuple<std::string, int32_t, std::string, int32_t, std::string>,
           int64_t>
      counts;
  auto handle = [&](uint32_t msg) {
    core::DateTime created = graph.MessageCreationDate(msg);
    if (created < start || created >= end) return;
    uint32_t creator = graph.MessageCreator(msg);
    uint32_t country = internal::PersonCountrySlow(graph, creator);
    if (country != c1 && country != c2) return;
    int64_t years =
        (sim_end - core::DateTimeFromDate(graph.PersonBirthday(creator))) /
        (365 * core::kMillisPerDay);
    int32_t age_group = static_cast<int32_t>(years / 5);
    for (uint32_t tag : internal::MessageTagsSlow(graph, msg)) {
      ++counts[{graph.PlaceAt(country).name, core::Month(created),
                graph.PersonGender(creator), age_group,
                graph.TagAt(tag).name}];
    }
  };
  graph.ForEachMessage(handle);

  std::vector<Bi2Row> rows;
  for (const auto& [key, count] : counts) {
    if (count <= params.threshold) continue;
    rows.push_back({std::get<0>(key), std::get<1>(key), std::get<2>(key),
                    std::get<3>(key), std::get<4>(key), count});
  }
  std::sort(rows.begin(), rows.end(), [](const Bi2Row& a, const Bi2Row& b) {
    if (a.message_count != b.message_count) {
      return a.message_count > b.message_count;
    }
    if (a.tag != b.tag) return a.tag < b.tag;
    if (a.gender != b.gender) return a.gender < b.gender;
    if (a.age_group != b.age_group) return a.age_group < b.age_group;
    if (a.month != b.month) return a.month < b.month;
    return a.country < b.country;
  });
  if (rows.size() > 100) rows.resize(100);
  return rows;
}

std::vector<Bi3Row> RunBi3(const Graph& graph, const Bi3Params& params) {
  int32_t y2 = params.year, m2 = params.month + 1;
  if (m2 > 12) {
    m2 = 1;
    ++y2;
  }
  int32_t y3 = y2, m3 = m2 + 1;
  if (m3 > 12) {
    m3 = 1;
    ++y3;
  }
  const core::DateTime t1 =
      core::DateTimeFromCivil(params.year, params.month, 1);
  const core::DateTime t2 = core::DateTimeFromCivil(y2, m2, 1);
  const core::DateTime t3 = core::DateTimeFromCivil(y3, m3, 1);

  std::unordered_map<std::string, std::pair<int64_t, int64_t>> counts;
  graph.ForEachMessage([&](uint32_t msg) {
    core::DateTime created = graph.MessageCreationDate(msg);
    if (created < t1 || created >= t3) return;
    for (uint32_t tag : internal::MessageTagsSlow(graph, msg)) {
      auto& c = counts[graph.TagAt(tag).name];
      if (created < t2) {
        ++c.first;
      } else {
        ++c.second;
      }
    }
  });
  std::vector<Bi3Row> rows;
  for (const auto& [tag, c] : counts) {
    rows.push_back({tag, c.first, c.second, std::llabs(c.first - c.second)});
  }
  std::sort(rows.begin(), rows.end(), [](const Bi3Row& a, const Bi3Row& b) {
    if (a.diff != b.diff) return a.diff > b.diff;
    return a.tag < b.tag;
  });
  if (rows.size() > 100) rows.resize(100);
  return rows;
}

std::vector<Bi4Row> RunBi4(const Graph& graph, const Bi4Params& params) {
  std::vector<bool> class_tags =
      internal::TagsOfClassSlow(graph, params.tag_class, false);
  uint32_t country = graph.PlaceByName(params.country);

  // Posts with a class tag per forum, from one post scan.
  std::unordered_map<uint32_t, int64_t> posts_per_forum;
  for (uint32_t post = 0; post < graph.NumPosts(); ++post) {
    bool match = false;
    for (uint32_t tag :
         internal::MessageTagsSlow(graph, Graph::MessageOfPost(post))) {
      if (class_tags[tag]) match = true;
    }
    if (match) ++posts_per_forum[graph.PostForum(post)];
  }

  std::vector<Bi4Row> rows;
  for (uint32_t forum = 0; forum < graph.NumForums(); ++forum) {
    uint32_t moderator = graph.ForumModerator(forum);
    if (internal::PersonCountrySlow(graph, moderator) != country) continue;
    auto it = posts_per_forum.find(forum);
    if (it == posts_per_forum.end()) continue;
    rows.push_back({graph.ForumId(forum), std::string(graph.ForumTitle(forum)),
                    graph.ForumCreation(forum), graph.PersonId(moderator),
                    it->second});
  }
  std::sort(rows.begin(), rows.end(), [](const Bi4Row& a, const Bi4Row& b) {
    if (a.post_count != b.post_count) return a.post_count > b.post_count;
    return a.forum_id < b.forum_id;
  });
  if (rows.size() > 20) rows.resize(20);
  return rows;
}

std::vector<Bi5Row> RunBi5(const Graph& graph, const Bi5Params& params) {
  uint32_t country = graph.PlaceByName(params.country);
  std::vector<Bi5Row> rows;
  if (country == kNoIdx) return rows;

  std::unordered_map<uint32_t, int64_t> popularity;
  internal::ForEachMembership(
      graph, [&](uint32_t forum, uint32_t person, core::DateTime) {
        if (internal::PersonCountrySlow(graph, person) == country) {
          ++popularity[forum];
        }
      });

  struct ForumPop {
    uint32_t forum;
    core::Id id;
    int64_t members;
  };
  std::vector<ForumPop> pops;
  for (const auto& [forum, members] : popularity) {
    pops.push_back({forum, graph.ForumId(forum), members});
  }
  std::sort(pops.begin(), pops.end(), [](const ForumPop& a, const ForumPop& b) {
    if (a.members != b.members) return a.members > b.members;
    return a.id < b.id;
  });
  if (pops.size() > 100) pops.resize(100);
  std::unordered_set<uint32_t> top_forums;
  for (const ForumPop& f : pops) top_forums.insert(f.forum);

  std::unordered_map<uint32_t, int64_t> post_count;
  internal::ForEachMembership(
      graph, [&](uint32_t forum, uint32_t person, core::DateTime) {
        if (top_forums.contains(forum)) post_count.emplace(person, 0);
      });
  for (uint32_t post = 0; post < graph.NumPosts(); ++post) {
    if (!top_forums.contains(graph.PostForum(post))) continue;
    auto it = post_count.find(graph.PostCreator(post));
    if (it != post_count.end()) ++it->second;
  }

  for (const auto& [person, count] : post_count) {
    rows.push_back({graph.PersonId(person),
                    std::string(graph.PersonFirstName(person)),
                    std::string(graph.PersonLastName(person)),
                    graph.PersonCreation(person), count});
  }
  std::sort(rows.begin(), rows.end(), [](const Bi5Row& a, const Bi5Row& b) {
    if (a.post_count != b.post_count) return a.post_count > b.post_count;
    return a.person_id < b.person_id;
  });
  if (rows.size() > 100) rows.resize(100);
  return rows;
}

}  // namespace snb::bi::naive
