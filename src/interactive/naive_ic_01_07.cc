// Naive engine, IC 1–7. Reuses the record-chasing helpers of the BI naive
// engine (bi/naive_common.h is header-only and storage-layer only).

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "bi/naive_common.h"
#include "interactive/naive.h"

namespace snb::interactive::naive {

namespace internal = snb::bi::naive::internal;
using internal::kNoIdx;

namespace {

/// BFS over the knows relation by rescanning the full edge list per level.
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

std::vector<Ic1Row> RunIc1(const Graph& graph, const Ic1Params& params) {
  std::vector<Ic1Row> rows;
  uint32_t start = graph.PersonIdx(params.person_id);
  if (start == kNoIdx) return rows;
  std::vector<int32_t> dist = EdgeListBfs(graph, start, 3);
  for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
    if (p == start || dist[p] < 1) continue;
    if (graph.PersonFirstName(p) != params.first_name) continue;
    Ic1Row row;
    row.friend_id = graph.PersonId(p);
    row.last_name = graph.PersonLastName(p);
    row.distance = dist[p];
    row.birthday = graph.PersonBirthday(p);
    row.creation_date = graph.PersonCreation(p);
    row.gender = graph.PersonGender(p);
    row.browser_used = graph.PersonBrowser(p);
    row.location_ip = graph.PersonLocationIp(p);
    row.emails = graph.PersonEmails(p);
    row.languages = graph.PersonSpeaks(p);
    row.city_name = graph.PlaceAt(graph.PersonCity(p)).name;
    for (const core::StudyAt& s : graph.PersonStudyAt(p)) {
      const core::Organisation& org =
          graph.OrganisationAt(graph.OrganisationIdx(s.university));
      row.universities.emplace_back(
          org.name, s.class_year,
          graph.PlaceAt(graph.PlaceIdx(org.place)).name);
    }
    for (const core::WorkAt& w : graph.PersonWorkAt(p)) {
      const core::Organisation& org =
          graph.OrganisationAt(graph.OrganisationIdx(w.company));
      row.companies.emplace_back(
          org.name, w.work_from,
          graph.PlaceAt(graph.PlaceIdx(org.place)).name);
    }
    std::sort(row.universities.begin(), row.universities.end());
    std::sort(row.companies.begin(), row.companies.end());
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const Ic1Row& a, const Ic1Row& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    if (a.last_name != b.last_name) return a.last_name < b.last_name;
    return a.friend_id < b.friend_id;
  });
  if (rows.size() > 20) rows.resize(20);
  return rows;
}

namespace {

std::vector<Ic2Row> MessagesOfCohort(const Graph& graph,
                                     const std::vector<bool>& cohort,
                                     core::Date max_date) {
  const core::DateTime before = core::DateTimeFromDate(max_date);
  std::vector<Ic2Row> rows;
  graph.ForEachMessage([&](uint32_t msg) {
    uint32_t creator = graph.MessageCreator(msg);
    if (!cohort[creator]) return;
    core::DateTime created = graph.MessageCreationDate(msg);
    if (created >= before) return;
    rows.push_back({graph.PersonId(creator),
                    std::string(graph.PersonFirstName(creator)),
                    std::string(graph.PersonLastName(creator)),
                    graph.MessageId(msg),
                    std::string(graph.MessageContent(msg)), created});
  });
  std::sort(rows.begin(), rows.end(), [](const Ic2Row& a, const Ic2Row& b) {
    if (a.creation_date != b.creation_date) {
      return a.creation_date > b.creation_date;
    }
    return a.message_id < b.message_id;
  });
  if (rows.size() > 20) rows.resize(20);
  return rows;
}

}  // namespace

std::vector<Ic2Row> RunIc2(const Graph& graph, const Ic2Params& params) {
  uint32_t start = graph.PersonIdx(params.person_id);
  if (start == kNoIdx) return {};
  std::vector<bool> cohort(graph.NumPersons(), false);
  internal::ForEachKnowsEdge(graph, [&](uint32_t a, uint32_t b) {
    if (a == start) cohort[b] = true;
    if (b == start) cohort[a] = true;
  });
  return MessagesOfCohort(graph, cohort, params.max_date);
}

std::vector<Ic3Row> RunIc3(const Graph& graph, const Ic3Params& params) {
  std::vector<Ic3Row> rows;
  uint32_t start = graph.PersonIdx(params.person_id);
  uint32_t country_x = graph.PlaceByName(params.country_x);
  uint32_t country_y = graph.PlaceByName(params.country_y);
  if (start == kNoIdx || country_x == kNoIdx || country_y == kNoIdx) {
    return rows;
  }
  const core::DateTime window_start =
      core::DateTimeFromDate(params.start_date);
  const core::DateTime window_end =
      window_start + params.duration_days * core::kMillisPerDay;

  std::vector<int32_t> dist = EdgeListBfs(graph, start, 2);
  std::unordered_map<uint32_t, std::pair<int64_t, int64_t>> counts;
  graph.ForEachMessage([&](uint32_t msg) {
    uint32_t creator = graph.MessageCreator(msg);
    if (creator == start || dist[creator] < 1) return;
    uint32_t home = internal::PersonCountrySlow(graph, creator);
    if (home == country_x || home == country_y) return;
    core::DateTime created = graph.MessageCreationDate(msg);
    if (created < window_start || created >= window_end) return;
    uint32_t where = graph.MessageCountry(msg);
    if (where == country_x) ++counts[creator].first;
    if (where == country_y) ++counts[creator].second;
  });
  for (const auto& [p, xy] : counts) {
    if (xy.first > 0 && xy.second > 0) {
      rows.push_back({graph.PersonId(p), std::string(graph.PersonFirstName(p)),
                      std::string(graph.PersonLastName(p)), xy.first,
                      xy.second, xy.first + xy.second});
    }
  }
  std::sort(rows.begin(), rows.end(), [](const Ic3Row& a, const Ic3Row& b) {
    if (a.x_count != b.x_count) return a.x_count > b.x_count;
    return a.person_id < b.person_id;
  });
  if (rows.size() > 20) rows.resize(20);
  return rows;
}

std::vector<Ic4Row> RunIc4(const Graph& graph, const Ic4Params& params) {
  std::vector<Ic4Row> rows;
  uint32_t start = graph.PersonIdx(params.person_id);
  if (start == kNoIdx) return rows;
  const core::DateTime window_start =
      core::DateTimeFromDate(params.start_date);
  const core::DateTime window_end =
      window_start + params.duration_days * core::kMillisPerDay;

  std::vector<bool> friends(graph.NumPersons(), false);
  internal::ForEachKnowsEdge(graph, [&](uint32_t a, uint32_t b) {
    if (a == start) friends[b] = true;
    if (b == start) friends[a] = true;
  });
  std::unordered_map<std::string, int64_t> in_window;
  std::unordered_set<std::string> before_window;
  for (uint32_t post = 0; post < graph.NumPosts(); ++post) {
    if (!friends[graph.PostCreator(post)]) continue;
    const core::DateTime created = graph.PostCreation(post);
    if (created >= window_end) continue;
    bool in = created >= window_start;
    for (uint32_t t :
         internal::MessageTagsSlow(graph, Graph::MessageOfPost(post))) {
      const std::string& name = graph.TagAt(t).name;
      if (in) {
        ++in_window[name];
      } else {
        before_window.insert(name);
      }
    }
  }
  for (const auto& [tag, count] : in_window) {
    if (!before_window.contains(tag)) rows.push_back({tag, count});
  }
  std::sort(rows.begin(), rows.end(), [](const Ic4Row& a, const Ic4Row& b) {
    if (a.post_count != b.post_count) return a.post_count > b.post_count;
    return a.tag_name < b.tag_name;
  });
  if (rows.size() > 10) rows.resize(10);
  return rows;
}

std::vector<Ic5Row> RunIc5(const Graph& graph, const Ic5Params& params) {
  std::vector<Ic5Row> rows;
  uint32_t start = graph.PersonIdx(params.person_id);
  if (start == kNoIdx) return rows;
  const core::DateTime min_date = core::DateTimeFromDate(params.min_date);

  std::vector<int32_t> dist = EdgeListBfs(graph, start, 2);
  std::unordered_map<uint32_t, std::unordered_set<uint32_t>> joiners;
  internal::ForEachMembership(
      graph, [&](uint32_t forum, uint32_t person, core::DateTime join) {
        if (person != start && dist[person] >= 1 && join > min_date) {
          joiners[forum].insert(person);
        }
      });
  for (const auto& [forum, members] : joiners) {
    int64_t post_count = 0;
    for (uint32_t post = 0; post < graph.NumPosts(); ++post) {
      if (graph.PostForum(post) != forum) continue;
      if (members.contains(graph.PostCreator(post))) {
        ++post_count;
      }
    }
    rows.push_back(
        {std::string(graph.ForumTitle(forum)), graph.ForumId(forum),
         post_count});
  }
  std::sort(rows.begin(), rows.end(), [](const Ic5Row& a, const Ic5Row& b) {
    if (a.post_count != b.post_count) return a.post_count > b.post_count;
    return a.forum_id < b.forum_id;
  });
  if (rows.size() > 20) rows.resize(20);
  return rows;
}

std::vector<Ic6Row> RunIc6(const Graph& graph, const Ic6Params& params) {
  std::vector<Ic6Row> rows;
  uint32_t start = graph.PersonIdx(params.person_id);
  uint32_t tag = graph.TagByName(params.tag_name);
  if (start == kNoIdx || tag == kNoIdx) return rows;
  std::vector<int32_t> dist = EdgeListBfs(graph, start, 2);

  std::unordered_map<std::string, int64_t> counts;
  for (uint32_t post = 0; post < graph.NumPosts(); ++post) {
    uint32_t creator = graph.PostCreator(post);
    if (creator == start || dist[creator] < 1) continue;
    const std::vector<uint32_t> tags =
        internal::MessageTagsSlow(graph, Graph::MessageOfPost(post));
    if (std::find(tags.begin(), tags.end(), tag) == tags.end()) continue;
    for (uint32_t other : tags) {
      if (other != tag) ++counts[graph.TagAt(other).name];
    }
  }
  for (const auto& [name, count] : counts) rows.push_back({name, count});
  std::sort(rows.begin(), rows.end(), [](const Ic6Row& a, const Ic6Row& b) {
    if (a.post_count != b.post_count) return a.post_count > b.post_count;
    return a.tag_name < b.tag_name;
  });
  if (rows.size() > 10) rows.resize(10);
  return rows;
}

std::vector<Ic7Row> RunIc7(const Graph& graph, const Ic7Params& params) {
  std::vector<Ic7Row> rows;
  uint32_t start = graph.PersonIdx(params.person_id);
  if (start == kNoIdx) return rows;

  struct Best {
    core::DateTime like_date = -1;
    uint32_t msg = 0;
    core::Id message_id = 0;
    core::DateTime message_date = 0;
  };
  std::unordered_map<uint32_t, Best> best_like;
  internal::ForEachLike(
      graph, [&](uint32_t liker, uint32_t msg, core::DateTime when) {
        if (graph.MessageCreator(msg) != start) return;
        core::Id id = graph.MessageId(msg);
        Best& b = best_like[liker];
        if (when > b.like_date ||
            (when == b.like_date && id < b.message_id)) {
          b = {when, msg, id, graph.MessageCreationDate(msg)};
        }
      });

  std::vector<bool> friends(graph.NumPersons(), false);
  internal::ForEachKnowsEdge(graph, [&](uint32_t a, uint32_t b) {
    if (a == start) friends[b] = true;
    if (b == start) friends[a] = true;
  });
  for (const auto& [liker, b] : best_like) {
    rows.push_back({graph.PersonId(liker),
                    std::string(graph.PersonFirstName(liker)),
                    std::string(graph.PersonLastName(liker)), b.like_date,
                    b.message_id, std::string(graph.MessageContent(b.msg)),
                    core::MinutesBetween(b.message_date, b.like_date),
                    !friends[liker]});
  }
  std::sort(rows.begin(), rows.end(), [](const Ic7Row& a, const Ic7Row& b) {
    if (a.like_creation_date != b.like_creation_date) {
      return a.like_creation_date > b.like_creation_date;
    }
    return a.person_id < b.person_id;
  });
  if (rows.size() > 20) rows.resize(20);
  return rows;
}

}  // namespace snb::interactive::naive
