// Interactive complex reads IC 1–5.

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "engine/top_k.h"
#include "interactive/ic_common.h"
#include "interactive/interactive.h"

namespace snb::interactive {

using internal::kNoIdx;

std::vector<Ic1Row> RunIc1(const Graph& graph, const Ic1Params& params) {
  std::vector<Ic1Row> rows;
  uint32_t start = graph.PersonIdx(params.person_id);
  if (start == kNoIdx) return rows;
  std::vector<int32_t> dist = internal::KnowsDistances(graph, start, 3);

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
    row.city_name = internal::CityName(graph, p);
    for (const core::StudyAt& s : graph.PersonStudyAt(p)) {
      uint32_t org = graph.OrganisationIdx(s.university);
      uint32_t city = graph.PlaceIdx(graph.OrganisationAt(org).place);
      row.universities.emplace_back(graph.OrganisationAt(org).name,
                                    s.class_year, graph.PlaceAt(city).name);
    }
    for (const core::WorkAt& w : graph.PersonWorkAt(p)) {
      uint32_t org = graph.OrganisationIdx(w.company);
      uint32_t country = graph.PlaceIdx(graph.OrganisationAt(org).place);
      row.companies.emplace_back(graph.OrganisationAt(org).name, w.work_from,
                                 graph.PlaceAt(country).name);
    }
    std::sort(row.universities.begin(), row.universities.end());
    std::sort(row.companies.begin(), row.companies.end());
    rows.push_back(std::move(row));
  }
  engine::SortAndLimit(
      rows,
      [](const Ic1Row& a, const Ic1Row& b) {
        if (a.distance != b.distance) return a.distance < b.distance;
        if (a.last_name != b.last_name) return a.last_name < b.last_name;
        return a.friend_id < b.friend_id;
      },
      20);
  return rows;
}

namespace {

/// Shared engine of IC 2 / IC 9: most recent messages of a person cohort.
std::vector<Ic2Row> RecentMessagesOf(const Graph& graph,
                                     const std::vector<uint32_t>& cohort,
                                     core::Date max_date) {
  const core::DateTime before = core::DateTimeFromDate(max_date);
  auto better = [](const Ic2Row& a, const Ic2Row& b) {
    if (a.creation_date != b.creation_date) {
      return a.creation_date > b.creation_date;
    }
    return a.message_id < b.message_id;
  };
  engine::TopK<Ic2Row, decltype(better)> top(20, better);
  for (uint32_t p : cohort) {
    auto handle = [&](uint32_t msg) {
      core::DateTime created = graph.MessageCreationDate(msg);
      if (created >= before) return;
      Ic2Row row;
      row.creation_date = created;
      row.message_id = graph.MessageId(msg);
      if (!top.WouldAccept(row)) return;
      row.person_id = graph.PersonId(p);
      row.first_name = graph.PersonFirstName(p);
      row.last_name = graph.PersonLastName(p);
      row.content = graph.MessageContent(msg);
      top.Add(std::move(row));
    };
    graph.PersonPosts().ForEach(
        p, [&](uint32_t post) { handle(Graph::MessageOfPost(post)); });
    graph.PersonComments().ForEach(p, [&](uint32_t comment) {
      handle(Graph::MessageOfComment(comment));
    });
  }
  return top.Take();
}

}  // namespace

std::vector<Ic2Row> RunIc2(const Graph& graph, const Ic2Params& params) {
  uint32_t start = graph.PersonIdx(params.person_id);
  if (start == kNoIdx) return {};
  std::vector<uint32_t> friends = graph.Knows().Collect(start);
  return RecentMessagesOf(graph, friends, params.max_date);
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

  for (uint32_t p : internal::FriendsAndFoafs(graph, start)) {
    uint32_t home = graph.PersonCountry(p);
    if (home == country_x || home == country_y) continue;  // not foreign
    int64_t x = 0, y = 0;
    auto handle = [&](uint32_t msg) {
      core::DateTime created = graph.MessageCreationDate(msg);
      if (created < window_start || created >= window_end) return;
      uint32_t where = graph.MessageCountry(msg);
      if (where == country_x) ++x;
      if (where == country_y) ++y;
    };
    graph.PersonPosts().ForEach(
        p, [&](uint32_t post) { handle(Graph::MessageOfPost(post)); });
    graph.PersonComments().ForEach(p, [&](uint32_t comment) {
      handle(Graph::MessageOfComment(comment));
    });
    if (x > 0 && y > 0) {
      rows.push_back({graph.PersonId(p), std::string(graph.PersonFirstName(p)),
                      std::string(graph.PersonLastName(p)), x, y, x + y});
    }
  }
  engine::SortAndLimit(
      rows,
      [](const Ic3Row& a, const Ic3Row& b) {
        if (a.x_count != b.x_count) return a.x_count > b.x_count;
        return a.person_id < b.person_id;
      },
      20);
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

  std::unordered_map<uint32_t, int64_t> in_window;
  std::unordered_set<uint32_t> before_window;
  graph.Knows().ForEach(start, [&](uint32_t fr) {
    graph.PersonPosts().ForEach(fr, [&](uint32_t post) {
      core::DateTime created = graph.PostCreation(post);
      if (created >= window_end) return;
      bool in = created >= window_start;
      graph.PostTags().ForEach(post, [&](uint32_t tag) {
        if (in) {
          ++in_window[tag];
        } else {
          before_window.insert(tag);
        }
      });
    });
  });
  for (const auto& [tag, count] : in_window) {
    if (before_window.contains(tag)) continue;
    rows.push_back({graph.TagAt(tag).name, count});
  }
  engine::SortAndLimit(
      rows,
      [](const Ic4Row& a, const Ic4Row& b) {
        if (a.post_count != b.post_count) return a.post_count > b.post_count;
        return a.tag_name < b.tag_name;
      },
      10);
  return rows;
}

std::vector<Ic5Row> RunIc5(const Graph& graph, const Ic5Params& params) {
  std::vector<Ic5Row> rows;
  uint32_t start = graph.PersonIdx(params.person_id);
  if (start == kNoIdx) return rows;
  const core::DateTime min_date = core::DateTimeFromDate(params.min_date);

  std::vector<uint32_t> cohort = internal::FriendsAndFoafs(graph, start);
  std::vector<bool> in_cohort(graph.NumPersons(), false);
  for (uint32_t p : cohort) in_cohort[p] = true;

  // Forum → cohort members who joined after minDate.
  std::unordered_map<uint32_t, std::unordered_set<uint32_t>> joiners;
  for (uint32_t p : cohort) {
    graph.PersonForums().ForEachDated(
        p, [&](uint32_t forum, core::DateTime join) {
          if (join > min_date) joiners[forum].insert(p);
        });
  }
  for (const auto& [forum, members] : joiners) {
    int64_t post_count = 0;
    graph.ForumPosts().ForEach(forum, [&](uint32_t post) {
      if (members.contains(graph.PostCreator(post))) ++post_count;
    });
    rows.push_back(
        {std::string(graph.ForumTitle(forum)), graph.ForumId(forum),
         post_count});
  }
  engine::SortAndLimit(
      rows,
      [](const Ic5Row& a, const Ic5Row& b) {
        if (a.post_count != b.post_count) return a.post_count > b.post_count;
        return a.forum_id < b.forum_id;
      },
      20);
  return rows;
}

}  // namespace snb::interactive
