// Naive engine, BI 11–15.

#include <algorithm>
#include <map>
#include <unordered_map>

#include "bi/naive.h"
#include "bi/naive_common.h"

namespace snb::bi::naive {

using internal::kNoIdx;

std::vector<Bi11Row> RunBi11(const Graph& graph, const Bi11Params& params) {
  uint32_t country = graph.PlaceByName(params.country);
  std::vector<Bi11Row> rows;
  if (country == kNoIdx) return rows;

  std::unordered_map<uint32_t, int64_t> like_counts;
  internal::ForEachLike(graph, [&](uint32_t, uint32_t msg, core::DateTime) {
    if (!Graph::IsPost(msg)) ++like_counts[Graph::AsComment(msg)];
  });

  struct Agg {
    int64_t replies = 0, likes = 0;
  };
  std::map<std::pair<core::Id, std::string>, Agg> groups;
  for (uint32_t c = 0; c < graph.NumComments(); ++c) {
    const uint32_t msg = Graph::MessageOfComment(c);
    const uint32_t parent = graph.CommentReplyOf(c);
    if (!Graph::IsPost(parent)) continue;
    uint32_t person = graph.CommentCreator(c);
    if (internal::PersonCountrySlow(graph, person) != country) continue;
    const std::vector<uint32_t> tags = internal::MessageTagsSlow(graph, msg);
    bool overlap = false;
    for (uint32_t ct : tags) {
      for (uint32_t pt : internal::MessageTagsSlow(graph, parent)) {
        if (ct == pt) overlap = true;
      }
    }
    if (overlap) continue;
    bool blacklisted = false;
    const auto content = graph.MessageContent(msg);
    for (const std::string& word : params.blacklist) {
      if (!word.empty() && content.find(word) != content.npos) {
        blacklisted = true;
      }
    }
    if (blacklisted) continue;
    auto lk = like_counts.find(c);
    int64_t likes = lk == like_counts.end() ? 0 : lk->second;
    for (uint32_t t : tags) {
      Agg& agg = groups[{graph.PersonId(person), graph.TagAt(t).name}];
      ++agg.replies;
      agg.likes += likes;
    }
  }
  for (const auto& [key, agg] : groups) {
    rows.push_back({key.first, key.second, agg.likes, agg.replies});
  }
  std::sort(rows.begin(), rows.end(), [](const Bi11Row& a, const Bi11Row& b) {
    if (a.like_count != b.like_count) return a.like_count > b.like_count;
    if (a.person_id != b.person_id) return a.person_id < b.person_id;
    return a.tag < b.tag;
  });
  if (rows.size() > 100) rows.resize(100);
  return rows;
}

std::vector<Bi12Row> RunBi12(const Graph& graph, const Bi12Params& params) {
  const core::DateTime after =
      core::DateTimeFromDate(params.date) + core::kMillisPerDay;
  std::unordered_map<uint32_t, int64_t> like_counts;
  internal::ForEachLike(
      graph, [&](uint32_t, uint32_t msg, core::DateTime) { ++like_counts[msg]; });

  std::vector<Bi12Row> rows;
  graph.ForEachMessage([&](uint32_t msg) {
    if (graph.MessageCreationDate(msg) < after) return;
    auto it = like_counts.find(msg);
    int64_t likes = it == like_counts.end() ? 0 : it->second;
    if (likes <= params.like_threshold) return;
    const uint32_t creator = graph.MessageCreator(msg);
    rows.push_back({graph.MessageId(msg), graph.MessageCreationDate(msg),
                    std::string(graph.PersonFirstName(creator)),
                    std::string(graph.PersonLastName(creator)), likes});
  });
  // Same total tie-break order as the optimized engines (see bi12.cc).
  std::sort(rows.begin(), rows.end(), [](const Bi12Row& a, const Bi12Row& b) {
    if (a.like_count != b.like_count) return a.like_count > b.like_count;
    if (a.message_id != b.message_id) return a.message_id < b.message_id;
    if (a.creation_date != b.creation_date) {
      return a.creation_date < b.creation_date;
    }
    if (a.creator_last_name != b.creator_last_name) {
      return a.creator_last_name < b.creator_last_name;
    }
    return a.creator_first_name < b.creator_first_name;
  });
  if (rows.size() > 100) rows.resize(100);
  return rows;
}

std::vector<Bi13Row> RunBi13(const Graph& graph, const Bi13Params& params) {
  uint32_t country = graph.PlaceByName(params.country);
  std::vector<Bi13Row> rows;
  if (country == kNoIdx) return rows;

  struct MonthKey {
    int32_t year, month;
    bool operator<(const MonthKey& o) const {
      if (year != o.year) return year > o.year;
      return month < o.month;
    }
  };
  std::map<MonthKey, std::map<std::string, int64_t>> groups;
  graph.ForEachMessage([&](uint32_t msg) {
    if (graph.MessageCountry(msg) != country) return;
    core::DateTime created = graph.MessageCreationDate(msg);
    auto& tags = groups[{core::Year(created), core::Month(created)}];
    for (uint32_t t : internal::MessageTagsSlow(graph, msg)) {
      ++tags[graph.TagAt(t).name];
    }
  });

  for (const auto& [key, tag_counts] : groups) {
    std::vector<std::pair<std::string, int64_t>> ranked(tag_counts.begin(),
                                                        tag_counts.end());
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    if (ranked.size() > 5) ranked.resize(5);
    rows.push_back({key.year, key.month, std::move(ranked)});
    if (rows.size() == 100) break;
  }
  return rows;
}

std::vector<Bi14Row> RunBi14(const Graph& graph, const Bi14Params& params) {
  const core::DateTime begin = core::DateTimeFromDate(params.begin);
  const core::DateTime end =
      core::DateTimeFromDate(params.end) + core::kMillisPerDay;

  struct Agg {
    int64_t threads = 0, messages = 0;
  };
  std::unordered_map<uint32_t, Agg> by_person;
  auto post_in_window = [&](uint32_t post) {
    core::DateTime created = graph.PostCreation(post);
    return created >= begin && created < end;
  };
  for (uint32_t post = 0; post < graph.NumPosts(); ++post) {
    if (!post_in_window(post)) continue;
    Agg& a = by_person[graph.PostCreator(post)];
    ++a.threads;
    ++a.messages;
  }
  for (uint32_t c = 0; c < graph.NumComments(); ++c) {
    core::DateTime created = graph.CommentCreation(c);
    if (created < begin || created >= end) continue;
    uint32_t root = internal::RootPostSlow(graph, c);
    if (!post_in_window(root)) continue;
    ++by_person[graph.PostCreator(root)].messages;
  }

  std::vector<Bi14Row> rows;
  for (const auto& [person, a] : by_person) {
    rows.push_back({graph.PersonId(person),
                    std::string(graph.PersonFirstName(person)),
                    std::string(graph.PersonLastName(person)), a.threads,
                    a.messages});
  }
  std::sort(rows.begin(), rows.end(), [](const Bi14Row& a, const Bi14Row& b) {
    if (a.message_count != b.message_count) {
      return a.message_count > b.message_count;
    }
    return a.person_id < b.person_id;
  });
  if (rows.size() > 100) rows.resize(100);
  return rows;
}

std::vector<Bi15Row> RunBi15(const Graph& graph, const Bi15Params& params) {
  uint32_t country = graph.PlaceByName(params.country);
  std::vector<Bi15Row> rows;
  if (country == kNoIdx) return rows;

  std::vector<bool> local(graph.NumPersons(), false);
  std::vector<uint32_t> locals;
  for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
    if (internal::PersonCountrySlow(graph, p) == country) {
      local[p] = true;
      locals.push_back(p);
    }
  }
  if (locals.empty()) return rows;

  std::unordered_map<uint32_t, int64_t> counts;
  for (uint32_t p : locals) counts[p] = 0;
  internal::ForEachKnowsEdge(graph, [&](uint32_t a, uint32_t b) {
    if (local[a] && local[b]) {
      ++counts[a];
      ++counts[b];
    }
  });
  int64_t total = 0;
  for (uint32_t p : locals) total += counts[p];
  int64_t floor_avg = total / static_cast<int64_t>(locals.size());

  for (uint32_t p : locals) {
    if (counts[p] == floor_avg) {
      rows.push_back({graph.PersonId(p), counts[p]});
    }
  }
  std::sort(rows.begin(), rows.end(), [](const Bi15Row& a, const Bi15Row& b) {
    return a.person_id < b.person_id;
  });
  if (rows.size() > 100) rows.resize(100);
  return rows;
}

}  // namespace snb::bi::naive
