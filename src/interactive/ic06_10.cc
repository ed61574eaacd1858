// Interactive complex reads IC 6–10.

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "engine/top_k.h"
#include "interactive/ic_common.h"
#include "interactive/interactive.h"

namespace snb::interactive {

using internal::kNoIdx;

std::vector<Ic6Row> RunIc6(const Graph& graph, const Ic6Params& params) {
  std::vector<Ic6Row> rows;
  uint32_t start = graph.PersonIdx(params.person_id);
  uint32_t tag = graph.TagByName(params.tag_name);
  if (start == kNoIdx || tag == kNoIdx) return rows;

  std::vector<int32_t> dist = internal::KnowsDistances(graph, start, 2);
  std::unordered_map<uint32_t, int64_t> counts;
  graph.TagPosts().ForEach(tag, [&](uint32_t post) {
    uint32_t creator = graph.PostCreator(post);
    if (creator == start || dist[creator] < 1) return;
    graph.PostTags().ForEach(post, [&](uint32_t other) {
      if (other != tag) ++counts[other];
    });
  });
  for (const auto& [t, count] : counts) {
    rows.push_back({graph.TagAt(t).name, count});
  }
  engine::SortAndLimit(
      rows,
      [](const Ic6Row& a, const Ic6Row& b) {
        if (a.post_count != b.post_count) return a.post_count > b.post_count;
        return a.tag_name < b.tag_name;
      },
      10);
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
  std::unordered_map<uint32_t, Best> best_like;  // liker → latest like

  auto handle = [&](uint32_t msg) {
    core::Id message_id = graph.MessageId(msg);
    core::DateTime message_date = graph.MessageCreationDate(msg);
    auto visit = [&](uint32_t liker, core::DateTime when) {
      Best& b = best_like[liker];
      if (when > b.like_date ||
          (when == b.like_date && message_id < b.message_id)) {
        b = {when, msg, message_id, message_date};
      }
    };
    if (Graph::IsPost(msg)) {
      graph.PostLikers().ForEachDated(msg, visit);
    } else {
      graph.CommentLikers().ForEachDated(Graph::AsComment(msg), visit);
    }
  };
  graph.PersonPosts().ForEach(
      start, [&](uint32_t post) { handle(Graph::MessageOfPost(post)); });
  graph.PersonComments().ForEach(start, [&](uint32_t comment) {
    handle(Graph::MessageOfComment(comment));
  });

  std::unordered_set<uint32_t> friends;
  graph.Knows().ForEach(start, [&](uint32_t f) { friends.insert(f); });

  rows.reserve(best_like.size());
  for (const auto& [liker, b] : best_like) {
    Ic7Row row;
    row.person_id = graph.PersonId(liker);
    row.first_name = graph.PersonFirstName(liker);
    row.last_name = graph.PersonLastName(liker);
    row.like_creation_date = b.like_date;
    row.message_id = b.message_id;
    row.content = graph.MessageContent(b.msg);
    row.minutes_latency =
        core::MinutesBetween(b.message_date, b.like_date);
    row.is_new = !friends.contains(liker);
    rows.push_back(std::move(row));
  }
  engine::SortAndLimit(
      rows,
      [](const Ic7Row& a, const Ic7Row& b) {
        if (a.like_creation_date != b.like_creation_date) {
          return a.like_creation_date > b.like_creation_date;
        }
        return a.person_id < b.person_id;
      },
      20);
  return rows;
}

std::vector<Ic8Row> RunIc8(const Graph& graph, const Ic8Params& params) {
  uint32_t start = graph.PersonIdx(params.person_id);
  if (start == kNoIdx) return {};

  auto better = [](const Ic8Row& a, const Ic8Row& b) {
    if (a.creation_date != b.creation_date) {
      return a.creation_date > b.creation_date;
    }
    return a.comment_id < b.comment_id;
  };
  engine::TopK<Ic8Row, decltype(better)> top(20, better);
  auto handle_reply = [&](uint32_t comment) {
    Ic8Row row;
    row.creation_date = graph.CommentCreation(comment);
    row.comment_id = graph.CommentId(comment);
    if (!top.WouldAccept(row)) return;
    const uint32_t author = graph.CommentCreator(comment);
    row.person_id = graph.PersonId(author);
    row.first_name = graph.PersonFirstName(author);
    row.last_name = graph.PersonLastName(author);
    row.content = graph.MessageContent(Graph::MessageOfComment(comment));
    top.Add(std::move(row));
  };
  graph.PersonPosts().ForEach(start, [&](uint32_t post) {
    graph.PostReplies().ForEach(post, handle_reply);
  });
  graph.PersonComments().ForEach(start, [&](uint32_t comment) {
    graph.CommentReplies().ForEach(comment, handle_reply);
  });
  return top.Take();
}

std::vector<Ic9Row> RunIc9(const Graph& graph, const Ic9Params& params) {
  uint32_t start = graph.PersonIdx(params.person_id);
  if (start == kNoIdx) return {};
  std::vector<uint32_t> cohort = internal::FriendsAndFoafs(graph, start);

  // Same engine as IC 2 over the two-hop cohort.
  const core::DateTime before = core::DateTimeFromDate(params.max_date);
  auto better = [](const Ic9Row& a, const Ic9Row& b) {
    if (a.creation_date != b.creation_date) {
      return a.creation_date > b.creation_date;
    }
    return a.message_id < b.message_id;
  };
  engine::TopK<Ic9Row, decltype(better)> top(20, better);
  for (uint32_t p : cohort) {
    auto handle = [&](uint32_t msg) {
      core::DateTime created = graph.MessageCreationDate(msg);
      if (created >= before) return;
      Ic9Row row;
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

std::vector<Ic10Row> RunIc10(const Graph& graph, const Ic10Params& params) {
  std::vector<Ic10Row> rows;
  uint32_t start = graph.PersonIdx(params.person_id);
  if (start == kNoIdx) return rows;

  // Birthday window: on/after the 21st of $month, or before the 22nd of the
  // next month (any year).
  int32_t next_month = params.month == 12 ? 1 : params.month + 1;
  auto birthday_matches = [&](core::Date birthday) {
    core::CivilDate c = core::CivilFromDate(birthday);
    return (c.month == params.month && c.day >= 21) ||
           (c.month == next_month && c.day < 22);
  };

  // Start person's interests as a bitmap.
  std::vector<bool> interest(graph.NumTags(), false);
  graph.PersonInterests().ForEach(start,
                                  [&](uint32_t tag) { interest[tag] = true; });

  std::vector<int32_t> dist = internal::KnowsDistances(graph, start, 2);
  for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
    if (dist[p] != 2) continue;  // exactly friends-of-friends
    if (!birthday_matches(graph.PersonBirthday(p))) continue;
    int64_t common = 0, uncommon = 0;
    graph.PersonPosts().ForEach(p, [&](uint32_t post) {
      bool has_common = false;
      graph.PostTags().ForEach(post, [&](uint32_t tag) {
        if (interest[tag]) has_common = true;
      });
      if (has_common) {
        ++common;
      } else {
        ++uncommon;
      }
    });
    rows.push_back({graph.PersonId(p), std::string(graph.PersonFirstName(p)),
                    std::string(graph.PersonLastName(p)), common - uncommon,
                    graph.PersonGender(p), internal::CityName(graph, p)});
  }
  engine::SortAndLimit(
      rows,
      [](const Ic10Row& a, const Ic10Row& b) {
        if (a.common_interest_score != b.common_interest_score) {
          return a.common_interest_score > b.common_interest_score;
        }
        return a.person_id < b.person_id;
      },
      10);
  return rows;
}

}  // namespace snb::interactive
