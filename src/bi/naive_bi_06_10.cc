// Naive engine, BI 6–10.

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "bi/naive.h"
#include "bi/naive_common.h"

namespace snb::bi::naive {

using internal::kNoIdx;

namespace {

/// True when the message carries the given tag.
bool MessageHasTag(const Graph& graph, uint32_t msg, uint32_t tag) {
  for (uint32_t t : internal::MessageTagsSlow(graph, msg)) {
    if (t == tag) return true;
  }
  return false;
}

/// Likes received per message, from one scan of the likes relation.
std::unordered_map<uint32_t, int64_t> LikeCounts(const Graph& graph) {
  std::unordered_map<uint32_t, int64_t> counts;
  internal::ForEachLike(
      graph, [&](uint32_t, uint32_t msg, core::DateTime) { ++counts[msg]; });
  return counts;
}

}  // namespace

std::vector<Bi6Row> RunBi6(const Graph& graph, const Bi6Params& params) {
  std::vector<Bi6Row> rows;
  uint32_t tag = graph.TagByName(params.tag);
  if (tag == kNoIdx) return rows;
  std::unordered_map<uint32_t, int64_t> like_counts = LikeCounts(graph);

  // Direct reply counts per message from one comment scan.
  std::unordered_map<uint32_t, int64_t> reply_counts;
  for (uint32_t c = 0; c < graph.NumComments(); ++c) {
    ++reply_counts[graph.CommentReplyOf(c)];
  }

  struct Agg {
    int64_t messages = 0, replies = 0, likes = 0;
  };
  std::unordered_map<uint32_t, Agg> by_person;
  graph.ForEachMessage([&](uint32_t msg) {
    if (!MessageHasTag(graph, msg, tag)) return;
    uint32_t creator = graph.MessageCreator(msg);
    Agg& a = by_person[creator];
    ++a.messages;
    auto lk = like_counts.find(msg);
    if (lk != like_counts.end()) a.likes += lk->second;
    auto rp = reply_counts.find(msg);
    if (rp != reply_counts.end()) a.replies += rp->second;
  });

  for (const auto& [person, a] : by_person) {
    rows.push_back({graph.PersonId(person), a.replies, a.likes, a.messages,
                    a.messages + 2 * a.replies + 10 * a.likes});
  }
  std::sort(rows.begin(), rows.end(), [](const Bi6Row& a, const Bi6Row& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.person_id < b.person_id;
  });
  if (rows.size() > 100) rows.resize(100);
  return rows;
}

std::vector<Bi7Row> RunBi7(const Graph& graph, const Bi7Params& params) {
  std::vector<Bi7Row> rows;
  uint32_t tag = graph.TagByName(params.tag);
  if (tag == kNoIdx) return rows;

  // popularity(q) = likes received by q across all messages; one like scan.
  std::unordered_map<uint32_t, int64_t> popularity;
  internal::ForEachLike(graph, [&](uint32_t, uint32_t msg, core::DateTime) {
    ++popularity[graph.MessageCreator(msg)];
  });

  // Every author of a tag-carrying message appears, even with no likers
  // (zero authority) — OPTIONAL MATCH semantics.
  std::unordered_map<uint32_t, std::unordered_set<uint32_t>> likers_of_author;
  graph.ForEachMessage([&](uint32_t msg) {
    if (MessageHasTag(graph, msg, tag)) {
      likers_of_author[graph.MessageCreator(msg)];
    }
  });
  internal::ForEachLike(graph,
                        [&](uint32_t liker, uint32_t msg, core::DateTime) {
    if (!MessageHasTag(graph, msg, tag)) return;
    likers_of_author[graph.MessageCreator(msg)].insert(liker);
  });

  for (const auto& [author, likers] : likers_of_author) {
    int64_t score = 0;
    for (uint32_t q : likers) {
      auto it = popularity.find(q);
      if (it != popularity.end()) score += it->second;
    }
    rows.push_back({graph.PersonId(author), score});
  }
  std::sort(rows.begin(), rows.end(), [](const Bi7Row& a, const Bi7Row& b) {
    if (a.authority_score != b.authority_score) {
      return a.authority_score > b.authority_score;
    }
    return a.person_id < b.person_id;
  });
  if (rows.size() > 100) rows.resize(100);
  return rows;
}

std::vector<Bi8Row> RunBi8(const Graph& graph, const Bi8Params& params) {
  std::vector<Bi8Row> rows;
  uint32_t tag = graph.TagByName(params.tag);
  if (tag == kNoIdx) return rows;

  std::unordered_map<std::string, int64_t> counts;
  for (uint32_t c = 0; c < graph.NumComments(); ++c) {
    const uint32_t parent = graph.CommentReplyOf(c);
    if (!Graph::IsPost(parent)) continue;
    if (!MessageHasTag(graph, parent, tag)) continue;
    for (uint32_t t :
         internal::MessageTagsSlow(graph, Graph::MessageOfComment(c))) {
      if (t != tag) ++counts[graph.TagAt(t).name];
    }
  }
  for (const auto& [name, count] : counts) rows.push_back({name, count});
  std::sort(rows.begin(), rows.end(), [](const Bi8Row& a, const Bi8Row& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.related_tag < b.related_tag;
  });
  if (rows.size() > 100) rows.resize(100);
  return rows;
}

std::vector<Bi9Row> RunBi9(const Graph& graph, const Bi9Params& params) {
  std::vector<bool> class1 =
      internal::TagsOfClassSlow(graph, params.tag_class1, false);
  std::vector<bool> class2 =
      internal::TagsOfClassSlow(graph, params.tag_class2, false);

  std::vector<int64_t> member_count(graph.NumForums(), 0);
  internal::ForEachMembership(graph,
                              [&](uint32_t forum, uint32_t, core::DateTime) {
                                ++member_count[forum];
                              });

  std::vector<int64_t> count1(graph.NumForums(), 0),
      count2(graph.NumForums(), 0);
  for (uint32_t post = 0; post < graph.NumPosts(); ++post) {
    bool in1 = false, in2 = false;
    for (uint32_t tag :
         internal::MessageTagsSlow(graph, Graph::MessageOfPost(post))) {
      if (class1[tag]) in1 = true;
      if (class2[tag]) in2 = true;
    }
    const uint32_t forum = graph.PostForum(post);
    if (in1) ++count1[forum];
    if (in2) ++count2[forum];
  }

  std::vector<Bi9Row> rows;
  for (uint32_t forum = 0; forum < graph.NumForums(); ++forum) {
    if (member_count[forum] <= params.threshold) continue;
    if (count1[forum] == 0 && count2[forum] == 0) continue;
    rows.push_back({graph.ForumId(forum), count1[forum], count2[forum]});
  }
  std::sort(rows.begin(), rows.end(), [](const Bi9Row& a, const Bi9Row& b) {
    if (a.count1 != b.count1) return a.count1 > b.count1;
    if (a.count2 != b.count2) return a.count2 > b.count2;
    return a.forum_id < b.forum_id;
  });
  if (rows.size() > 100) rows.resize(100);
  return rows;
}

std::vector<Bi10Row> RunBi10(const Graph& graph, const Bi10Params& params) {
  std::vector<Bi10Row> rows;
  uint32_t tag = graph.TagByName(params.tag);
  if (tag == kNoIdx) return rows;
  const core::DateTime after = core::DateTimeFromDate(params.date);

  std::unordered_map<uint32_t, int64_t> score;
  for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
    graph.PersonInterests().ForEach(p, [&](uint32_t t) {
      if (t == tag) score[p] += 100;
    });
  }
  graph.ForEachMessage([&](uint32_t msg) {
    if (graph.MessageCreationDate(msg) <= after) return;
    if (!MessageHasTag(graph, msg, tag)) return;
    ++score[graph.MessageCreator(msg)];
  });

  std::unordered_map<uint32_t, int64_t> friends_score;
  internal::ForEachKnowsEdge(graph, [&](uint32_t a, uint32_t b) {
    auto sa = score.find(a);
    auto sb = score.find(b);
    if (sb != score.end()) friends_score[a] += sb->second;
    if (sa != score.end()) friends_score[b] += sa->second;
  });

  std::unordered_set<uint32_t> emitted;
  auto emit = [&](uint32_t person) {
    if (!emitted.insert(person).second) return;
    auto s = score.find(person);
    auto fs = friends_score.find(person);
    rows.push_back({graph.PersonId(person),
                    s == score.end() ? 0 : s->second,
                    fs == friends_score.end() ? 0 : fs->second});
  };
  for (const auto& [p, s] : score) emit(p);
  for (const auto& [p, fs] : friends_score) emit(p);

  std::sort(rows.begin(), rows.end(), [](const Bi10Row& a, const Bi10Row& b) {
    int64_t ta = a.score + a.friends_score;
    int64_t tb = b.score + b.friends_score;
    if (ta != tb) return ta > tb;
    return a.person_id < b.person_id;
  });
  if (rows.size() > 100) rows.resize(100);
  return rows;
}

}  // namespace snb::bi::naive
