#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"
#include "engine/top_k.h"

namespace snb::bi {

namespace {

/// Bitmap of persons who are members of any live forum carrying a tag of
/// the given (direct) class, through live memberships only.
std::vector<bool> MembersOfClassForums(const storage::Graph& graph,
                                       const std::string& class_name,
                                       bool tombstones) {
  std::vector<bool> members(graph.NumPersons(), false);
  std::vector<bool> class_tags =
      internal::TagsOfClass(graph, class_name, /*transitive=*/false);
  std::vector<bool> forum_seen(graph.NumForums(), false);
  for (uint32_t tag = 0; tag < graph.NumTags(); ++tag) {
    if (!class_tags[tag]) continue;
    graph.TagForums().ForEach(tag, [&](uint32_t forum) {
      if (forum_seen[forum]) return;
      forum_seen[forum] = true;
      if (tombstones && !graph.ForumAlive(forum)) return;
      graph.ForumMembers().ForEach(forum, [&](uint32_t p) {
        if (!tombstones || graph.MembershipAlive(p, forum)) members[p] = true;
      });
    });
  }
  return members;
}

}  // namespace

std::vector<Bi19Row> RunBi19(const Graph& graph, const Bi19Params& params) {
  // Checked once: a tombstone-free graph runs without liveness filters.
  const bool tombstones = graph.HasTombstones();

  // Strangers: members of a class1-tagged forum AND of a class2-tagged forum.
  std::vector<bool> in1 =
      MembersOfClassForums(graph, params.tag_class1, tombstones);
  std::vector<bool> in2 =
      MembersOfClassForums(graph, params.tag_class2, tombstones);
  const uint32_t num_persons = static_cast<uint32_t>(graph.NumPersons());
  std::vector<bool> stranger(num_persons);
  for (uint32_t p = 0; p < num_persons; ++p) {
    stranger[p] = in1[p] && in2[p];
  }

  // Dense per-person state instead of per-person hash sets (CP-7.3 walk,
  // CP-1.2 group-by). Persons are visited one at a time, so a stamp holding
  // the visiting person's index marks set membership for that person with
  // no clearing between persons:
  //   friend_of[q] == person   — q knows person; filled only once the
  //                              person reaches a stranger ancestor;
  //   counted_for[s] == person — stranger s is already counted for person.
  std::vector<uint32_t> friend_of(num_persons, storage::kNoIdx);
  std::vector<uint32_t> counted_for(num_persons, storage::kNoIdx);

  std::vector<Bi19Row> rows;
  std::vector<uint32_t> parents;  // one person's replied-to messages
  CancelPoller poll;
  for (uint32_t person = 0; person < num_persons; ++person) {
    if (graph.PersonBirthday(person) <= params.date) continue;
    // Gather the direct reply targets first: these loads are independent
    // and overlap, unlike the dependent loads of the chain walks below.
    parents.clear();
    graph.PersonComments().ForEach(person, [&](uint32_t comment) {
      // The ancestors and authors of a live comment are live: deletes
      // cascade down reply trees and from authors to their messages.
      if (tombstones && !graph.CommentAlive(comment)) return;
      parents.push_back(graph.CommentReplyOf(comment));
    });
    bool friends_known = false;
    int64_t strangers = 0;
    int64_t interactions = 0;
    // Walk each transitive replyOf* chain; every ancestor message counts.
    for (uint32_t msg : parents) {
      while (true) {
        poll.Tick();
        const uint32_t author = graph.MessageCreator(msg);
        if (stranger[author] && author != person) {
          if (!friends_known) {
            friends_known = true;
            graph.Knows().ForEach(person, [&](uint32_t f) {
              if (!tombstones || graph.KnowsAlive(person, f)) {
                friend_of[f] = person;
              }
            });
          }
          if (friend_of[author] != person) {
            if (counted_for[author] != person) {
              counted_for[author] = person;
              ++strangers;
            }
            ++interactions;
          }
        }
        if (Graph::IsPost(msg)) break;
        msg = graph.CommentReplyOf(Graph::AsComment(msg));
      }
    }
    if (interactions > 0) {
      rows.push_back({graph.PersonId(person), strangers, interactions});
    }
  }

  engine::SortAndLimit(
      rows,
      [](const Bi19Row& a, const Bi19Row& b) {
        if (a.interaction_count != b.interaction_count) {
          return a.interaction_count > b.interaction_count;
        }
        return a.person_id < b.person_id;
      },
      100);
  return rows;
}

}  // namespace snb::bi
