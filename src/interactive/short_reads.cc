// Interactive short reads IS 1–7 (spec §4.2).

#include <algorithm>
#include <unordered_set>

#include "engine/top_k.h"
#include "interactive/ic_common.h"
#include "interactive/interactive.h"

namespace snb::interactive {

using internal::kNoIdx;

std::vector<Is1Row> RunIs1(const Graph& graph, core::Id person_id) {
  uint32_t p = graph.PersonIdx(person_id);
  if (p == kNoIdx) return {};
  return {{std::string(graph.PersonFirstName(p)),
           std::string(graph.PersonLastName(p)), graph.PersonBirthday(p),
           std::string(graph.PersonLocationIp(p)),
           graph.PersonBrowser(p), graph.PlaceAt(graph.PersonCity(p)).id,
           graph.PersonGender(p), graph.PersonCreation(p)}};
}

std::vector<Is2Row> RunIs2(const Graph& graph, core::Id person_id) {
  uint32_t p = graph.PersonIdx(person_id);
  if (p == kNoIdx) return {};

  auto better = [](const Is2Row& a, const Is2Row& b) {
    if (a.creation_date != b.creation_date) {
      return a.creation_date > b.creation_date;
    }
    return a.message_id > b.message_id;  // id descending per the card
  };
  engine::TopK<Is2Row, decltype(better)> top(10, better);
  auto handle = [&](uint32_t msg) {
    Is2Row row;
    row.message_id = graph.MessageId(msg);
    row.creation_date = graph.MessageCreationDate(msg);
    if (!top.WouldAccept(row)) return;
    row.content = graph.MessageContent(msg);
    uint32_t root = Graph::IsPost(msg)
                        ? Graph::AsPost(msg)
                        : graph.CommentRootPost(Graph::AsComment(msg));
    row.original_post_id = graph.PostId(root);
    const uint32_t author = graph.PostCreator(root);
    row.original_post_author_id = graph.PersonId(author);
    row.original_post_author_first_name = graph.PersonFirstName(author);
    row.original_post_author_last_name = graph.PersonLastName(author);
    top.Add(std::move(row));
  };
  graph.PersonPosts().ForEach(
      p, [&](uint32_t post) { handle(Graph::MessageOfPost(post)); });
  graph.PersonComments().ForEach(p, [&](uint32_t comment) {
    handle(Graph::MessageOfComment(comment));
  });
  return top.Take();
}

std::vector<Is3Row> RunIs3(const Graph& graph, core::Id person_id) {
  uint32_t p = graph.PersonIdx(person_id);
  if (p == kNoIdx) return {};
  std::vector<Is3Row> rows;
  graph.Knows().ForEachDated(p, [&](uint32_t f, core::DateTime when) {
    rows.push_back({graph.PersonId(f), std::string(graph.PersonFirstName(f)),
                    std::string(graph.PersonLastName(f)), when});
  });
  std::sort(rows.begin(), rows.end(), [](const Is3Row& a, const Is3Row& b) {
    if (a.friendship_creation_date != b.friendship_creation_date) {
      return a.friendship_creation_date > b.friendship_creation_date;
    }
    return a.person_id < b.person_id;
  });
  return rows;
}

namespace {

/// Resolves an external message id of a known type to a message reference.
uint32_t ResolveMessage(const Graph& graph, core::Id message_id,
                        bool is_post) {
  if (is_post) {
    uint32_t post = graph.PostIdx(message_id);
    return post == kNoIdx ? kNoIdx : Graph::MessageOfPost(post);
  }
  uint32_t comment = graph.CommentIdx(message_id);
  return comment == kNoIdx ? kNoIdx : Graph::MessageOfComment(comment);
}

}  // namespace

std::vector<Is4Row> RunIs4(const Graph& graph, core::Id message_id,
                           bool is_post) {
  uint32_t msg = ResolveMessage(graph, message_id, is_post);
  if (msg == kNoIdx) return {};
  return {{graph.MessageCreationDate(msg),
           std::string(graph.MessageContent(msg))}};
}

std::vector<Is5Row> RunIs5(const Graph& graph, core::Id message_id,
                           bool is_post) {
  uint32_t msg = ResolveMessage(graph, message_id, is_post);
  if (msg == kNoIdx) return {};
  const uint32_t creator = graph.MessageCreator(msg);
  return {{graph.PersonId(creator), std::string(graph.PersonFirstName(creator)),
           std::string(graph.PersonLastName(creator))}};
}

std::vector<Is6Row> RunIs6(const Graph& graph, core::Id message_id,
                           bool is_post) {
  uint32_t msg = ResolveMessage(graph, message_id, is_post);
  if (msg == kNoIdx) return {};
  uint32_t root = Graph::IsPost(msg)
                      ? Graph::AsPost(msg)
                      : graph.CommentRootPost(Graph::AsComment(msg));
  const uint32_t forum = graph.PostForum(root);
  const uint32_t mod = graph.ForumModerator(forum);
  return {{graph.ForumId(forum), std::string(graph.ForumTitle(forum)),
           graph.PersonId(mod),
           std::string(graph.PersonFirstName(mod)),
           std::string(graph.PersonLastName(mod))}};
}

std::vector<Is7Row> RunIs7(const Graph& graph, core::Id message_id,
                           bool is_post) {
  uint32_t msg = ResolveMessage(graph, message_id, is_post);
  if (msg == kNoIdx) return {};
  uint32_t original_author = graph.MessageCreator(msg);
  std::unordered_set<uint32_t> author_friends;
  graph.Knows().ForEach(original_author,
                        [&](uint32_t f) { author_friends.insert(f); });

  std::vector<Is7Row> rows;
  auto handle_reply = [&](uint32_t comment) {
    uint32_t author = graph.CommentCreator(comment);
    rows.push_back(
        {graph.CommentId(comment),
         std::string(graph.MessageContent(Graph::MessageOfComment(comment))),
         graph.CommentCreation(comment), graph.PersonId(author),
         std::string(graph.PersonFirstName(author)),
         std::string(graph.PersonLastName(author)),
         author != original_author && author_friends.contains(author)});
  };
  if (Graph::IsPost(msg)) {
    graph.PostReplies().ForEach(Graph::AsPost(msg), handle_reply);
  } else {
    graph.CommentReplies().ForEach(Graph::AsComment(msg), handle_reply);
  }
  std::sort(rows.begin(), rows.end(), [](const Is7Row& a, const Is7Row& b) {
    if (a.creation_date != b.creation_date) {
      return a.creation_date > b.creation_date;
    }
    return a.author_id < b.author_id;
  });
  return rows;
}

}  // namespace snb::interactive
