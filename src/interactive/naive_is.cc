// Naive engine, short reads IS 1–7 (declared in interactive/naive.h):
// record chasing and full scans only, identical outputs to the optimized
// short reads.

#include <algorithm>

#include "bi/naive_common.h"
#include "interactive/naive.h"

namespace snb::interactive::naive {

namespace internal = snb::bi::naive::internal;
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
  std::vector<Is2Row> rows;
  graph.ForEachMessage([&](uint32_t msg) {
    if (graph.MessageCreator(msg) != p) return;
    Is2Row row;
    row.message_id = graph.MessageId(msg);
    row.creation_date = graph.MessageCreationDate(msg);
    row.content = graph.MessageContent(msg);
    uint32_t root = Graph::IsPost(msg)
                        ? Graph::AsPost(msg)
                        : internal::RootPostSlow(graph, Graph::AsComment(msg));
    row.original_post_id = graph.PostId(root);
    const uint32_t author = graph.PostCreator(root);
    row.original_post_author_id = graph.PersonId(author);
    row.original_post_author_first_name = graph.PersonFirstName(author);
    row.original_post_author_last_name = graph.PersonLastName(author);
    rows.push_back(std::move(row));
  });
  std::sort(rows.begin(), rows.end(), [](const Is2Row& a, const Is2Row& b) {
    if (a.creation_date != b.creation_date) {
      return a.creation_date > b.creation_date;
    }
    return a.message_id > b.message_id;
  });
  if (rows.size() > 10) rows.resize(10);
  return rows;
}

std::vector<Is3Row> RunIs3(const Graph& graph, core::Id person_id) {
  uint32_t p = graph.PersonIdx(person_id);
  if (p == kNoIdx) return {};
  std::vector<Is3Row> rows;
  // Full scan of the knows relation (dated).
  for (uint32_t a = 0; a < graph.NumPersons(); ++a) {
    graph.Knows().ForEachDated(a, [&](uint32_t b, core::DateTime when) {
      if (a != p || b == p) return;
      rows.push_back({graph.PersonId(b), std::string(graph.PersonFirstName(b)),
                      std::string(graph.PersonLastName(b)), when});
    });
  }
  std::sort(rows.begin(), rows.end(), [](const Is3Row& a, const Is3Row& b) {
    if (a.friendship_creation_date != b.friendship_creation_date) {
      return a.friendship_creation_date > b.friendship_creation_date;
    }
    return a.person_id < b.person_id;
  });
  return rows;
}

namespace {

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
                      : internal::RootPostSlow(graph, Graph::AsComment(msg));
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

  std::vector<Is7Row> rows;
  for (uint32_t c = 0; c < graph.NumComments(); ++c) {
    if (graph.CommentReplyOf(c) != msg) continue;
    uint32_t author = graph.CommentCreator(c);
    bool knows = false;
    internal::ForEachKnowsEdge(graph, [&](uint32_t a, uint32_t b) {
      if ((a == author && b == original_author) ||
          (b == author && a == original_author)) {
        knows = true;
      }
    });
    rows.push_back(
        {graph.CommentId(c),
         std::string(graph.MessageContent(Graph::MessageOfComment(c))),
         graph.CommentCreation(c), graph.PersonId(author),
         std::string(graph.PersonFirstName(author)),
         std::string(graph.PersonLastName(author)),
         author != original_author && knows});
  }
  std::sort(rows.begin(), rows.end(), [](const Is7Row& a, const Is7Row& b) {
    if (a.creation_date != b.creation_date) {
      return a.creation_date > b.creation_date;
    }
    return a.author_id < b.author_id;
  });
  return rows;
}

}  // namespace snb::interactive::naive
