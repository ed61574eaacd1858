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
  const core::Person& rec = graph.PersonAt(p);
  return {{rec.first_name, rec.last_name, rec.birthday, rec.location_ip,
           rec.browser_used, graph.PlaceAt(graph.PlaceIdx(rec.city)).id,
           rec.gender, rec.creation_date}};
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
    const core::Person& author = graph.PersonAt(graph.PostCreator(root));
    row.original_post_author_id = author.id;
    row.original_post_author_first_name = author.first_name;
    row.original_post_author_last_name = author.last_name;
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
      const core::Person& rec = graph.PersonAt(b);
      rows.push_back({rec.id, rec.first_name, rec.last_name, when});
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
  const core::Person& rec = graph.PersonAt(graph.MessageCreator(msg));
  return {{rec.id, rec.first_name, rec.last_name}};
}

std::vector<Is6Row> RunIs6(const Graph& graph, core::Id message_id,
                           bool is_post) {
  uint32_t msg = ResolveMessage(graph, message_id, is_post);
  if (msg == kNoIdx) return {};
  uint32_t root = Graph::IsPost(msg)
                      ? Graph::AsPost(msg)
                      : internal::RootPostSlow(graph, Graph::AsComment(msg));
  const core::Forum& f = graph.ForumAt(graph.PostForum(root));
  const core::Person& mod = graph.PersonAt(graph.PersonIdx(f.moderator));
  return {{f.id, f.title, mod.id, mod.first_name, mod.last_name}};
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
    const core::Person& rec = graph.PersonAt(author);
    rows.push_back(
        {graph.CommentId(c),
         std::string(graph.MessageContent(Graph::MessageOfComment(c))),
         graph.CommentCreation(c), rec.id, rec.first_name, rec.last_name,
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
