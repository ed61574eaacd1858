#include "storage/export.h"

namespace snb::storage {

namespace {

/// The attributes posts and comments share, read through the message ref.
template <typename Row>
Row ExportMessage(const Graph& graph, uint32_t msg) {
  Row r;
  r.id = graph.MessageId(msg);
  r.creation_date = graph.MessageCreationDate(msg);
  r.location_ip = graph.MessageLocationIp(msg);
  r.browser_used = graph.Dict().Decode(graph.MessageBrowserCode(msg));
  r.length = graph.MessageLength(msg);
  r.creator = graph.PersonId(graph.MessageCreator(msg));
  const uint32_t country = graph.MessageCountry(msg);
  r.country = country == kNoIdx ? core::kNoId : graph.PlaceAt(country).id;
  graph.ForEachMessageTag(
      msg, [&](uint32_t tag) { r.tags.push_back(graph.TagAt(tag).id); });
  return r;
}

}  // namespace

core::Post ExportPost(const Graph& graph, uint32_t i) {
  core::Post p = ExportMessage<core::Post>(graph, Graph::MessageOfPost(i));
  p.image_file = graph.PostImageFile(i);
  p.language = graph.Dict().Decode(graph.PostLanguageCode(i));
  p.content = graph.PostContent(i);
  p.forum = graph.ForumId(graph.PostForum(i));
  return p;
}

core::Person ExportPerson(const Graph& graph, uint32_t i) {
  core::Person p;
  p.id = graph.PersonId(i);
  p.first_name = graph.PersonFirstName(i);
  p.last_name = graph.PersonLastName(i);
  p.gender = graph.PersonGender(i);
  p.birthday = graph.PersonBirthday(i);
  p.creation_date = graph.PersonCreation(i);
  p.location_ip = graph.PersonLocationIp(i);
  p.browser_used = graph.PersonBrowser(i);
  p.city = graph.PlaceAt(graph.PersonCity(i)).id;
  p.emails = graph.PersonEmails(i);
  p.speaks = graph.PersonSpeaks(i);
  graph.PersonInterests().ForEach(
      i, [&](uint32_t tag) { p.interests.push_back(graph.TagAt(tag).id); });
  const auto study_at = graph.PersonStudyAt(i);
  p.study_at.assign(study_at.begin(), study_at.end());
  const auto work_at = graph.PersonWorkAt(i);
  p.work_at.assign(work_at.begin(), work_at.end());
  return p;
}

core::Forum ExportForum(const Graph& graph, uint32_t i) {
  core::Forum f;
  f.id = graph.ForumId(i);
  f.title = graph.ForumTitle(i);
  f.creation_date = graph.ForumCreation(i);
  f.moderator = graph.PersonId(graph.ForumModerator(i));
  graph.ForumTags().ForEach(
      i, [&](uint32_t tag) { f.tags.push_back(graph.TagAt(tag).id); });
  f.kind = graph.ForumKind(i);
  return f;
}

core::Comment ExportComment(const Graph& graph, uint32_t i) {
  const uint32_t msg = Graph::MessageOfComment(i);
  core::Comment c = ExportMessage<core::Comment>(graph, msg);
  c.content = graph.MessageContent(msg);
  const uint32_t parent = graph.CommentReplyOf(i);
  (Graph::IsPost(parent) ? c.reply_of_post : c.reply_of_comment) =
      graph.MessageId(parent);
  return c;
}

core::SocialNetwork ExportNetwork(const Graph& graph) {
  core::SocialNetwork net;

  // Appends row(i) for each i in [0, n) that keep(i) admits.
  auto rows = [](auto& out, size_t n, auto keep, auto row) {
    out.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      if (keep(i)) out.push_back(row(i));
    }
  };
  const Graph& g = graph;
  auto all = [](uint32_t) { return true; };

  // Static entities are stored as records; persons, forums, posts and
  // comments are rebuilt from their columns.
  rows(net.places, g.NumPlaces(), all,
       [&](uint32_t i) { return g.PlaceAt(i); });
  rows(net.organisations, g.NumOrganisations(), all,
       [&](uint32_t i) { return g.OrganisationAt(i); });
  rows(net.tag_classes, g.NumTagClasses(), all,
       [&](uint32_t i) { return g.TagClassAt(i); });
  rows(net.tags, g.NumTags(), all, [&](uint32_t i) { return g.TagAt(i); });

  // Dynamic entities: tombstoned rows are dropped, so a graph rebuilt from
  // the export is the compaction oracle that Graph::Compact() (compact.cc)
  // is tested against.
  rows(net.persons, g.NumPersons(),
       [&](uint32_t i) { return g.PersonAlive(i); },
       [&](uint32_t i) { return ExportPerson(g, i); });
  rows(net.forums, g.NumForums(), [&](uint32_t i) { return g.ForumAlive(i); },
       [&](uint32_t i) { return ExportForum(g, i); });
  rows(net.posts, g.NumPosts(), [&](uint32_t i) { return g.PostAlive(i); },
       [&](uint32_t i) { return ExportPost(g, i); });
  rows(net.comments, g.NumComments(),
       [&](uint32_t i) { return g.CommentAlive(i); },
       [&](uint32_t i) { return ExportComment(g, i); });

  // Pure-edge relations are only held in adjacency; rebuild their rows,
  // filtering edges whose endpoints died or that were tombstoned directly.
  for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
    if (!graph.PersonAlive(p)) continue;
    core::Id p_id = graph.PersonId(p);
    graph.Knows().ForEachDated(p, [&](uint32_t q, core::DateTime when) {
      if (q > p && graph.KnowsAlive(p, q)) {  // one row per undirected edge
        net.knows.push_back({p_id, graph.PersonId(q), when});
      }
    });
    graph.PersonLikes().ForEachDated(p, [&](uint32_t msg,
                                            core::DateTime when) {
      if (graph.LikeAlive(p, msg)) {
        net.likes.push_back(
            {p_id, graph.MessageId(msg), Graph::IsPost(msg), when});
      }
    });
  }
  for (uint32_t f = 0; f < graph.NumForums(); ++f) {
    if (!graph.ForumAlive(f)) continue;
    core::Id f_id = graph.ForumId(f);
    graph.ForumMembers().ForEachDated(
        f, [&](uint32_t member, core::DateTime join) {
          if (graph.MembershipAlive(member, f)) {
            net.memberships.push_back({f_id, graph.PersonId(member), join});
          }
        });
  }

  return net;
}

}  // namespace snb::storage
