// Graph store tests: adjacency CSR + overflow, index consistency between
// forward and reverse relations, message references, precomputed thread
// roots, the update mutators (incrementally applying the update stream
// must converge to the graph built from the full network; an insert that
// names a missing or deleted entity is a no-op; ids far outside datagen's
// ranges resolve on copies and after compaction; copies share the static
// segment; BI reads see replayed inserts), and Graph::Memory() against the
// allocator's own count.

#include <gtest/gtest.h>

#include <malloc.h>

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "bi/bi.h"
#include "compact_oracle.h"
#include "datagen/datagen.h"
#include "interactive/updates.h"
#include "storage/adjacency.h"
#include "storage/export.h"
#include "storage/graph.h"
#include "storage/test_access.h"
#include "validate/validator.h"

namespace snb::storage {
namespace {

TEST(AdjacencyTest, BuildAndIterate) {
  AdjacencyList adj;
  adj.Build(4, {{0, 1}, {0, 2}, {2, 3}, {0, 3}}, /*with_dates=*/false);
  EXPECT_EQ(adj.num_nodes(), 4u);
  EXPECT_EQ(adj.num_edges(), 4u);
  EXPECT_EQ(adj.Degree(0), 3u);
  EXPECT_EQ(adj.Degree(1), 0u);
  EXPECT_EQ(adj.Degree(2), 1u);
  std::vector<uint32_t> seen;
  adj.ForEach(0, [&](uint32_t t) { seen.push_back(t); });
  EXPECT_EQ(seen, (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_TRUE(adj.Contains(0, 2));
  EXPECT_FALSE(adj.Contains(1, 0));
}

TEST(AdjacencyTest, DatedEdgesCarryPayload) {
  AdjacencyList adj;
  adj.Build(2, {{0, 1, 1234}, {1, 0, 5678}}, /*with_dates=*/true);
  adj.ForEachDated(0, [](uint32_t t, core::DateTime d) {
    EXPECT_EQ(t, 1u);
    EXPECT_EQ(d, 1234);
  });
  adj.ForEachDated(1, [](uint32_t t, core::DateTime d) {
    EXPECT_EQ(t, 0u);
    EXPECT_EQ(d, 5678);
  });
}

TEST(AdjacencyTest, AppendMergesWithBase) {
  AdjacencyList adj;
  adj.Build(3, {{0, 1, 10}}, /*with_dates=*/true);
  adj.Append(0, 2, 20);
  adj.Append(1, 0, 30);
  EXPECT_EQ(adj.Degree(0), 2u);
  EXPECT_EQ(adj.num_edges(), 3u);
  std::vector<std::pair<uint32_t, core::DateTime>> seen;
  adj.ForEachDated(0, [&](uint32_t t, core::DateTime d) {
    seen.emplace_back(t, d);
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<uint32_t, core::DateTime>{1, 10}));
  EXPECT_EQ(seen[1], (std::pair<uint32_t, core::DateTime>{2, 20}));
}

TEST(AdjacencyTest, AddNodesExtendsNodeSpace) {
  AdjacencyList adj;
  adj.Build(2, {{0, 1}}, false);
  adj.AddNodes(2);
  EXPECT_EQ(adj.num_nodes(), 4u);
  EXPECT_EQ(adj.Degree(3), 0u);
  adj.Append(3, 0);
  EXPECT_EQ(adj.Degree(3), 1u);
}

TEST(AdjacencyTest, EmptyBuild) {
  AdjacencyList adj;
  adj.Build(0, {}, false);
  EXPECT_EQ(adj.num_nodes(), 0u);
  adj.AddNodes(1);
  EXPECT_EQ(adj.num_nodes(), 1u);
  EXPECT_EQ(adj.Degree(0), 0u);
}

// ---------------------------------------------------------------------------

datagen::DatagenConfig SmallConfig() {
  datagen::DatagenConfig cfg;
  cfg.num_persons = 250;
  cfg.activity_scale = 0.4;
  return cfg;
}

class GraphFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new datagen::GeneratedData(datagen::Generate(SmallConfig()));
    core::SocialNetwork copy = data_->network;
    graph_ = new Graph(std::move(copy));
  }
  static void TearDownTestSuite() {
    delete graph_;
    delete data_;
  }
  static const Graph& graph() { return *graph_; }
  static const datagen::GeneratedData& data() { return *data_; }

 private:
  static datagen::GeneratedData* data_;
  static Graph* graph_;
};

datagen::GeneratedData* GraphFixture::data_ = nullptr;
Graph* GraphFixture::graph_ = nullptr;

TEST_F(GraphFixture, CountsMatchSource) {
  EXPECT_EQ(graph().NumPersons(), data().network.persons.size());
  EXPECT_EQ(graph().NumPosts(), data().network.posts.size());
  EXPECT_EQ(graph().NumComments(), data().network.comments.size());
  EXPECT_EQ(graph().NumForums(), data().network.forums.size());
  EXPECT_EQ(graph().NumMessages(),
            graph().NumPosts() + graph().NumComments());
}

TEST_F(GraphFixture, IdLookupsRoundtrip) {
  for (uint32_t i = 0; i < graph().NumPersons(); ++i) {
    EXPECT_EQ(graph().PersonIdx(graph().PersonId(i)), i);
  }
  for (uint32_t i = 0; i < graph().NumPosts(); ++i) {
    EXPECT_EQ(graph().PostIdx(graph().PostId(i)), i);
  }
  EXPECT_EQ(graph().PersonIdx(99999999), kNoIdx);
  EXPECT_EQ(graph().PlaceByName("Atlantis"), kNoIdx);
  EXPECT_NE(graph().PlaceByName("China"), kNoIdx);
  EXPECT_NE(graph().TagClassByName("Thing"), kNoIdx);
}

TEST_F(GraphFixture, MessageRefEncoding) {
  uint32_t post_ref = Graph::MessageOfPost(5);
  uint32_t comment_ref = Graph::MessageOfComment(5);
  EXPECT_TRUE(Graph::IsPost(post_ref));
  EXPECT_FALSE(Graph::IsPost(comment_ref));
  EXPECT_EQ(Graph::AsPost(post_ref), 5u);
  EXPECT_EQ(Graph::AsComment(comment_ref), 5u);
  EXPECT_NE(post_ref, comment_ref);
}

TEST_F(GraphFixture, KnowsIsSymmetricWithMatchingDates) {
  for (uint32_t p = 0; p < graph().NumPersons(); ++p) {
    graph().Knows().ForEachDated(p, [&](uint32_t q, core::DateTime d) {
      bool found = false;
      graph().Knows().ForEachDated(q, [&](uint32_t r, core::DateTime d2) {
        if (r == p && d2 == d) found = true;
      });
      EXPECT_TRUE(found) << p << " knows " << q << " asymmetric";
    });
  }
}

TEST_F(GraphFixture, ForwardReverseConsistency) {
  // person→posts vs post_creator.
  size_t total = 0;
  for (uint32_t p = 0; p < graph().NumPersons(); ++p) {
    graph().PersonPosts().ForEach(p, [&](uint32_t post) {
      EXPECT_EQ(graph().PostCreator(post), p);
      ++total;
    });
  }
  EXPECT_EQ(total, graph().NumPosts());

  // tag→posts vs post→tags.
  size_t tag_edges_fwd = 0, tag_edges_rev = 0;
  for (uint32_t post = 0; post < graph().NumPosts(); ++post) {
    tag_edges_fwd += graph().PostTags().Degree(post);
  }
  for (uint32_t tag = 0; tag < graph().NumTags(); ++tag) {
    tag_edges_rev += graph().TagPosts().Degree(tag);
  }
  EXPECT_EQ(tag_edges_fwd, tag_edges_rev);

  // forum members vs person forums.
  size_t members = 0, member_of = 0;
  for (uint32_t f = 0; f < graph().NumForums(); ++f) {
    members += graph().ForumMembers().Degree(f);
  }
  for (uint32_t p = 0; p < graph().NumPersons(); ++p) {
    member_of += graph().PersonForums().Degree(p);
  }
  EXPECT_EQ(members, member_of);
  EXPECT_EQ(members, data().network.memberships.size());

  // likes: person→likes vs likers-of-message.
  size_t likes_fwd = 0, likes_rev = 0;
  for (uint32_t p = 0; p < graph().NumPersons(); ++p) {
    likes_fwd += graph().PersonLikes().Degree(p);
  }
  for (uint32_t post = 0; post < graph().NumPosts(); ++post) {
    likes_rev += graph().PostLikers().Degree(post);
  }
  for (uint32_t c = 0; c < graph().NumComments(); ++c) {
    likes_rev += graph().CommentLikers().Degree(c);
  }
  EXPECT_EQ(likes_fwd, likes_rev);
  EXPECT_EQ(likes_fwd, data().network.likes.size());
}

TEST_F(GraphFixture, CommentRootPostsAreTransitivelyCorrect) {
  for (uint32_t c = 0; c < graph().NumComments(); ++c) {
    // Chase the reply chain manually and compare with the precomputed root.
    uint32_t msg = graph().CommentReplyOf(c);
    while (!Graph::IsPost(msg)) {
      msg = graph().CommentReplyOf(Graph::AsComment(msg));
    }
    EXPECT_EQ(graph().CommentRootPost(c), Graph::AsPost(msg));
  }
}

TEST_F(GraphFixture, PersonCountryMatchesCityHierarchy) {
  for (uint32_t p = 0; p < graph().NumPersons(); ++p) {
    uint32_t city = graph().PersonCity(p);
    EXPECT_EQ(graph().PlaceAt(city).type, core::PlaceType::kCity);
    uint32_t country = graph().PersonCountry(p);
    EXPECT_EQ(graph().PlaceAt(country).type, core::PlaceType::kCountry);
    EXPECT_EQ(graph().PlacePartOf(city), country);
    // Continent above the country.
    uint32_t continent = graph().PlacePartOf(country);
    EXPECT_EQ(graph().PlaceAt(continent).type, core::PlaceType::kContinent);
    EXPECT_EQ(graph().PlacePartOf(continent), kNoIdx);
  }
}

TEST_F(GraphFixture, CountryPersonsPartitionsPersons) {
  size_t total = 0;
  for (uint32_t place = 0; place < graph().NumPlaces(); ++place) {
    graph().CountryPersons().ForEach(place, [&](uint32_t p) {
      EXPECT_EQ(graph().PersonCountry(p), place);
      ++total;
    });
  }
  EXPECT_EQ(total, graph().NumPersons());
}

TEST_F(GraphFixture, TagClassHierarchyIsConsistent) {
  size_t roots = 0;
  for (uint32_t tc = 0; tc < graph().NumTagClasses(); ++tc) {
    if (graph().TagClassParent(tc) == kNoIdx) ++roots;
  }
  EXPECT_EQ(roots, 1u);
  size_t tags_total = 0;
  for (uint32_t tc = 0; tc < graph().NumTagClasses(); ++tc) {
    graph().TagClassTags().ForEach(tc, [&](uint32_t t) {
      EXPECT_EQ(graph().TagClassOfTag(t), tc);
      ++tags_total;
    });
  }
  EXPECT_EQ(tags_total, graph().NumTags());
}

// ---------------------------------------------------------------------------
// Update application: bulk graph + update stream ≡ graph of the full network.
// ---------------------------------------------------------------------------

TEST(GraphUpdateTest, IncrementalUpdatesConvergeToFullGraph) {
  datagen::DatagenConfig cfg = SmallConfig();
  datagen::GeneratedData split = datagen::Generate(cfg);

  datagen::DatagenConfig all_bulk = cfg;
  all_bulk.update_fraction = 1e-9;  // same generation, no split
  datagen::GeneratedData full = datagen::Generate(all_bulk);

  Graph incremental(std::move(split.network));
  for (const datagen::UpdateEvent& e : split.updates) {
    ASSERT_TRUE(interactive::ApplyUpdate(incremental, e).ok());
  }
  Graph reference(std::move(full.network));

  ASSERT_EQ(incremental.NumPersons(), reference.NumPersons());
  ASSERT_EQ(incremental.NumForums(), reference.NumForums());
  ASSERT_EQ(incremental.NumPosts(), reference.NumPosts());
  ASSERT_EQ(incremental.NumComments(), reference.NumComments());
  EXPECT_EQ(incremental.Knows().num_edges(), reference.Knows().num_edges());
  EXPECT_EQ(incremental.PersonLikes().num_edges(),
            reference.PersonLikes().num_edges());
  EXPECT_EQ(incremental.ForumMembers().num_edges(),
            reference.ForumMembers().num_edges());

  // Per-entity spot checks across the boundary: degrees must agree for the
  // same external ids (indices may differ).
  for (uint32_t i = 0; i < reference.NumPersons(); ++i) {
    core::Id id = reference.PersonId(i);
    uint32_t j = incremental.PersonIdx(id);
    ASSERT_NE(j, kNoIdx);
    EXPECT_EQ(incremental.Knows().Degree(j), reference.Knows().Degree(i))
        << "person " << id;
    EXPECT_EQ(incremental.PersonPosts().Degree(j),
              reference.PersonPosts().Degree(i));
    EXPECT_EQ(incremental.PersonComments().Degree(j),
              reference.PersonComments().Degree(i));
    EXPECT_EQ(incremental.PersonLikes().Degree(j),
              reference.PersonLikes().Degree(i));
    EXPECT_EQ(incremental.PersonForums().Degree(j),
              reference.PersonForums().Degree(i));
  }
  for (uint32_t i = 0; i < reference.NumPosts(); ++i) {
    core::Id id = reference.PostId(i);
    uint32_t j = incremental.PostIdx(id);
    ASSERT_NE(j, kNoIdx);
    EXPECT_EQ(incremental.PostReplies().Degree(j),
              reference.PostReplies().Degree(i));
    EXPECT_EQ(incremental.PostLikers().Degree(j),
              reference.PostLikers().Degree(i));
  }
}

TEST(GraphUpdateTest, EdgeInsertsWithAGoneEndpointAreNoOps) {
  // With interleaved insert and delete streams an IU 2/3/5/8 insert can
  // name a person a cascade tombstoned, or one a compaction then removed.
  datagen::GeneratedData data = datagen::Generate(SmallConfig());
  const core::Id gone = data.network.persons.front().id;
  const core::Id missing = core::Id{1} << 50;
  const core::DateTime at = core::DateTimeFromCivil(2013, 1, 1);
  Graph graph(std::move(data.network));
  ASSERT_TRUE(interactive::ApplyUpdate(
                  graph, {datagen::UpdateKind::kDelPerson, at, at,
                          datagen::Delete{gone, core::kNoId}})
                  .ok());
  ASSERT_FALSE(graph.PersonAlive(graph.PersonIdx(gone)));

  // Live endpoints for the other side of each edge.
  uint32_t person = 0, post = 0, comment = 0, forum = 0;
  while (!graph.PersonAlive(person)) ++person;
  while (!graph.PostAlive(post)) ++post;
  while (!graph.CommentAlive(comment)) ++comment;
  while (!graph.ForumAlive(forum)) ++forum;
  const core::Id live = graph.PersonId(person);
  const core::Id post_id = graph.PostId(post);
  const core::Id comment_id = graph.CommentId(comment);
  const core::Id forum_id = graph.ForumId(forum);

  using datagen::UpdateKind;
  const std::vector<datagen::UpdateEvent> inserts = {
      {UpdateKind::kAddLikePost, at, at, core::Like{gone, post_id, true, at}},
      {UpdateKind::kAddLikePost, at, at,
       core::Like{missing, post_id, true, at}},
      {UpdateKind::kAddLikePost, at, at, core::Like{live, missing, true, at}},
      {UpdateKind::kAddLikeComment, at, at,
       core::Like{gone, comment_id, false, at}},
      {UpdateKind::kAddLikeComment, at, at,
       core::Like{live, missing, false, at}},
      {UpdateKind::kAddMembership, at, at,
       core::ForumMembership{forum_id, gone, at}},
      {UpdateKind::kAddMembership, at, at,
       core::ForumMembership{missing, live, at}},
      {UpdateKind::kAddKnows, at, at, core::Knows{gone, live, at}},
      {UpdateKind::kAddKnows, at, at, core::Knows{live, missing, at}},
  };
  auto expect_no_ops = [&](Graph& g, const char* state) {
    const size_t likes = g.PersonLikes().num_edges();
    const size_t members = g.ForumMembers().num_edges();
    const size_t knows = g.Knows().num_edges();
    for (const datagen::UpdateEvent& event : inserts) {
      ASSERT_TRUE(interactive::ApplyUpdate(g, event).ok()) << state;
    }
    EXPECT_EQ(g.PersonLikes().num_edges(), likes) << state;
    EXPECT_EQ(g.ForumMembers().num_edges(), members) << state;
    EXPECT_EQ(g.Knows().num_edges(), knows) << state;
    validate::ValidationReport report = validate::ValidateGraph(g);
    EXPECT_TRUE(report.ok()) << state << ": " << report.ToString();
  };
  expect_no_ops(graph, "tombstoned");
  Graph compacted(ExportNetwork(graph), graph.CompactionEpoch() + 1);
  ASSERT_EQ(compacted.PersonIdx(gone), kNoIdx);
  expect_no_ops(compacted, "compacted");
}

TEST(GraphUpdateTest, VertexInsertsWithAGoneReferenceAreNoOps) {
  // IU 1/4/6/7 resolve every reference before they mutate: a missing or
  // tombstoned creator, moderator, forum, reply target, city, country or
  // tag — or an id that already exists — leaves the graph untouched.
  datagen::GeneratedData data = datagen::Generate(SmallConfig());
  const core::Id gone = data.network.persons.front().id;
  const core::Id missing = core::Id{1} << 50;
  const core::Id fresh = core::Id{1} << 51;
  const core::DateTime at = core::DateTimeFromCivil(2013, 1, 1);
  Graph graph(std::move(data.network));
  ASSERT_TRUE(interactive::ApplyUpdate(
                  graph, {datagen::UpdateKind::kDelPerson, at, at,
                          datagen::Delete{gone, core::kNoId}})
                  .ok());

  // A live and a dead row of each message-bearing table.
  uint32_t forum = 0, dead_forum = 0, post = 0, dead_post = 0, comment = 0,
           dead_comment = 0, country = 0;
  while (!graph.ForumAlive(forum)) ++forum;
  while (graph.ForumAlive(dead_forum)) ++dead_forum;
  while (!graph.PostAlive(post)) ++post;
  while (graph.PostAlive(dead_post)) ++dead_post;
  while (!graph.CommentAlive(comment)) ++comment;
  while (graph.CommentAlive(dead_comment)) ++dead_comment;
  while (graph.PlaceAt(country).type != core::PlaceType::kCountry) ++country;

  const core::Person person = ExportPerson(graph, graph.PostCreator(post));
  core::Forum new_forum = ExportForum(graph, forum);
  new_forum.id = fresh;
  core::Post new_post = ExportPost(graph, post);
  new_post.id = fresh;
  core::Comment new_comment = ExportComment(graph, comment);
  new_comment.id = fresh;
  new_comment.reply_of_post = graph.PostId(post);
  new_comment.reply_of_comment = core::kNoId;

  using datagen::UpdateKind;
  std::vector<datagen::UpdateEvent> inserts;
  auto add_person = [&](auto mutate) {
    core::Person p = person;
    p.id = fresh;
    mutate(p);
    inserts.push_back({UpdateKind::kAddPerson, at, at, p});
  };
  add_person([&](core::Person& p) { p.id = person.id; });
  add_person([&](core::Person& p) { p.city = missing; });
  add_person(
      [&](core::Person& p) { p.city = graph.PlaceAt(country).id; });
  add_person([&](core::Person& p) { p.interests.push_back(missing); });
  auto add_forum = [&](auto mutate) {
    core::Forum f = new_forum;
    mutate(f);
    inserts.push_back({UpdateKind::kAddForum, at, at, f});
  };
  add_forum([&](core::Forum& f) { f.id = graph.ForumId(forum); });
  add_forum([&](core::Forum& f) { f.moderator = gone; });
  add_forum([&](core::Forum& f) { f.moderator = missing; });
  add_forum([&](core::Forum& f) { f.tags.push_back(missing); });
  auto add_post = [&](auto mutate) {
    core::Post p = new_post;
    mutate(p);
    inserts.push_back({UpdateKind::kAddPost, at, at, p});
  };
  add_post([&](core::Post& p) { p.id = graph.PostId(post); });
  add_post([&](core::Post& p) { p.creator = gone; });
  add_post([&](core::Post& p) { p.creator = missing; });
  add_post([&](core::Post& p) { p.forum = graph.ForumId(dead_forum); });
  add_post([&](core::Post& p) { p.forum = missing; });
  add_post([&](core::Post& p) { p.country = missing; });
  add_post([&](core::Post& p) { p.tags.push_back(missing); });
  auto add_comment = [&](auto mutate) {
    core::Comment c = new_comment;
    mutate(c);
    inserts.push_back({UpdateKind::kAddComment, at, at, c});
  };
  add_comment([&](core::Comment& c) { c.id = graph.CommentId(comment); });
  add_comment([&](core::Comment& c) { c.creator = gone; });
  add_comment([&](core::Comment& c) { c.creator = missing; });
  add_comment([&](core::Comment& c) { c.country = missing; });
  add_comment([&](core::Comment& c) { c.tags.push_back(missing); });
  add_comment([&](core::Comment& c) { c.reply_of_post = missing; });
  add_comment(
      [&](core::Comment& c) { c.reply_of_post = graph.PostId(dead_post); });
  add_comment([&](core::Comment& c) { c.reply_of_post = core::kNoId; });
  add_comment([&](core::Comment& c) {
    c.reply_of_post = core::kNoId;
    c.reply_of_comment = graph.CommentId(dead_comment);
  });

  // Every row and edge count of the export.
  auto shape = [](const core::SocialNetwork& net) {
    size_t tags = 0;
    for (const core::Post& p : net.posts) tags += p.tags.size();
    for (const core::Comment& c : net.comments) tags += c.tags.size();
    return std::vector<size_t>{net.persons.size(),  net.forums.size(),
                               net.posts.size(),    net.comments.size(),
                               net.knows.size(),    net.likes.size(),
                               net.memberships.size(), net.NumEdges(),
                               tags};
  };
  auto expect_no_ops = [&](Graph& g, const char* state) {
    const std::vector<size_t> before = shape(ExportNetwork(g));
    for (const datagen::UpdateEvent& event : inserts) {
      ASSERT_TRUE(interactive::ApplyUpdate(g, event).ok()) << state;
    }
    EXPECT_EQ(shape(ExportNetwork(g)), before) << state;
    EXPECT_EQ(g.PostIdx(fresh), kNoIdx) << state;
    EXPECT_EQ(g.CommentIdx(fresh), kNoIdx) << state;
    validate::ValidationReport report = validate::ValidateGraph(g);
    EXPECT_TRUE(report.ok()) << state << ": " << report.ToString();
  };
  expect_no_ops(graph, "tombstoned");
  // A tombstoned id still exists until compaction removes it.
  core::Person new_person = person;
  new_person.id = gone;
  EXPECT_EQ(graph.AddPerson(new_person), kNoIdx);
  Graph compacted(ExportNetwork(graph), graph.CompactionEpoch() + 1);
  expect_no_ops(compacted, "compacted");

  // The unmutated templates do insert: the cases above fail on exactly the
  // reference each one breaks.
  new_person.id = fresh;
  EXPECT_NE(graph.AddPerson(new_person), kNoIdx);
  EXPECT_NE(graph.AddPost(new_post), kNoIdx);
  EXPECT_NE(graph.AddComment(new_comment), kNoIdx);
  EXPECT_NE(graph.AddForum(new_forum), kNoIdx);
}

// LiveLikeCount of every live message equals a recount of its live like
// edges, and the validator (like-zone-bounds, tombstone-index-agreement,
// tombstone-zone-bounds among them) finds nothing.
void ExpectLikeCountsMatchEdges(const Graph& g, const std::string& stage) {
  size_t mismatches = 0;
  g.ForEachMessage([&](uint32_t msg) {
    int64_t likes = 0;
    auto count = [&](uint32_t p) { likes += g.LikeAlive(p, msg); };
    if (Graph::IsPost(msg)) {
      g.PostLikers().ForEach(msg, count);
    } else {
      g.CommentLikers().ForEach(Graph::AsComment(msg), count);
    }
    if (g.LiveLikeCount(msg) != likes && ++mismatches <= 5) {
      ADD_FAILURE() << stage << ": message " << msg << " LiveLikeCount "
                    << g.LiveLikeCount(msg) << " but " << likes
                    << " live like edges";
    }
  });
  EXPECT_EQ(mismatches, 0u) << stage;
  validate::ValidationReport report = validate::ValidateGraph(g);
  EXPECT_TRUE(report.ok()) << stage << ": " << report.ToString();
}

TEST(GraphUpdateTest, FarOutIdsResolveOnACopyAndAfterCompaction) {
  // IU 1/4/6/7 with ids far outside datagen's dense per-type ranges —
  // near 2^62 and negative — resolve on the refresh writer's copy, on a
  // copy of that copy and after compaction, and a replayed insert is an Ok
  // no-op. The copies share the bulk load's static segment.
  datagen::GeneratedData data = datagen::Generate(SmallConfig());
  const core::DateTime at = core::DateTimeFromCivil(2013, 1, 1);
  const Graph base(std::move(data.network));

  const core::Id kFar = core::Id{1} << 62;
  core::Person person = ExportPerson(base, 0);
  person.id = kFar + 1;
  core::Forum forum = ExportForum(base, 0);
  forum.id = -(kFar + 4);
  forum.moderator = person.id;
  core::Post post = ExportPost(base, 0);
  post.id = -7;
  post.creator = person.id;
  post.forum = forum.id;
  core::Comment comment = ExportComment(base, 0);
  comment.id = kFar + 6;
  comment.creator = person.id;
  comment.reply_of_post = post.id;
  comment.reply_of_comment = core::kNoId;
  core::Comment reply = comment;
  reply.id = -(kFar + 7);
  reply.reply_of_post = core::kNoId;
  reply.reply_of_comment = comment.id;

  using datagen::UpdateKind;
  const std::vector<datagen::UpdateEvent> inserts = {
      {UpdateKind::kAddPerson, at, at, person},
      {UpdateKind::kAddForum, at, at, forum},
      {UpdateKind::kAddPost, at, at, post},
      {UpdateKind::kAddComment, at, at, comment},
      {UpdateKind::kAddComment, at, at, reply},
  };
  Graph shadow(base);
  EXPECT_EQ(TestAccess::StaticSegment(shadow), TestAccess::StaticSegment(base));
  for (const datagen::UpdateEvent& e : inserts) {
    ASSERT_TRUE(interactive::ApplyUpdate(shadow, e).ok());
  }
  // Replaying every insert finds the id present: Ok, and nothing changes.
  const size_t messages = shadow.NumMessages();
  for (const datagen::UpdateEvent& e : inserts) {
    ASSERT_TRUE(interactive::ApplyUpdate(shadow, e).ok());
  }
  EXPECT_EQ(shadow.NumPersons(), base.NumPersons() + 1);
  EXPECT_EQ(shadow.NumForums(), base.NumForums() + 1);
  EXPECT_EQ(shadow.NumMessages(), messages);
  EXPECT_EQ(messages, base.NumMessages() + 3);
  EXPECT_EQ(base.PersonIdx(person.id), kNoIdx);  // the base is untouched

  auto expect_resolved = [&](const Graph& g, const char* where) {
    SCOPED_TRACE(where);
    const uint32_t p = g.PersonIdx(person.id);
    const uint32_t f = g.ForumIdx(forum.id);
    const uint32_t m = g.PostIdx(post.id);
    const uint32_t c = g.CommentIdx(comment.id);
    const uint32_t r = g.CommentIdx(reply.id);
    ASSERT_NE(p, kNoIdx);
    ASSERT_NE(f, kNoIdx);
    ASSERT_NE(m, kNoIdx);
    ASSERT_NE(c, kNoIdx);
    ASSERT_NE(r, kNoIdx);
    EXPECT_EQ(g.PersonId(p), person.id);
    EXPECT_EQ(g.ForumId(f), forum.id);
    EXPECT_EQ(g.ForumModerator(f), p);
    EXPECT_EQ(g.PostId(m), post.id);
    EXPECT_EQ(g.PostCreator(m), p);
    EXPECT_EQ(g.PostForum(m), f);
    EXPECT_EQ(g.CommentId(c), comment.id);
    EXPECT_EQ(g.CommentReplyOf(c), Graph::MessageOfPost(m));
    EXPECT_EQ(g.CommentReplyOf(r), Graph::MessageOfComment(c));
    EXPECT_EQ(g.CommentRootPost(r), m);
    // Ids next to the far-out ones stay absent.
    EXPECT_EQ(g.PersonIdx(person.id + 1), kNoIdx);
    EXPECT_EQ(g.PostIdx(post.id - 1), kNoIdx);
    EXPECT_EQ(g.CommentIdx(core::kNoId), kNoIdx);
  };
  expect_resolved(shadow, "refresh copy");
  const Graph copy(shadow);
  EXPECT_EQ(TestAccess::StaticSegment(copy), TestAccess::StaticSegment(base));
  expect_resolved(copy, "copy of the copy");
  const Graph compacted(ExportNetwork(copy), copy.CompactionEpoch() + 1);
  expect_resolved(compacted, "compaction");
  const validate::ValidationReport report = validate::ValidateGraph(compacted);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(GraphCompactTest, MatchesExportRebuildAndBumpsTheEpochOnlyForTombstones) {
  datagen::GeneratedData data = datagen::Generate(SmallConfig());
  const std::vector<datagen::UpdateEvent> updates = std::move(data.updates);
  const core::Id victim = data.network.persons.front().id;
  Graph graph(std::move(data.network));

  // Fresh: compaction only re-freezes the bulk build; the epoch stays.
  testfixture::ExpectCompactsLikeRebuild(graph, "fresh");

  // Insert-only: the overflow and tails fold into fresh bases. IU 8 takes
  // a self-loop, which the export (one row per undirected edge) drops.
  for (size_t i = 0; i < updates.size() && i < 400; ++i) {
    ASSERT_TRUE(interactive::ApplyUpdate(graph, updates[i]).ok());
  }
  const core::Id loner = graph.PersonId(0) == victim ? graph.PersonId(1)
                                                     : graph.PersonId(0);
  graph.AddKnows(loner, loner, updates.back().timestamp);
  ASSERT_FALSE(graph.HasTombstones());
  std::unique_ptr<Graph> compacted =
      testfixture::ExpectCompactsLikeRebuild(graph, "insert-only");
  EXPECT_EQ(compacted->CompactionEpoch(), graph.CompactionEpoch());

  // Tombstoned: dead rows are dropped and the epoch goes up by one.
  const core::DateTime at = updates.back().timestamp;
  ASSERT_TRUE(interactive::ApplyUpdate(
                  graph, {datagen::UpdateKind::kDelPerson, at, at,
                          datagen::Delete{victim, core::kNoId}})
                  .ok());
  ASSERT_TRUE(graph.HasTombstones());
  compacted = testfixture::ExpectCompactsLikeRebuild(graph, "tombstoned");
  EXPECT_EQ(compacted->CompactionEpoch(), graph.CompactionEpoch() + 1);
  EXPECT_EQ(compacted->PersonIdx(victim), kNoIdx);

  // A second compaction of a compacted graph changes nothing, and the
  // compacted graph takes updates like a bulk-built one.
  std::unique_ptr<Graph> twice =
      testfixture::ExpectCompactsLikeRebuild(*compacted, "compacted");
  EXPECT_EQ(twice->CompactionEpoch(), compacted->CompactionEpoch());
  for (size_t i = 400; i < updates.size() && i < 600; ++i) {
    ASSERT_TRUE(interactive::ApplyUpdate(*twice, updates[i]).ok());
  }
  testfixture::ExpectCompactsLikeRebuild(*twice, "compacted, then updated");
}

TEST(GraphUpdateTest, LikeCountColumnTracksLiveLikeEdges) {
  datagen::GeneratedData data = datagen::Generate(SmallConfig());
  const std::vector<datagen::UpdateEvent> updates = std::move(data.updates);
  Graph graph(std::move(data.network));
  ExpectLikeCountsMatchEdges(graph, "bulk load");

  // IU 2/3: the update stream likes bulk and newly inserted messages; add
  // likes on a fresh post and a bulk comment on top.
  for (const datagen::UpdateEvent& e : updates) {
    ASSERT_TRUE(interactive::ApplyUpdate(graph, e).ok());
  }
  const core::DateTime at = core::DateTimeFromCivil(2013, 6, 1);
  core::Post post;
  post.id = core::Id{1} << 50;
  post.creation_date = at;
  post.creator = graph.PersonId(0);
  post.forum = graph.ForumId(0);
  post.country = graph.PlaceAt(graph.PersonCountry(0)).id;
  post.content = "fresh";
  post.length = 5;
  const uint32_t fresh = graph.AddPost(post);
  ASSERT_NE(fresh, kNoIdx);
  graph.AddLikePost(graph.PersonId(1), post.id, at);
  graph.AddLikePost(graph.PersonId(2), post.id, at);
  graph.AddLikeComment(graph.PersonId(3), graph.CommentId(0), at);
  EXPECT_EQ(graph.LivePostLikeCount(fresh), 2);
  ExpectLikeCountsMatchEdges(graph, "IU 2/3");

  // The first row in [0, n) that `pred` accepts.
  auto first_row = [](size_t n, auto&& pred) {
    uint32_t row = 0;
    while (row < n && !pred(row)) ++row;
    return row;
  };
  auto first_liker = [&](const AdjacencyList& likers, uint32_t row) {
    uint32_t liker = kNoIdx;
    likers.ForEach(row, [&](uint32_t p) {
      if (liker == kNoIdx) liker = p;
    });
    return liker;
  };

  // DEL 2/3: one like on the fresh post, one on a bulk post and one on a
  // bulk comment; then the fresh post gets a like back (IU 2 after DEL 2).
  const uint32_t post_row = first_row(graph.NumPosts(), [&](uint32_t i) {
    return graph.PostLikers().Degree(i) >= 2;
  });
  const uint32_t comment_row = first_row(graph.NumComments(), [&](uint32_t i) {
    return graph.CommentLikers().Degree(i) > 0;
  });
  ASSERT_LT(post_row, graph.NumPosts());
  ASSERT_LT(comment_row, graph.NumComments());
  const int64_t post_likes = graph.LivePostLikeCount(post_row);
  ASSERT_TRUE(graph.DeleteLikePost(graph.PersonId(1), post.id).ok());
  ASSERT_TRUE(graph
                  .DeleteLikePost(
                      graph.PersonId(first_liker(graph.PostLikers(), post_row)),
                      graph.PostId(post_row))
                  .ok());
  ASSERT_TRUE(graph
                  .DeleteLikeComment(graph.PersonId(first_liker(
                                         graph.CommentLikers(), comment_row)),
                                     graph.CommentId(comment_row))
                  .ok());
  EXPECT_EQ(graph.LivePostLikeCount(fresh), 1);
  EXPECT_EQ(graph.LivePostLikeCount(post_row), post_likes - 1);
  ExpectLikeCountsMatchEdges(graph, "DEL 2/3");
  graph.AddLikePost(graph.PersonId(4), post.id, at);
  ExpectLikeCountsMatchEdges(graph, "IU 2 after DEL 2");

  // DEL 1: the person with the most likes takes them all with them.
  uint32_t liker = 0;
  for (uint32_t p = 1; p < graph.NumPersons(); ++p) {
    if (graph.PersonLikes().Degree(p) > graph.PersonLikes().Degree(liker)) {
      liker = p;
    }
  }
  ASSERT_GT(graph.PersonLikes().Degree(liker), 0u);
  ASSERT_TRUE(graph.DeletePerson(graph.PersonId(liker)).ok());
  ExpectLikeCountsMatchEdges(graph, "DEL 1");

  // DEL 6/7: a liked post and a liked comment with their reply subtrees.
  const uint32_t victim_post = first_row(graph.NumPosts(), [&](uint32_t i) {
    return graph.PostAlive(i) && graph.LivePostLikeCount(i) > 0;
  });
  const uint32_t victim_comment =
      first_row(graph.NumComments(), [&](uint32_t i) {
        return graph.CommentAlive(i) && graph.LiveCommentLikeCount(i) > 0;
      });
  ASSERT_LT(victim_post, graph.NumPosts());
  ASSERT_LT(victim_comment, graph.NumComments());
  ASSERT_TRUE(graph.DeletePost(graph.PostId(victim_post)).ok());
  ASSERT_TRUE(graph.DeleteComment(graph.CommentId(victim_comment)).ok());
  ExpectLikeCountsMatchEdges(graph, "DEL 6/7");

  const Graph copy(graph);
  ExpectLikeCountsMatchEdges(copy, "member-wise copy");
  const Graph compacted(ExportNetwork(copy), copy.CompactionEpoch() + 1);
  ExpectLikeCountsMatchEdges(compacted, "compaction");
  EXPECT_EQ(compacted.PostLikers().num_edges() +
                compacted.CommentLikers().num_edges(),
            compacted.PersonLikes().num_edges());
}

datagen::GeneratedData MakeData() {
  datagen::DatagenConfig cfg;
  cfg.num_persons = 250;
  cfg.activity_scale = 0.4;
  return datagen::Generate(cfg);
}

TEST(GraphUpdateTest, ReadsSeeFreshlyInsertedData) {
  datagen::GeneratedData data = MakeData();
  storage::Graph graph(std::move(data.network));

  // BI 1 counts messages before a far-future date; replaying updates must
  // strictly grow it.
  bi::Bi1Params far{core::DateFromCivil(2020, 1, 1)};
  auto before = bi::RunBi1(graph, far);
  int64_t count_before = 0;
  for (const auto& r : before) count_before += r.message_count;

  for (const datagen::UpdateEvent& e : data.updates) {
    ASSERT_TRUE(interactive::ApplyUpdate(graph, e).ok());
  }

  auto after = bi::RunBi1(graph, far);
  int64_t count_after = 0;
  for (const auto& r : after) count_after += r.message_count;
  EXPECT_GT(count_after, count_before);
  EXPECT_EQ(static_cast<size_t>(count_after),
            data.total_posts + data.total_comments);
}

TEST(GraphMemoryTest, MemoryMatchesTheHeapGrowthOfACopy) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators do not report through mallinfo2";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  GTEST_SKIP() << "sanitizer allocators do not report through mallinfo2";
#endif
#endif
  datagen::DatagenConfig cfg = SmallConfig();
  datagen::GeneratedData data = datagen::Generate(cfg);
  const std::vector<datagen::UpdateEvent> updates = std::move(data.updates);
  Graph graph(std::move(data.network));
  // Overflow appends, tombstones and the reply-delta map all hold heap too.
  for (size_t i = 0; i < updates.size() / 2; ++i) {
    ASSERT_TRUE(interactive::ApplyUpdate(graph, updates[i]).ok());
  }
  ASSERT_TRUE(graph.DeletePerson(graph.PersonId(0)).ok());

  const size_t before = mallinfo2().uordblks;
  auto copy = std::make_unique<Graph>(graph);
  const size_t grown = mallinfo2().uordblks - before;
  // A copy shares the CSR bases, the message-date index base, the bulk
  // string bases and the static segment, so only the unshared bytes count.
  const columnar::MemoryBreakdown mb = copy->Memory();
  const size_t shared = mb.total_shared_bytes();
  ASSERT_GT(shared, 0u);
  const size_t counted = mb.total_bytes() - shared;
  EXPECT_GT(static_cast<double>(counted), 0.8 * static_cast<double>(grown))
      << copy->Memory().ToString();
  EXPECT_LT(static_cast<double>(counted), 1.2 * static_cast<double>(grown))
      << copy->Memory().ToString();
}

}  // namespace
}  // namespace snb::storage
