// Interactive workload tests: hand-computed answers for the complex and
// short reads on the fixture graph, plus driver-facing invariants on a
// generated network.

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "fixture_graph.h"
#include "interactive/interactive.h"
#include "storage/graph.h"

namespace snb::interactive {
namespace {

using namespace snb::testfixture;  // NOLINT: test-local fixture ids

class InteractiveFixtureTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new storage::Graph(MakeFixtureNetwork());
  }
  static void TearDownTestSuite() { delete graph_; }
  static const storage::Graph& graph() { return *graph_; }

 private:
  static storage::Graph* graph_;
};

storage::Graph* InteractiveFixtureTest::graph_ = nullptr;

TEST_F(InteractiveFixtureTest, Ic1FindsByNameWithinThreeHops) {
  std::vector<Ic1Row> rows = RunIc1(graph(), {kAlice, "Carol"});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].friend_id, kCarol);
  EXPECT_EQ(rows[0].distance, 2);
  EXPECT_EQ(rows[0].last_name, "Cat");
  EXPECT_EQ(rows[0].city_name, "Paris");
  ASSERT_EQ(rows[0].companies.size(), 1u);
  EXPECT_EQ(std::get<0>(rows[0].companies[0]), "France Telecom");
  EXPECT_EQ(std::get<2>(rows[0].companies[0]), "France");
}

TEST_F(InteractiveFixtureTest, Ic1ExcludesStartPerson) {
  EXPECT_TRUE(RunIc1(graph(), {kAlice, "Alice"}).empty());
}

TEST_F(InteractiveFixtureTest, Ic2ReturnsFriendMessagesBeforeDate) {
  std::vector<Ic2Row> rows =
      RunIc2(graph(), {kAlice, core::DateFromCivil(2010, 5, 1)});
  // Alice's friends: bob, dave. Bob's messages before May: c0 only.
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].person_id, kBob);
  EXPECT_EQ(rows[0].message_id, kComment0);
}

TEST_F(InteractiveFixtureTest, Ic2SortsRecentFirst) {
  std::vector<Ic2Row> rows =
      RunIc2(graph(), {kAlice, core::DateFromCivil(2011, 1, 1)});
  ASSERT_EQ(rows.size(), 2u);  // c0 and post1 by bob
  EXPECT_EQ(rows[0].message_id, kPost1);  // newest first
  EXPECT_EQ(rows[1].message_id, kComment0);
}

TEST_F(InteractiveFixtureTest, Ic7RanksRecentLikers) {
  std::vector<Ic7Row> rows = RunIc7(graph(), {kAlice});
  // Likers of alice's messages (post0): bob (4/13), carol (4/14).
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].person_id, kCarol);  // most recent like first
  EXPECT_TRUE(rows[0].is_new);           // carol is not alice's friend
  EXPECT_EQ(rows[1].person_id, kBob);
  EXPECT_FALSE(rows[1].is_new);  // bob is a friend
}

TEST_F(InteractiveFixtureTest, Ic8ReturnsDirectReplies) {
  std::vector<Ic8Row> rows = RunIc8(graph(), {kAlice});
  // Replies to alice's messages: c0 (on post0). c1 replies c0 (bob's).
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].comment_id, kComment0);
  EXPECT_EQ(rows[0].person_id, kBob);

  std::vector<Ic8Row> bob_rows = RunIc8(graph(), {kBob});
  ASSERT_EQ(bob_rows.size(), 1u);
  EXPECT_EQ(bob_rows[0].comment_id, kComment1);
  EXPECT_EQ(bob_rows[0].person_id, kCarol);
}

TEST_F(InteractiveFixtureTest, Ic9CoversTwoHops) {
  std::vector<Ic9Row> rows =
      RunIc9(graph(), {kDave, core::DateFromCivil(2011, 1, 1)});
  // Dave's 2-hop cohort: alice, bob (d1), carol (d2). All 4 messages.
  EXPECT_EQ(rows.size(), 4u);
}

TEST_F(InteractiveFixtureTest, Ic11FiltersByCountryAndYear) {
  std::vector<Ic11Row> rows = RunIc11(graph(), {kAlice, "France", 2010});
  // Carol (foaf) works at France Telecom since 2009 < 2010.
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].person_id, kCarol);
  EXPECT_EQ(rows[0].company_name, "France Telecom");
  EXPECT_EQ(rows[0].work_from, 2009);
  EXPECT_TRUE(RunIc11(graph(), {kAlice, "France", 2009}).empty());
}

TEST_F(InteractiveFixtureTest, Ic12FindsExpertFriends) {
  std::vector<Ic12Row> rows = RunIc12(graph(), {kAlice, "Musician"});
  // Friends of alice: bob, dave. Bob's comment c0 directly replies post0
  // whose tag Mozart is in class Musician.
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].person_id, kBob);
  EXPECT_EQ(rows[0].reply_count, 1);
  EXPECT_EQ(rows[0].tag_names, (std::vector<std::string>{"Mozart"}));
}

TEST_F(InteractiveFixtureTest, Ic13ShortestPaths) {
  EXPECT_EQ(RunIc13(graph(), {kAlice, kAlice}).shortest_path_length, 0);
  EXPECT_EQ(RunIc13(graph(), {kAlice, kBob}).shortest_path_length, 1);
  EXPECT_EQ(RunIc13(graph(), {kAlice, kCarol}).shortest_path_length, 2);
  EXPECT_EQ(RunIc13(graph(), {kCarol, kAlice}).shortest_path_length, 2);
  EXPECT_EQ(RunIc13(graph(), {kAlice, 999}).shortest_path_length, -1);
}

TEST_F(InteractiveFixtureTest, Ic14WeighsPaths) {
  std::vector<Ic14Row> rows = RunIc14(graph(), {kAlice, kCarol});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].person_ids_in_path,
            (std::vector<core::Id>{kAlice, kBob, kCarol}));
  // alice–bob: reply to post (1.0); bob–carol: reply to comment (0.5).
  EXPECT_DOUBLE_EQ(rows[0].path_weight, 1.5);
}

TEST_F(InteractiveFixtureTest, Is1ReturnsProfile) {
  std::vector<Is1Row> rows = RunIs1(graph(), kCarol);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].first_name, "Carol");
  EXPECT_EQ(rows[0].city_id, kParis);
  EXPECT_EQ(rows[0].gender, "female");
  EXPECT_TRUE(RunIs1(graph(), 999).empty());
}

TEST_F(InteractiveFixtureTest, Is2ReturnsMessagesWithThreadRoots) {
  std::vector<Is2Row> rows = RunIs2(graph(), kCarol);
  ASSERT_EQ(rows.size(), 1u);  // c1
  EXPECT_EQ(rows[0].message_id, kComment1);
  EXPECT_EQ(rows[0].original_post_id, kPost0);
  EXPECT_EQ(rows[0].original_post_author_id, kAlice);
  EXPECT_EQ(rows[0].original_post_author_first_name, "Alice");
}

TEST_F(InteractiveFixtureTest, Is3ListsFriendsMostRecentFirst) {
  std::vector<Is3Row> rows = RunIs3(graph(), kAlice);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].person_id, kDave);  // friendship 3/15 > 3/1
  EXPECT_EQ(rows[1].person_id, kBob);
}

TEST_F(InteractiveFixtureTest, Is4AndIs5ResolveMessages) {
  auto is4 = RunIs4(graph(), kPost1, /*is_post=*/true);
  ASSERT_EQ(is4.size(), 1u);
  EXPECT_EQ(is4[0].content, std::string(100, 'b'));
  auto is5 = RunIs5(graph(), kComment1, /*is_post=*/false);
  ASSERT_EQ(is5.size(), 1u);
  EXPECT_EQ(is5[0].person_id, kCarol);
}

TEST_F(InteractiveFixtureTest, Is6FindsForumThroughThread) {
  auto rows = RunIs6(graph(), kComment1, /*is_post=*/false);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].forum_id, kWall);
  EXPECT_EQ(rows[0].moderator_id, kAlice);
}

TEST_F(InteractiveFixtureTest, Is7FlagsRepliesByFriends) {
  auto rows = RunIs7(graph(), kPost0, /*is_post=*/true);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].comment_id, kComment0);
  EXPECT_EQ(rows[0].author_id, kBob);
  EXPECT_TRUE(rows[0].knows);  // bob knows alice

  auto c0_rows = RunIs7(graph(), kComment0, /*is_post=*/false);
  ASSERT_EQ(c0_rows.size(), 1u);
  EXPECT_EQ(c0_rows[0].author_id, kCarol);
  EXPECT_TRUE(c0_rows[0].knows);  // carol knows bob
}

// ---------------------------------------------------------------------------
// Invariants on a generated graph.
// ---------------------------------------------------------------------------

class InteractiveInvariantsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::DatagenConfig cfg;
    cfg.num_persons = 250;
    cfg.activity_scale = 0.4;
    datagen::GeneratedData data = datagen::Generate(cfg);
    graph_ = new storage::Graph(std::move(data.network));
  }
  static void TearDownTestSuite() { delete graph_; }
  static const storage::Graph& graph() { return *graph_; }

 private:
  static storage::Graph* graph_;
};

storage::Graph* InteractiveInvariantsTest::graph_ = nullptr;

TEST_F(InteractiveInvariantsTest, Ic13IsSymmetric) {
  for (core::Id a = 0; a < 20; ++a) {
    for (core::Id b = a + 1; b < 20; b += 3) {
      EXPECT_EQ(RunIc13(graph(), {a, b}).shortest_path_length,
                RunIc13(graph(), {b, a}).shortest_path_length);
    }
  }
}

TEST_F(InteractiveInvariantsTest, Ic14PathsMatchIc13Length) {
  for (core::Id a = 0; a < 12; ++a) {
    core::Id b = a + 40;
    int32_t d = RunIc13(graph(), {a, b}).shortest_path_length;
    std::vector<Ic14Row> paths = RunIc14(graph(), {a, b});
    if (d < 0) {
      EXPECT_TRUE(paths.empty());
      continue;
    }
    ASSERT_FALSE(paths.empty());
    for (const Ic14Row& row : paths) {
      EXPECT_EQ(static_cast<int32_t>(row.person_ids_in_path.size()) - 1, d);
      EXPECT_GE(row.path_weight, 0.0);
    }
    // Sorted by weight descending.
    for (size_t i = 1; i < paths.size(); ++i) {
      EXPECT_GE(paths[i - 1].path_weight, paths[i].path_weight);
    }
  }
}

TEST_F(InteractiveInvariantsTest, Ic2SubsetOfIc9Candidates) {
  // IC 9's cohort (2 hops) contains IC 2's (1 hop): with identical date
  // limits, IC 9's k-th newest message cannot be older than IC 2's.
  core::Date max_date = core::DateFromCivil(2012, 6, 1);
  for (core::Id p = 0; p < 10; ++p) {
    auto ic2 = RunIc2(graph(), {p, max_date});
    auto ic9 = RunIc9(graph(), {p, max_date});
    if (ic2.empty()) continue;
    ASSERT_FALSE(ic9.empty());
    EXPECT_GE(ic9.size(), std::min<size_t>(ic2.size(), 20));
    EXPECT_GE(ic9.front().creation_date, ic2.front().creation_date);
    if (ic9.size() == 20 && ic2.size() == 20) {
      EXPECT_GE(ic9.back().creation_date, ic2.back().creation_date);
    }
  }
}

TEST_F(InteractiveInvariantsTest, LimitsRespected) {
  for (core::Id p = 0; p < 5; ++p) {
    EXPECT_LE(RunIc1(graph(), {p, "Chen"}).size(), 20u);
    EXPECT_LE(RunIc2(graph(), {p, core::DateFromCivil(2013, 1, 1)}).size(),
              20u);
    EXPECT_LE(RunIc4(graph(), {p, core::DateFromCivil(2011, 1, 1), 60}).size(),
              10u);
    EXPECT_LE(RunIc6(graph(), {p, "Jazz"}).size(), 10u);
    EXPECT_LE(RunIc7(graph(), {p}).size(), 20u);
    EXPECT_LE(RunIc8(graph(), {p}).size(), 20u);
    EXPECT_LE(RunIc10(graph(), {p, 6}).size(), 10u);
    EXPECT_LE(RunIc12(graph(), {p, "Person"}).size(), 20u);
    EXPECT_LE(RunIs2(graph(), p).size(), 10u);
  }
}

TEST_F(InteractiveInvariantsTest, Ic10OnlyFoafsWithBirthdayWindow) {
  for (core::Id p = 0; p < 6; ++p) {
    for (const Ic10Row& row : RunIc10(graph(), {p, 4})) {
      int32_t d =
          RunIc13(graph(), {p, row.person_id}).shortest_path_length;
      EXPECT_EQ(d, 2) << "IC10 must return exactly distance-2 persons";
      uint32_t idx = graph().PersonIdx(row.person_id);
      core::CivilDate b = core::CivilFromDate(graph().PersonBirthday(idx));
      bool in_window = (b.month == 4 && b.day >= 21) ||
                       (b.month == 5 && b.day < 22);
      EXPECT_TRUE(in_window);
    }
  }
}

TEST_F(InteractiveInvariantsTest, Is7KnowsFlagConsistent) {
  // For the first few posts, the knows flag must agree with IC 13 == 1.
  for (uint32_t post = 0; post < 10 && post < graph().NumPosts(); ++post) {
    core::Id post_id = graph().PostId(post);
    core::Id author = graph().PersonId(graph().PostCreator(post));
    for (const Is7Row& row : RunIs7(graph(), post_id, true)) {
      int32_t d =
          RunIc13(graph(), {author, row.author_id}).shortest_path_length;
      EXPECT_EQ(row.knows, d == 1) << "post " << post_id;
    }
  }
}

}  // namespace
}  // namespace snb::interactive
