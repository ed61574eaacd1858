// Hand-computed BI query answers on the fixture graph, plus structural
// invariants (sort orders, limits) on a generated network.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "bi/bi.h"
#include "bi/naive.h"
#include "datagen/datagen.h"
#include "fixture_graph.h"
#include "params/parameter_curation.h"
#include "storage/graph.h"

namespace snb::bi {
namespace {

using namespace snb::testfixture;  // NOLINT: test-local fixture ids

class BiSemanticsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new storage::Graph(MakeFixtureNetwork());
  }
  static void TearDownTestSuite() { delete graph_; }
  static const storage::Graph& graph() { return *graph_; }

 private:
  static storage::Graph* graph_;
};

storage::Graph* BiSemanticsTest::graph_ = nullptr;

TEST_F(BiSemanticsTest, Bi1GroupsByYearTypeAndLength) {
  Bi1Params params{core::DateFromCivil(2011, 1, 1)};
  std::vector<Bi1Row> rows = RunBi1(graph(), params);
  ASSERT_EQ(rows.size(), 4u);
  // Posts first (isComment false), category ascending.
  EXPECT_EQ(rows[0].year, 2010);
  EXPECT_FALSE(rows[0].is_comment);
  EXPECT_EQ(rows[0].length_category, 1);  // post0, len 50
  EXPECT_EQ(rows[0].message_count, 1);
  EXPECT_EQ(rows[0].sum_message_length, 50);
  EXPECT_DOUBLE_EQ(rows[0].percentage_of_messages, 0.25);

  EXPECT_FALSE(rows[1].is_comment);
  EXPECT_EQ(rows[1].length_category, 2);  // post1, len 100

  EXPECT_TRUE(rows[2].is_comment);
  EXPECT_EQ(rows[2].length_category, 0);  // c1, len 20
  EXPECT_EQ(rows[2].average_message_length, 20.0);

  EXPECT_TRUE(rows[3].is_comment);
  EXPECT_EQ(rows[3].length_category, 2);  // c0, len 80
}

TEST_F(BiSemanticsTest, Bi1CutoffExcludesLaterMessages) {
  Bi1Params params{core::DateFromCivil(2010, 5, 1)};  // before post1
  std::vector<Bi1Row> rows = RunBi1(graph(), params);
  int64_t total = 0;
  for (const Bi1Row& r : rows) total += r.message_count;
  EXPECT_EQ(total, 3);  // post0, c0, c1
}

TEST_F(BiSemanticsTest, Bi3ComparesAdjacentMonths) {
  Bi3Params params{2010, 4};
  std::vector<Bi3Row> rows = RunBi3(graph(), params);
  ASSERT_EQ(rows.size(), 2u);
  // April: Mozart 2 (post0, c1), Bach 1 (c0). May: Bach 1 (post1).
  EXPECT_EQ(rows[0].tag, "Mozart");
  EXPECT_EQ(rows[0].count_month1, 2);
  EXPECT_EQ(rows[0].count_month2, 0);
  EXPECT_EQ(rows[0].diff, 2);
  EXPECT_EQ(rows[1].tag, "Bach");
  EXPECT_EQ(rows[1].count_month1, 1);
  EXPECT_EQ(rows[1].count_month2, 1);
  EXPECT_EQ(rows[1].diff, 0);
}

TEST_F(BiSemanticsTest, Bi4CountsClassTaggedPostsPerForum) {
  Bi4Params params{"Musician", "Germany"};
  std::vector<Bi4Row> rows = RunBi4(graph(), params);
  ASSERT_EQ(rows.size(), 1u);  // alice's wall, moderated from Germany
  EXPECT_EQ(rows[0].forum_id, kWall);
  EXPECT_EQ(rows[0].moderator_id, kAlice);
  EXPECT_EQ(rows[0].post_count, 2);  // both posts carry Musician-class tags
}

TEST_F(BiSemanticsTest, Bi6ScoresTopicActivity) {
  Bi6Params params{"Mozart"};
  std::vector<Bi6Row> rows = RunBi6(graph(), params);
  // Mozart messages: post0 (alice; 2 likes, 1 direct reply) and c1 (carol;
  // 0 likes, 0 replies).
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].person_id, kAlice);
  EXPECT_EQ(rows[0].message_count, 1);
  EXPECT_EQ(rows[0].reply_count, 1);
  EXPECT_EQ(rows[0].like_count, 2);
  EXPECT_EQ(rows[0].score, 1 + 2 * 1 + 10 * 2);
  EXPECT_EQ(rows[1].person_id, kCarol);
  EXPECT_EQ(rows[1].score, 1);
}

TEST_F(BiSemanticsTest, Bi8FindsRelatedTopics) {
  Bi8Params params{"Mozart"};
  std::vector<Bi8Row> rows = RunBi8(graph(), params);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].related_tag, "Bach");  // c0 replies post0
  EXPECT_EQ(rows[0].count, 1);
}

TEST_F(BiSemanticsTest, Bi12FiltersOnLikeThreshold) {
  Bi12Params params{core::DateFromCivil(2010, 1, 1), 1};
  std::vector<Bi12Row> rows = RunBi12(graph(), params);
  ASSERT_EQ(rows.size(), 1u);  // only post0 has > 1 like
  EXPECT_EQ(rows[0].message_id, kPost0);
  EXPECT_EQ(rows[0].like_count, 2);
  EXPECT_EQ(rows[0].creator_first_name, "Alice");
}

TEST_F(BiSemanticsTest, Bi13GroupsTagsByMonth) {
  Bi13Params params{"Germany"};
  std::vector<Bi13Row> rows = RunBi13(graph(), params);
  // German messages: post0 (April, Mozart), c0 (April, Bach).
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].year, 2010);
  EXPECT_EQ(rows[0].month, 4);
  ASSERT_EQ(rows[0].popular_tags.size(), 2u);
  // Equal counts: name ascending.
  EXPECT_EQ(rows[0].popular_tags[0].first, "Bach");
  EXPECT_EQ(rows[0].popular_tags[1].first, "Mozart");
}

TEST_F(BiSemanticsTest, Bi14CountsThreadsAndTreeMessages) {
  Bi14Params params{core::DateFromCivil(2010, 1, 1),
                    core::DateFromCivil(2010, 12, 31)};
  std::vector<Bi14Row> rows = RunBi14(graph(), params);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].person_id, kAlice);
  EXPECT_EQ(rows[0].thread_count, 1);
  EXPECT_EQ(rows[0].message_count, 3);  // post0 + c0 + c1
  EXPECT_EQ(rows[1].person_id, kBob);
  EXPECT_EQ(rows[1].message_count, 1);
}

TEST_F(BiSemanticsTest, Bi16FindsExpertsInCircle) {
  Bi16Params params{kAlice, "Germany", "Musician", 1, 2};
  std::vector<Bi16Row> rows = RunBi16(graph(), params);
  // In-circle Germans: bob (d1), dave (d1). Bob's Musician messages:
  // post1 + c0, both tagged Bach only.
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].person_id, kBob);
  EXPECT_EQ(rows[0].tag, "Bach");
  EXPECT_EQ(rows[0].message_count, 2);
}

TEST_F(BiSemanticsTest, Bi17CountsTriangles) {
  EXPECT_EQ(RunBi17(graph(), {"Germany"})[0].count, 1);
  EXPECT_EQ(RunBi17(graph(), {"France"})[0].count, 0);
  EXPECT_TRUE(RunBi17(graph(), {"Narnia"}).size() == 1 &&
              RunBi17(graph(), {"Narnia"})[0].count == 0);
}

TEST_F(BiSemanticsTest, Bi18CountsPersonsPerMessageCount) {
  // length < 90, after 2010-01-01, languages {de, en}: qualifying messages:
  // post0 (de, 50) by alice; c0 (root post0 → de, 80) by bob; c1 (root
  // post0 → de, 20) by carol. post1 (en, 100) fails the length filter.
  Bi18Params params{core::DateFromCivil(2010, 1, 1), 90, {"de", "en"}};
  std::vector<Bi18Row> rows = RunBi18(graph(), params);
  ASSERT_EQ(rows.size(), 2u);
  // Three persons with exactly 1 message, one person (dave) with 0.
  EXPECT_EQ(rows[0].message_count, 1);
  EXPECT_EQ(rows[0].person_count, 3);
  EXPECT_EQ(rows[1].message_count, 0);
  EXPECT_EQ(rows[1].person_count, 1);
}

TEST_F(BiSemanticsTest, Bi20RollsUpTagClassHierarchy) {
  Bi20Params params{{"Musician", "Person", "Thing"}};
  std::vector<Bi20Row> rows = RunBi20(graph(), params);
  ASSERT_EQ(rows.size(), 3u);
  // All four messages carry Musician-class tags; ancestors roll up the
  // same set. Ties break by name ascending.
  for (const Bi20Row& r : rows) EXPECT_EQ(r.message_count, 4);
  EXPECT_EQ(rows[0].tag_class, "Musician");
  EXPECT_EQ(rows[1].tag_class, "Person");
  EXPECT_EQ(rows[2].tag_class, "Thing");
}

TEST_F(BiSemanticsTest, Bi21ScoresZombies) {
  Bi21Params params{"Germany", core::DateFromCivil(2011, 1, 1)};
  std::vector<Bi21Row> rows = RunBi21(graph(), params);
  // All three Germans are zombies (far fewer messages than months).
  ASSERT_EQ(rows.size(), 3u);
  // alice: 2 likes, both from zombies (bob, carol) → score 1.0.
  EXPECT_EQ(rows[0].zombie_id, kAlice);
  EXPECT_EQ(rows[0].zombie_like_count, 2);
  EXPECT_EQ(rows[0].total_like_count, 2);
  EXPECT_DOUBLE_EQ(rows[0].zombie_score, 1.0);
  EXPECT_EQ(rows[1].zombie_id, kBob);
  EXPECT_DOUBLE_EQ(rows[1].zombie_score, 1.0);
  EXPECT_EQ(rows[2].zombie_id, kDave);
  EXPECT_EQ(rows[2].total_like_count, 0);
  EXPECT_DOUBLE_EQ(rows[2].zombie_score, 0.0);
}

TEST_F(BiSemanticsTest, Bi22ScoresInternationalDialog) {
  Bi22Params params{"Germany", "France"};
  std::vector<Bi22Row> rows = RunBi22(graph(), params);
  ASSERT_EQ(rows.size(), 2u);
  // bob–carol: reply (c1 on c0) 4 + knows 10 = 14.
  EXPECT_EQ(rows[0].person1_id, kBob);
  EXPECT_EQ(rows[0].person2_id, kCarol);
  EXPECT_EQ(rows[0].score, 14);
  EXPECT_EQ(rows[0].city1, "Berlin");
  // alice–carol: carol's like on post0 = 1.
  EXPECT_EQ(rows[1].person1_id, kAlice);
  EXPECT_EQ(rows[1].score, 1);
}

TEST_F(BiSemanticsTest, Bi23FindsHolidayDestinations) {
  // Germans posting from outside Germany: post1 by bob from France (May).
  Bi23Params params{"Germany"};
  std::vector<Bi23Row> rows = RunBi23(graph(), params);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].destination, "France");
  EXPECT_EQ(rows[0].month, 5);
  EXPECT_EQ(rows[0].message_count, 1);
}

TEST_F(BiSemanticsTest, Bi24GroupsByContinent) {
  Bi24Params params{"Musician"};
  std::vector<Bi24Row> rows = RunBi24(graph(), params);
  // All messages are in Europe: April (post0, c0, c1), May (post1).
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].month, 4);
  EXPECT_EQ(rows[0].message_count, 3);
  EXPECT_EQ(rows[0].continent, "Europe");
  EXPECT_EQ(rows[0].like_count, 3);  // 2 on post0 + 1 on c0
  EXPECT_EQ(rows[1].month, 5);
  EXPECT_EQ(rows[1].like_count, 1);
}

// Musician-tagged posts, each with one reply comment and one like, on both
// sides of a month boundary (June → July 2010) and of a year boundary
// (December 2010 → January 2011): the last and the first millisecond.
struct BoundaryMessages {
  std::vector<core::Post> posts;
  std::vector<core::Comment> comments;
  std::vector<core::Like> likes;
};

BoundaryMessages MakeBoundaryMessages(const core::SocialNetwork& fixture) {
  BoundaryMessages out;
  const core::DateTime instants[] = {
      DateTimeFromCivil(2010, 7, 1) - 1, DateTimeFromCivil(2010, 7, 1),
      DateTimeFromCivil(2011, 1, 1) - 1, DateTimeFromCivil(2011, 1, 1)};
  core::Id id = 100;
  for (core::DateTime at : instants) {
    core::Post post = fixture.posts[0];
    post.id = id++;
    post.creation_date = at;
    post.country = out.posts.size() % 2 == 0 ? kGermany : kFrance;
    core::Comment comment = fixture.comments[0];
    comment.id = id++;
    comment.creation_date = at;
    comment.reply_of_post = post.id;
    out.likes.push_back({kDave, post.id, true, at});
    out.posts.push_back(std::move(post));
    out.comments.push_back(std::move(comment));
  }
  return out;
}

TEST(Bi24BoundaryTest, MonthAndYearEdgesMatchTheNaiveEngine) {
  const Bi24Params params{"Musician"};
  auto expect_edges = [&](const storage::Graph& graph, const char* state) {
    const std::vector<Bi24Row> rows = RunBi24(graph, params);
    EXPECT_EQ(rows, naive::RunBi24(graph, params)) << state;
    // Each edge month holds one post and one comment, in Europe.
    for (auto [year, month] : {std::pair{2010, 6}, std::pair{2010, 7},
                               std::pair{2010, 12}, std::pair{2011, 1}}) {
      auto it = std::find_if(rows.begin(), rows.end(), [&](const Bi24Row& r) {
        return r.year == year && r.month == month;
      });
      ASSERT_NE(it, rows.end()) << state << " " << year << "-" << month;
      EXPECT_EQ(it->message_count, 2) << state;
      EXPECT_EQ(it->like_count, 1) << state;
      EXPECT_EQ(it->continent, "Europe") << state;
    }
  };

  // Bulk-loaded: the messages sit in the sorted index base.
  core::SocialNetwork net = MakeFixtureNetwork();
  BoundaryMessages edges = MakeBoundaryMessages(net);
  net.posts.insert(net.posts.end(), edges.posts.begin(), edges.posts.end());
  net.comments.insert(net.comments.end(), edges.comments.begin(),
                      edges.comments.end());
  net.likes.insert(net.likes.end(), edges.likes.begin(), edges.likes.end());
  expect_edges(storage::Graph(std::move(net)), "bulk");

  // Inserted through IU 6/7/2: they sit in the index tail.
  storage::Graph graph(MakeFixtureNetwork());
  for (size_t i = 0; i < edges.posts.size(); ++i) {
    ASSERT_NE(graph.AddPost(edges.posts[i]), storage::kNoIdx);
    ASSERT_NE(graph.AddComment(edges.comments[i]), storage::kNoIdx);
    graph.AddLikePost(edges.likes[i].person, edges.likes[i].message,
                      edges.likes[i].creation_date);
  }
  expect_edges(graph, "inserted");
}

TEST_F(BiSemanticsTest, Bi25WeighsTrustedPaths) {
  Bi25Params params{kAlice, kCarol, core::DateFromCivil(2010, 1, 1),
                    core::DateFromCivil(2010, 12, 31)};
  std::vector<Bi25Row> rows = RunBi25(graph(), params);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].person_ids, (std::vector<core::Id>{kAlice, kBob, kCarol}));
  // alice–bob: c0 replies post0 → 1.0; bob–carol: c1 replies c0 → 0.5.
  EXPECT_DOUBLE_EQ(rows[0].weight, 1.5);
}

TEST_F(BiSemanticsTest, Bi25WindowExcludesForums) {
  // The wall was created 2010-01-06; a window after that zeroes the weight.
  Bi25Params params{kAlice, kCarol, core::DateFromCivil(2010, 2, 1),
                    core::DateFromCivil(2010, 12, 31)};
  std::vector<Bi25Row> rows = RunBi25(graph(), params);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].weight, 0.0);
}

TEST_F(BiSemanticsTest, UnknownParametersYieldEmptyResults) {
  EXPECT_TRUE(RunBi4(graph(), {"NoClass", "Germany"}).empty());
  EXPECT_TRUE(RunBi6(graph(), {"NoTag"}).empty());
  EXPECT_TRUE(RunBi13(graph(), {"Atlantis"}).empty());
  EXPECT_TRUE(RunBi22(graph(), {"Atlantis", "France"}).empty());
  EXPECT_TRUE(RunBi25(graph(), {999, kCarol, 0, 0}).empty());
}

// ---------------------------------------------------------------------------
// Structural invariants on a generated network.
// ---------------------------------------------------------------------------

class BiInvariantsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::DatagenConfig cfg;
    cfg.num_persons = 300;
    cfg.activity_scale = 0.5;
    datagen::GeneratedData data = datagen::Generate(cfg);
    graph_ = new storage::Graph(std::move(data.network));
    params::CurationConfig pc;
    pc.per_query = 3;
    params_ = new params::WorkloadParameters(
        params::CurateParameters(*graph_, pc));
  }
  static void TearDownTestSuite() {
    delete params_;
    delete graph_;
  }
  static const storage::Graph& graph() { return *graph_; }
  static const params::WorkloadParameters& params() { return *params_; }

 private:
  static storage::Graph* graph_;
  static params::WorkloadParameters* params_;
};

storage::Graph* BiInvariantsTest::graph_ = nullptr;
params::WorkloadParameters* BiInvariantsTest::params_ = nullptr;

TEST_F(BiInvariantsTest, LimitsRespected) {
  EXPECT_LE(RunBi2(graph(), params().bi2[0]).size(), 100u);
  EXPECT_LE(RunBi3(graph(), params().bi3[0]).size(), 100u);
  EXPECT_LE(RunBi4(graph(), params().bi4[0]).size(), 20u);
  EXPECT_LE(RunBi5(graph(), params().bi5[0]).size(), 100u);
  EXPECT_LE(RunBi12(graph(), params().bi12[0]).size(), 100u);
  EXPECT_LE(RunBi13(graph(), params().bi13[0]).size(), 100u);
  EXPECT_LE(RunBi16(graph(), params().bi16[0]).size(), 100u);
}

TEST_F(BiInvariantsTest, Bi1PercentagesSumToOne) {
  std::vector<Bi1Row> rows = RunBi1(graph(), params().bi1[0]);
  ASSERT_FALSE(rows.empty());
  double total_pct = 0;
  int64_t total_count = 0;
  for (const Bi1Row& r : rows) {
    total_pct += r.percentage_of_messages;
    total_count += r.message_count;
    EXPECT_GT(r.message_count, 0);
    EXPECT_NEAR(r.average_message_length,
                static_cast<double>(r.sum_message_length) /
                    static_cast<double>(r.message_count),
                1e-9);
  }
  EXPECT_NEAR(total_pct, 1.0, 1e-9);
  EXPECT_GT(total_count, 0);
}

TEST_F(BiInvariantsTest, Bi12SortedByLikesThenId) {
  std::vector<Bi12Row> rows =
      RunBi12(graph(), {core::DateFromCivil(2010, 1, 1), 0});
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i - 1].like_count, rows[i].like_count);
    if (rows[i - 1].like_count == rows[i].like_count) {
      EXPECT_LE(rows[i - 1].message_id, rows[i].message_id);
    }
  }
}

TEST_F(BiInvariantsTest, Bi13TagListsBoundedAndSorted) {
  for (const Bi13Row& row : RunBi13(graph(), params().bi13[0])) {
    EXPECT_LE(row.popular_tags.size(), 5u);
    for (size_t i = 1; i < row.popular_tags.size(); ++i) {
      EXPECT_GE(row.popular_tags[i - 1].second, row.popular_tags[i].second);
    }
  }
}

TEST_F(BiInvariantsTest, Bi17TriangleCountNonNegativeAndBounded) {
  for (const auto& p : params().bi17) {
    auto rows = RunBi17(graph(), p);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_GE(rows[0].count, 0);
  }
}

TEST_F(BiInvariantsTest, Bi18PersonCountsCoverAllPersons) {
  std::vector<Bi18Row> rows = RunBi18(graph(), params().bi18[0]);
  int64_t persons = 0;
  for (const Bi18Row& r : rows) persons += r.person_count;
  EXPECT_EQ(persons, static_cast<int64_t>(graph().NumPersons()));
}

TEST_F(BiInvariantsTest, Bi21ScoresAreRatios) {
  for (const Bi21Row& r : RunBi21(graph(), params().bi21[0])) {
    EXPECT_GE(r.zombie_like_count, 0);
    EXPECT_LE(r.zombie_like_count, r.total_like_count);
    EXPECT_GE(r.zombie_score, 0.0);
    EXPECT_LE(r.zombie_score, 1.0);
  }
}

}  // namespace
}  // namespace snb::bi
