// Datagen tests: determinism, referential integrity, temporal ordering,
// bulk/update-stream split, correlation (homophily), degree distribution,
// flashmob time correlation, scaling behaviour, and GenerateStreaming's
// on-disk output.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "datagen/datagen.h"
#include "datagen/person_generator.h"
#include "datagen/serializer.h"
#include "datagen/statistics.h"
#include "datagen/streaming.h"
#include "datagen/update_stream.h"

namespace snb::datagen {
namespace {

using core::SocialNetwork;

DatagenConfig SmallConfig(uint64_t seed = 42) {
  DatagenConfig cfg;
  cfg.seed = seed;
  cfg.num_persons = 300;
  cfg.activity_scale = 0.5;
  return cfg;
}

class DatagenFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new GeneratedData(Generate(SmallConfig()));
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }
  static const GeneratedData& data() { return *data_; }

 private:
  static GeneratedData* data_;
};

GeneratedData* DatagenFixture::data_ = nullptr;

TEST_F(DatagenFixture, ProducesNonTrivialNetwork) {
  const SocialNetwork& net = data().network;
  EXPECT_GT(net.persons.size(), 200u);
  EXPECT_GT(net.knows.size(), 100u);
  EXPECT_GT(net.forums.size(), net.persons.size());  // wall per person +
  EXPECT_GT(net.posts.size(), net.persons.size());
  EXPECT_GT(net.comments.size(), 0u);
  EXPECT_GT(net.likes.size(), 0u);
  EXPECT_FALSE(net.places.empty());
  EXPECT_FALSE(net.tags.empty());
  EXPECT_FALSE(net.organisations.empty());
}

TEST_F(DatagenFixture, IsDeterministic) {
  GeneratedData again = Generate(SmallConfig());
  const SocialNetwork& a = data().network;
  const SocialNetwork& b = again.network;
  ASSERT_EQ(a.persons.size(), b.persons.size());
  ASSERT_EQ(a.posts.size(), b.posts.size());
  ASSERT_EQ(a.comments.size(), b.comments.size());
  ASSERT_EQ(a.knows.size(), b.knows.size());
  ASSERT_EQ(a.likes.size(), b.likes.size());
  ASSERT_EQ(data().updates.size(), again.updates.size());
  for (size_t i = 0; i < a.persons.size(); ++i) {
    EXPECT_EQ(a.persons[i].first_name, b.persons[i].first_name);
    EXPECT_EQ(a.persons[i].creation_date, b.persons[i].creation_date);
  }
  for (size_t i = 0; i < a.posts.size(); ++i) {
    EXPECT_EQ(a.posts[i].creation_date, b.posts[i].creation_date);
    EXPECT_EQ(a.posts[i].content, b.posts[i].content);
  }
}

TEST_F(DatagenFixture, DifferentSeedsDiffer) {
  GeneratedData other = Generate(SmallConfig(/*seed=*/1234));
  // Same sizes are possible, identical contents are not.
  bool any_difference =
      other.network.posts.size() != data().network.posts.size();
  if (!any_difference) {
    for (size_t i = 0; i < other.network.persons.size(); ++i) {
      if (other.network.persons[i].first_name !=
          data().network.persons[i].first_name) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST_F(DatagenFixture, ReferentialIntegrity) {
  const SocialNetwork& net = data().network;
  std::unordered_set<core::Id> persons, forums, posts, comments, tags, places;
  for (const auto& p : net.persons) persons.insert(p.id);
  for (const auto& f : net.forums) forums.insert(f.id);
  for (const auto& p : net.posts) posts.insert(p.id);
  for (const auto& c : net.comments) comments.insert(c.id);
  for (const auto& t : net.tags) tags.insert(t.id);
  for (const auto& p : net.places) places.insert(p.id);

  for (const auto& k : net.knows) {
    EXPECT_TRUE(persons.contains(k.person1));
    EXPECT_TRUE(persons.contains(k.person2));
    EXPECT_NE(k.person1, k.person2);
  }
  for (const auto& f : net.forums) {
    EXPECT_TRUE(persons.contains(f.moderator));
    for (core::Id t : f.tags) EXPECT_TRUE(tags.contains(t));
  }
  for (const auto& m : net.memberships) {
    EXPECT_TRUE(forums.contains(m.forum));
    EXPECT_TRUE(persons.contains(m.person));
  }
  for (const auto& p : net.posts) {
    EXPECT_TRUE(persons.contains(p.creator));
    EXPECT_TRUE(forums.contains(p.forum));
    EXPECT_TRUE(places.contains(p.country));
    for (core::Id t : p.tags) EXPECT_TRUE(tags.contains(t));
  }
  for (const auto& c : net.comments) {
    EXPECT_TRUE(persons.contains(c.creator));
    // Exactly one reply target.
    EXPECT_NE(c.reply_of_post == core::kNoId,
              c.reply_of_comment == core::kNoId);
    if (c.reply_of_post != core::kNoId) {
      EXPECT_TRUE(posts.contains(c.reply_of_post));
    } else {
      EXPECT_TRUE(comments.contains(c.reply_of_comment));
    }
  }
  for (const auto& l : net.likes) {
    EXPECT_TRUE(persons.contains(l.person));
    EXPECT_TRUE(l.is_post ? posts.contains(l.message)
                          : comments.contains(l.message));
  }
}

TEST_F(DatagenFixture, PostsHaveContentXorImage) {
  for (const auto& p : data().network.posts) {
    EXPECT_NE(p.content.empty(), p.image_file.empty()) << "post " << p.id;
    if (!p.content.empty()) {
      EXPECT_EQ(static_cast<int32_t>(p.content.size()), p.length);
    } else {
      EXPECT_EQ(p.length, 0);
    }
  }
}

TEST_F(DatagenFixture, CommentLengthsMatchContent) {
  for (const auto& c : data().network.comments) {
    EXPECT_FALSE(c.content.empty());
    EXPECT_EQ(static_cast<int32_t>(c.content.size()), c.length);
  }
}

TEST_F(DatagenFixture, TemporalOrdering) {
  const SocialNetwork& net = data().network;
  std::unordered_map<core::Id, core::DateTime> person_created, forum_created,
      post_created, comment_created;
  for (const auto& p : net.persons) person_created[p.id] = p.creation_date;
  for (const auto& f : net.forums) forum_created[f.id] = f.creation_date;
  for (const auto& p : net.posts) post_created[p.id] = p.creation_date;
  for (const auto& c : net.comments) comment_created[c.id] = c.creation_date;

  for (const auto& k : net.knows) {
    EXPECT_GE(k.creation_date, person_created[k.person1]);
    EXPECT_GE(k.creation_date, person_created[k.person2]);
  }
  for (const auto& f : net.forums) {
    EXPECT_GE(f.creation_date, person_created[f.moderator]);
  }
  for (const auto& m : net.memberships) {
    EXPECT_GE(m.join_date, forum_created[m.forum]);
    EXPECT_GE(m.join_date, person_created[m.person]);
  }
  for (const auto& p : net.posts) {
    EXPECT_GE(p.creation_date, person_created[p.creator]);
    EXPECT_GE(p.creation_date, forum_created[p.forum]);
  }
  for (const auto& c : net.comments) {
    EXPECT_GE(c.creation_date, person_created[c.creator]);
    if (c.reply_of_post != core::kNoId) {
      EXPECT_GT(c.creation_date, post_created[c.reply_of_post]);
    } else {
      EXPECT_GT(c.creation_date, comment_created[c.reply_of_comment]);
    }
  }
  for (const auto& l : net.likes) {
    EXPECT_GT(l.creation_date,
              l.is_post ? post_created[l.message] : comment_created[l.message]);
    EXPECT_GE(l.creation_date, person_created[l.person]);
  }
}

TEST_F(DatagenFixture, MessageIdsAreCreationOrdered) {
  // Ids are assigned in creation-date order (CP-3.2 dimensional clustering).
  const SocialNetwork& net = data().network;
  for (size_t i = 1; i < net.posts.size(); ++i) {
    EXPECT_LE(net.posts[i - 1].creation_date, net.posts[i].creation_date);
    EXPECT_LT(net.posts[i - 1].id, net.posts[i].id);
  }
  for (size_t i = 1; i < net.comments.size(); ++i) {
    EXPECT_LE(net.comments[i - 1].creation_date,
              net.comments[i].creation_date);
  }
}

TEST_F(DatagenFixture, BulkAndUpdatesSplitByTime) {
  const core::DateTime split = data().split_time;
  const SocialNetwork& net = data().network;
  for (const auto& p : net.persons) EXPECT_LT(p.creation_date, split);
  for (const auto& k : net.knows) EXPECT_LT(k.creation_date, split);
  for (const auto& p : net.posts) EXPECT_LT(p.creation_date, split);
  for (const auto& c : net.comments) EXPECT_LT(c.creation_date, split);
  for (const auto& l : net.likes) EXPECT_LT(l.creation_date, split);
  for (const auto& m : net.memberships) EXPECT_LT(m.join_date, split);

  EXPECT_FALSE(data().updates.empty());
  core::DateTime previous = 0;
  for (const UpdateEvent& e : data().updates) {
    EXPECT_GE(e.timestamp, split);
    EXPECT_GE(e.timestamp, previous);  // sorted
    EXPECT_LE(e.dependency, e.timestamp);
    previous = e.timestamp;
  }
}

TEST_F(DatagenFixture, UpdateStreamCarriesRoughlyTenPercent) {
  // The update stream holds the last 10 % of simulated time; activity is
  // roughly uniform, so expect 4–25 % of all messages there.
  size_t update_messages = 0;
  for (const UpdateEvent& e : data().updates) {
    if (e.kind == UpdateKind::kAddPost || e.kind == UpdateKind::kAddComment) {
      ++update_messages;
    }
  }
  size_t total =
      data().total_posts + data().total_comments;
  double fraction = static_cast<double>(update_messages) /
                    static_cast<double>(total);
  EXPECT_GT(fraction, 0.05);
  EXPECT_LT(fraction, 0.18);
}

TEST_F(DatagenFixture, KnowsGraphIsHomophilous) {
  DatasetStatistics s = ComputeStatistics(data().network);
  // Correlated dimensions must beat random pairing by a clear margin
  // (spec §2.3.3.2 homophily requirement).
  EXPECT_GT(s.frac_same_country, s.random_same_country * 1.5);
  EXPECT_GT(s.frac_common_interest, s.random_common_interest * 1.5);
  EXPECT_GT(s.frac_same_university, s.random_same_university * 2.0);
}

TEST_F(DatagenFixture, DegreeDistributionHasHeavyTail) {
  DatasetStatistics s = ComputeStatistics(data().network);
  EXPECT_GT(s.avg_degree, 2.0);
  EXPECT_GT(s.max_degree, static_cast<uint32_t>(3 * s.avg_degree));
}

TEST_F(DatagenFixture, ActivityIsTimeCorrelated) {
  DatasetStatistics s = ComputeStatistics(data().network);
  ASSERT_FALSE(s.posts_per_day.empty());
  // Flashmob events concentrate posts: the busiest day must clearly exceed
  // the median day.
  std::vector<size_t> daily;
  for (const auto& [day, count] : s.posts_per_day) daily.push_back(count);
  std::sort(daily.begin(), daily.end());
  size_t median = daily[daily.size() / 2];
  size_t peak = daily.back();
  EXPECT_GE(peak, 3 * std::max<size_t>(median, 1));
}

TEST_F(DatagenFixture, GenerateStreamingWritesGenerateToDisk) {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() /
                        ("snb_datagen_test_" + std::to_string(getpid()));
  fs::remove_all(root);
  const fs::path ref = root / "ref";
  const fs::path out = root / "out";
  ASSERT_TRUE(WriteCsvBasic(data().network, ref.string()).ok());
  ASSERT_TRUE(WriteUpdateStreams(data().updates, ref.string()).ok());
  StreamingOptions options;
  options.datagen = SmallConfig();
  options.out_dir = out.string();
  StreamingStats stats;
  ASSERT_TRUE(GenerateStreaming(options, &stats).ok());

  // Relative path → bytes of every file under `dir`.
  auto files = [](const fs::path& dir) {
    std::map<std::string, std::string> contents;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream bytes;
      bytes << in.rdbuf();
      contents[fs::relative(entry.path(), dir).string()] = bytes.str();
    }
    return contents;
  };
  const std::map<std::string, std::string> expected = files(ref);
  const std::map<std::string, std::string> actual = files(out);
  EXPECT_EQ(expected.size(), actual.size());
  for (const auto& [rel, bytes] : expected) {
    auto it = actual.find(rel);
    ASSERT_NE(it, actual.end()) << "missing " << rel;
    EXPECT_TRUE(it->second == bytes) << "file differs: " << rel;
  }

  EXPECT_EQ(stats.persons, data().total_persons);
  EXPECT_EQ(stats.knows, data().total_knows);
  EXPECT_EQ(stats.forums, data().total_forums);
  EXPECT_EQ(stats.memberships, data().total_memberships);
  EXPECT_EQ(stats.posts, data().total_posts);
  EXPECT_EQ(stats.comments, data().total_comments);
  EXPECT_EQ(stats.likes, data().total_likes);
  EXPECT_EQ(stats.update_events, data().updates.size());
  EXPECT_EQ(stats.split_time, data().split_time);
  fs::remove_all(root);
}

TEST(MeanDegreeTest, GrowsSublinearly) {
  double d1k = MeanDegreeForNetworkSize(1000);
  double d10k = MeanDegreeForNetworkSize(10'000);
  double d100k = MeanDegreeForNetworkSize(100'000);
  EXPECT_GT(d10k, d1k);
  EXPECT_GT(d100k, d10k);
  EXPECT_LT(d100k / d1k, 100.0 / 2);  // clearly sublinear in n
}

TEST(DatagenScalingTest, VolumesScaleWithPersons) {
  DatagenConfig small = SmallConfig();
  small.num_persons = 150;
  DatagenConfig big = SmallConfig();
  big.num_persons = 600;
  GeneratedData a = Generate(small);
  GeneratedData b = Generate(big);
  EXPECT_GT(b.total_posts, a.total_posts * 2);
  EXPECT_GT(b.total_knows, a.total_knows * 2);
  // Average degree also grows (Facebook densification).
  double deg_a = 2.0 * static_cast<double>(a.total_knows) / 150.0;
  double deg_b = 2.0 * static_cast<double>(b.total_knows) / 600.0;
  EXPECT_GT(deg_b, deg_a);
}

TEST(DatagenActivityScaleTest, ScalesMessageVolume) {
  DatagenConfig lo = SmallConfig();
  lo.activity_scale = 0.25;
  DatagenConfig hi = SmallConfig();
  hi.activity_scale = 1.0;
  GeneratedData a = Generate(lo);
  GeneratedData b = Generate(hi);
  EXPECT_GT(b.total_posts, a.total_posts * 2);
}

TEST(DatagenUpdateFractionTest, ZeroishFractionPutsEverythingInBulk) {
  DatagenConfig cfg = SmallConfig();
  cfg.update_fraction = 1e-9;
  GeneratedData data = Generate(cfg);
  EXPECT_TRUE(data.updates.empty());
  EXPECT_EQ(data.network.persons.size(), data.total_persons);
}

// ---- Update-stream line format ---------------------------------------------

/// One event of every kind, plus a second person with every list empty:
/// multi-valued and empty lists, study/work pairs, reply_of_* = -1, dates
/// before the epoch and content whose '|', ';' and line breaks
/// SanitizeField rewrites.
std::vector<UpdateEvent> EveryKindEvents() {
  using core::DateTimeFromCivil;
  const core::DateTime t = DateTimeFromCivil(2012, 9, 13, 7, 5, 9, 31);
  core::Person person;
  person.id = 933;
  person.first_name = "Mahinda";
  person.last_name = "Perera";
  person.gender = "male";
  person.birthday = core::DateFromCivil(1965, 12, 3);
  person.creation_date = DateTimeFromCivil(2010, 2, 14, 15, 32, 10, 447);
  person.location_ip = "119.235.7.103";
  person.browser_used = "Firefox";
  person.city = 1226;
  person.emails = {"Mahinda933@boarderzone.com", "Mahinda933@hotmail.com"};
  person.speaks = {"si", "en"};
  person.interests = {6, 588, 1185};
  person.study_at = {{6463, 2008}};
  person.work_at = {{1146, 2009}, {947, 2011}};
  core::Person loner;
  loner.id = 34;
  loner.first_name = "Ana";
  loner.last_name = "Silva";
  loner.gender = "female";
  loner.birthday = core::DateFromCivil(1990, 1, 1);
  loner.creation_date = DateTimeFromCivil(1969, 12, 31, 23, 59, 59, 999);
  loner.location_ip = "1.2.3.4";
  loner.browser_used = "Chrome";
  loner.city = 7;
  core::Forum forum;
  forum.id = 2199023255594;
  forum.title = "Group for | Mahinda\nPerera; fans\r";
  forum.creation_date = t;
  forum.moderator = 933;
  forum.kind = core::ForumKind::kGroup;
  core::Post post;
  post.id = 1236950581248;
  post.creation_date = t + 1;
  post.location_ip = "119.235.7.103";
  post.browser_used = "Firefox";
  post.language = "si";
  post.content = "About Sri Lanka | its tea;\nand its hills";
  post.length = 40;
  post.creator = 933;
  post.forum = 2199023255594;
  post.country = 50;
  post.tags = {6, 588};
  core::Comment comment;
  comment.id = 1236950581249;
  comment.creation_date = t + 2;
  comment.location_ip = "1.2.3.4";
  comment.browser_used = "Chrome";
  comment.content = "ok|no\n";
  comment.length = 6;
  comment.creator = 34;
  comment.country = 51;
  comment.reply_of_post = core::kNoId;
  comment.reply_of_comment = 1236950581250;
  core::Like like_post{933, 1236950581248, true, t + 3};
  core::Like like_comment{34, 1236950581249, false, t + 4};
  core::ForumMembership membership{2199023255594, 34, t + 5};
  core::Knows knows{933, 34, t + 6};
  auto at = [t](int64_t k) { return t + 10 * k; };
  return {
      {UpdateKind::kAddPerson, at(0), 0, person},
      {UpdateKind::kAddPerson, at(0), 0, loner},
      {UpdateKind::kAddLikePost, at(1), t + 1, like_post},
      {UpdateKind::kAddLikeComment, at(2), t + 2, like_comment},
      {UpdateKind::kAddForum, at(3), t, forum},
      {UpdateKind::kAddMembership, at(4), t, membership},
      {UpdateKind::kAddPost, at(5), t, post},
      {UpdateKind::kAddComment, at(6), t + 1, comment},
      {UpdateKind::kAddKnows, at(7), t, knows},
      {UpdateKind::kDelPerson, at(8), 0, Delete{933}},
      {UpdateKind::kDelLikePost, at(9), 0, Delete{933, 1236950581248}},
      {UpdateKind::kDelLikeComment, at(10), 0, Delete{34, 1236950581249}},
      {UpdateKind::kDelForum, at(11), 0, Delete{2199023255594}},
      {UpdateKind::kDelMembership, at(12), 0, Delete{34, 2199023255594}},
      {UpdateKind::kDelPost, at(13), 0, Delete{1236950581248}},
      {UpdateKind::kDelComment, at(14), 0, Delete{1236950581249}},
      {UpdateKind::kDelKnows, at(15), 0, Delete{933, 34}},
  };
}

TEST(UpdateStreamFormatTest, GoldenLineForEveryKind) {
  // The lines the formatter wrote when it built them from a field vector;
  // WAL payloads and stream files must stay byte-identical to them.
  const char* const kGolden[] = {
      "1347519909031|0|1|933|Mahinda|Perera|male|1965-12-03|2010-02-14T15:32:10.447+0000|119.235.7.103|Firefox|1226|si;en|Mahinda933@boarderzone.com;Mahinda933@hotmail.com|6;588;1185|6463,2008|1146,2009;947,2011",
      "1347519909031|0|1|34|Ana|Silva|female|1990-01-01|1969-12-31T23:59:59.999+0000|1.2.3.4|Chrome|7|||||",
      "1347519909041|1347519909032|2|933|1236950581248|2012-09-13T07:05:09.034+0000",
      "1347519909051|1347519909033|3|34|1236950581249|2012-09-13T07:05:09.035+0000",
      "1347519909061|1347519909031|4|2199023255594|Group for   Mahinda Perera  fans |2012-09-13T07:05:09.031+0000|933|",
      "1347519909071|1347519909031|5|34|2199023255594|2012-09-13T07:05:09.036+0000",
      "1347519909081|1347519909031|6|1236950581248||2012-09-13T07:05:09.032+0000|119.235.7.103|Firefox|si|About Sri Lanka   its tea  and its hills|40|933|2199023255594|50|6;588",
      "1347519909091|1347519909032|7|1236950581249|2012-09-13T07:05:09.033+0000|1.2.3.4|Chrome|ok no |6|34|51|-1|1236950581250|",
      "1347519909101|1347519909031|8|933|34|2012-09-13T07:05:09.037+0000",
      "1347519909111|0|9|933",
      "1347519909121|0|10|933|1236950581248",
      "1347519909131|0|11|34|1236950581249",
      "1347519909141|0|12|2199023255594",
      "1347519909151|0|13|34|2199023255594",
      "1347519909161|0|14|1236950581248",
      "1347519909171|0|15|1236950581249",
      "1347519909181|0|16|933|34",
  };
  const std::vector<UpdateEvent> events = EveryKindEvents();
  ASSERT_EQ(events.size(), std::size(kGolden));
  for (size_t i = 0; i < events.size(); ++i) {
    const std::string line = FormatUpdateEventLine(events[i]);
    EXPECT_EQ(line, kGolden[i]) << i;
    std::string appended = "prefix";
    AppendUpdateEventLine(events[i], &appended);
    EXPECT_EQ(appended, "prefix" + line) << i;

    UpdateEvent parsed;
    ASSERT_TRUE(ParseUpdateEventLine(line, &parsed).ok()) << line;
    EXPECT_EQ(parsed.kind, events[i].kind) << i;
    EXPECT_EQ(parsed.timestamp, events[i].timestamp) << i;
    EXPECT_EQ(parsed.dependency, events[i].dependency) << i;
    // Sanitizing is lossy, so the round trip is checked on the text.
    EXPECT_EQ(FormatUpdateEventLine(parsed), line) << i;
  }
}

}  // namespace
}  // namespace snb::datagen
