// Serializer + loader tests: CsvBasic emits exactly the Table 2.13 file
// set, CsvMergeForeign the Table 2.14 set, round-tripping through the
// loader reproduces the network, and update streams serialize per
// Tables 2.17–2.18.

#include <gtest/gtest.h>

#include <algorithm>

#include <filesystem>
#include <set>

#include "datagen/datagen.h"
#include "datagen/serializer.h"
#include "datagen/update_stream.h"
#include "storage/loader.h"
#include "util/csv.h"

namespace snb::datagen {
namespace {

namespace fs = std::filesystem;

DatagenConfig TinyConfig() {
  DatagenConfig cfg;
  cfg.num_persons = 150;
  cfg.activity_scale = 0.3;
  return cfg;
}

class SerializerFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new GeneratedData(Generate(TinyConfig()));
    dir_ = new std::string(::testing::TempDir() + "/snb_serializer");
    fs::remove_all(*dir_);
    ASSERT_TRUE(WriteCsvBasic(data_->network, *dir_ + "/basic").ok());
    ASSERT_TRUE(
        WriteCsvMergeForeign(data_->network, *dir_ + "/merge").ok());
    ASSERT_TRUE(WriteUpdateStreams(data_->updates, *dir_ + "/streams").ok());
  }
  static void TearDownTestSuite() {
    delete data_;
    delete dir_;
  }
  static const GeneratedData& data() { return *data_; }
  static const std::string& dir() { return *dir_; }

 private:
  static GeneratedData* data_;
  static std::string* dir_;
};

GeneratedData* SerializerFixture::data_ = nullptr;
std::string* SerializerFixture::dir_ = nullptr;

std::set<std::string> CollectStems(const std::string& root) {
  std::set<std::string> stems;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    size_t pos = name.find("_0_0.csv");
    if (pos != std::string::npos) stems.insert(name.substr(0, pos));
  }
  return stems;
}

TEST_F(SerializerFixture, CsvBasicEmitsExactlyTable213Files) {
  std::set<std::string> expected(CsvBasicFileStems().begin(),
                                 CsvBasicFileStems().end());
  EXPECT_EQ(expected.size(), 33u);  // Table 2.13: 33 files
  EXPECT_EQ(CollectStems(dir() + "/basic"), expected);
}

TEST_F(SerializerFixture, CsvMergeForeignEmitsExactlyTable214Files) {
  std::set<std::string> expected(CsvMergeForeignFileStems().begin(),
                                 CsvMergeForeignFileStems().end());
  EXPECT_EQ(expected.size(), 20u);  // Table 2.14: 20 files
  EXPECT_EQ(CollectStems(dir() + "/merge"), expected);
}

TEST_F(SerializerFixture, StaticAndDynamicDirectoriesSplit) {
  EXPECT_TRUE(fs::exists(dir() + "/basic/static/place_0_0.csv"));
  EXPECT_TRUE(fs::exists(dir() + "/basic/dynamic/person_0_0.csv"));
  EXPECT_FALSE(fs::exists(dir() + "/basic/static/person_0_0.csv"));
}

TEST_F(SerializerFixture, LoaderRoundtripPreservesCounts) {
  auto loaded_or = storage::LoadCsvBasic(dir() + "/basic");
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  const core::SocialNetwork& loaded = loaded_or.value();
  const core::SocialNetwork& original = data().network;
  EXPECT_EQ(loaded.persons.size(), original.persons.size());
  EXPECT_EQ(loaded.forums.size(), original.forums.size());
  EXPECT_EQ(loaded.posts.size(), original.posts.size());
  EXPECT_EQ(loaded.comments.size(), original.comments.size());
  EXPECT_EQ(loaded.knows.size(), original.knows.size());
  EXPECT_EQ(loaded.likes.size(), original.likes.size());
  EXPECT_EQ(loaded.memberships.size(), original.memberships.size());
  EXPECT_EQ(loaded.places.size(), original.places.size());
  EXPECT_EQ(loaded.tags.size(), original.tags.size());
  EXPECT_EQ(loaded.tag_classes.size(), original.tag_classes.size());
  EXPECT_EQ(loaded.organisations.size(), original.organisations.size());
  EXPECT_EQ(loaded.NumEdges(), original.NumEdges());
}

TEST_F(SerializerFixture, LoaderRoundtripPreservesPersonAttributes) {
  auto loaded_or = storage::LoadCsvBasic(dir() + "/basic");
  ASSERT_TRUE(loaded_or.ok());
  const core::SocialNetwork& loaded = loaded_or.value();
  const core::SocialNetwork& original = data().network;
  // Persons are written in order; compare one-to-one.
  ASSERT_EQ(loaded.persons.size(), original.persons.size());
  for (size_t i = 0; i < loaded.persons.size(); ++i) {
    const core::Person& a = loaded.persons[i];
    const core::Person& b = original.persons[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.first_name, b.first_name);
    EXPECT_EQ(a.last_name, b.last_name);
    EXPECT_EQ(a.gender, b.gender);
    EXPECT_EQ(a.birthday, b.birthday);
    EXPECT_EQ(a.creation_date, b.creation_date);
    EXPECT_EQ(a.city, b.city);
    EXPECT_EQ(a.emails, b.emails);
    EXPECT_EQ(a.speaks, b.speaks);
    EXPECT_EQ(a.interests, b.interests);
    ASSERT_EQ(a.study_at.size(), b.study_at.size());
    for (size_t s = 0; s < a.study_at.size(); ++s) {
      EXPECT_EQ(a.study_at[s].university, b.study_at[s].university);
      EXPECT_EQ(a.study_at[s].class_year, b.study_at[s].class_year);
    }
  }
}

TEST_F(SerializerFixture, LoaderRoundtripPreservesMessages) {
  auto loaded_or = storage::LoadCsvBasic(dir() + "/basic");
  ASSERT_TRUE(loaded_or.ok());
  const core::SocialNetwork& loaded = loaded_or.value();
  const core::SocialNetwork& original = data().network;
  ASSERT_EQ(loaded.posts.size(), original.posts.size());
  for (size_t i = 0; i < loaded.posts.size(); ++i) {
    EXPECT_EQ(loaded.posts[i].id, original.posts[i].id);
    EXPECT_EQ(loaded.posts[i].creation_date, original.posts[i].creation_date);
    EXPECT_EQ(loaded.posts[i].creator, original.posts[i].creator);
    EXPECT_EQ(loaded.posts[i].forum, original.posts[i].forum);
    EXPECT_EQ(loaded.posts[i].length, original.posts[i].length);
    EXPECT_EQ(loaded.posts[i].tags, original.posts[i].tags);
  }
  ASSERT_EQ(loaded.comments.size(), original.comments.size());
  for (size_t i = 0; i < loaded.comments.size(); ++i) {
    EXPECT_EQ(loaded.comments[i].id, original.comments[i].id);
    EXPECT_EQ(loaded.comments[i].reply_of_post,
              original.comments[i].reply_of_post);
    EXPECT_EQ(loaded.comments[i].reply_of_comment,
              original.comments[i].reply_of_comment);
  }
}

TEST_F(SerializerFixture, UpdateStreamFilesSplitPersonVsForum) {
  std::string person_file = dir() + "/streams/updateStream_0_0_person.csv";
  std::string forum_file = dir() + "/streams/updateStream_0_0_forum.csv";
  ASSERT_TRUE(fs::exists(person_file));
  ASSERT_TRUE(fs::exists(forum_file));

  size_t person_rows = 0, forum_rows = 0;
  std::FILE* f = std::fopen(person_file.c_str(), "r");
  char line[1 << 16];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    ++person_rows;
    // opId of every person-stream row is 1 (IU 1).
    std::string s(line);
    size_t p1 = s.find('|');
    size_t p2 = s.find('|', p1 + 1);
    size_t p3 = s.find('|', p2 + 1);
    EXPECT_EQ(s.substr(p2 + 1, p3 - p2 - 1), "1");
  }
  std::fclose(f);
  f = std::fopen(forum_file.c_str(), "r");
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    ++forum_rows;
    std::string s(line);
    size_t p1 = s.find('|');
    size_t p2 = s.find('|', p1 + 1);
    size_t p3 = s.find('|', p2 + 1);
    std::string op = s.substr(p2 + 1, p3 - p2 - 1);
    int op_num = std::stoi(op);
    EXPECT_GE(op_num, 2);
    EXPECT_LE(op_num, 8);
  }
  std::fclose(f);
  EXPECT_EQ(person_rows + forum_rows, data().updates.size());
}

TEST_F(SerializerFixture, UpdateEventFieldCountsMatchTable218) {
  // Spec Table 2.18 field counts (excluding t, t_d, opId).
  for (const UpdateEvent& e : data().updates) {
    const std::string line = FormatUpdateEventLine(e);
    // Generated fields hold no '|': t|t_d|opId plus n fields has n + 2.
    size_t fields =
        static_cast<size_t>(std::count(line.begin(), line.end(), '|')) - 2;
    switch (e.kind) {
      case UpdateKind::kAddPerson:
        EXPECT_EQ(fields, 14u);
        break;
      case UpdateKind::kAddLikePost:
      case UpdateKind::kAddLikeComment:
      case UpdateKind::kAddMembership:
      case UpdateKind::kAddKnows:
        EXPECT_EQ(fields, 3u);
        break;
      case UpdateKind::kAddForum:
        EXPECT_EQ(fields, 5u);
        break;
      case UpdateKind::kAddPost:
        EXPECT_EQ(fields, 12u);
        break;
      case UpdateKind::kAddComment:
        EXPECT_EQ(fields, 11u);
        break;
      case UpdateKind::kDelPerson:
      case UpdateKind::kDelForum:
      case UpdateKind::kDelPost:
      case UpdateKind::kDelComment:
        EXPECT_EQ(fields, 1u);
        break;
      case UpdateKind::kDelLikePost:
      case UpdateKind::kDelLikeComment:
      case UpdateKind::kDelMembership:
      case UpdateKind::kDelKnows:
        EXPECT_EQ(fields, 2u);
        break;
    }
  }
}

TEST_F(SerializerFixture, SerializedTextHasNoSeparatorLeaks) {
  auto table_or = util::ReadCsv(dir() + "/basic/dynamic/post_0_0.csv");
  ASSERT_TRUE(table_or.ok());
  // Row width equals header width for every row is checked by ReadCsv; a
  // content field containing '|' would have failed the read.
  EXPECT_EQ(table_or.value().header.size(), 8u);
}

}  // namespace
}  // namespace snb::datagen
