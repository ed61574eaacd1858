// Failure-injection tests for the bulk loader and CSV reader: missing
// files, truncated rows, malformed dates and ids, duplicate and unknown
// ids — the loader must fail with a descriptive Status, never crash,
// silently drop or misattach data, or hand the Graph build a network it
// would abort on.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "datagen/datagen.h"
#include "datagen/serializer.h"
#include "storage/graph.h"
#include "storage/loader.h"
#include "util/csv.h"
#include "validate/validator.h"

namespace snb::storage {
namespace {

namespace fs = std::filesystem;

class LoaderFailureFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::DatagenConfig cfg;
    cfg.num_persons = 120;
    cfg.activity_scale = 0.3;
    datagen::GeneratedData data = datagen::Generate(cfg);
    dir_ = ::testing::TempDir() + "/snb_loader_failure";
    fs::remove_all(dir_);
    ASSERT_TRUE(datagen::WriteCsvBasic(data.network, dir_).ok());
  }

  void Corrupt(const std::string& relative,
               const std::string& replacement_content) {
    std::ofstream out(dir_ + "/" + relative, std::ios::trunc);
    out << replacement_content;
  }

  void Append(const std::string& relative, const std::string& line) {
    std::ofstream out(dir_ + "/" + relative, std::ios::app);
    out << line << "\n";
  }

  /// The first data row of a file (the line after the header).
  std::string FirstRow(const std::string& relative) {
    std::ifstream in(dir_ + "/" + relative);
    std::string line;
    std::getline(in, line);
    std::getline(in, line);
    return line;
  }

  void ExpectCorruption(const std::string& mentions) {
    auto result = LoadCsvBasic(dir_);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kCorruption);
    EXPECT_NE(result.status().message().find(mentions), std::string::npos)
        << result.status().ToString();
  }

  std::string dir_;
};

TEST_F(LoaderFailureFixture, LoadsCleanDataset) {
  auto result = LoadCsvBasic(dir_);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().persons.size(), 0u);
  // A graph built from a cleanly loaded dataset must hold every
  // representation invariant — the loader is the recovery path.
  Graph graph(std::move(result.value()));
  validate::ValidationReport vr = validate::ValidateGraph(graph);
  EXPECT_TRUE(vr.ok()) << vr.ToString();
}

TEST_F(LoaderFailureFixture, MissingDirectoryFails) {
  auto result = LoadCsvBasic("/nonexistent/snb");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kIoError);
}

TEST_F(LoaderFailureFixture, MissingFileFails) {
  fs::remove(dir_ + "/dynamic/person_knows_person_0_0.csv");
  auto result = LoadCsvBasic(dir_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kIoError);
}

TEST_F(LoaderFailureFixture, RowWidthMismatchFails) {
  Corrupt("dynamic/person_knows_person_0_0.csv",
          "Person.id|Person.id|creationDate\n1|2\n");
  auto result = LoadCsvBasic(dir_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kCorruption);
}

TEST_F(LoaderFailureFixture, MalformedDateTimeFails) {
  Corrupt("dynamic/person_knows_person_0_0.csv",
          "Person.id|Person.id|creationDate\n1|2|not-a-date\n");
  auto result = LoadCsvBasic(dir_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kCorruption);
}

TEST_F(LoaderFailureFixture, MalformedBirthdayFails) {
  Corrupt("dynamic/person_0_0.csv",
          "id|firstName|lastName|gender|birthday|creationDate|locationIP|"
          "browserUsed\n"
          "7|A|B|male|1990-13-77|2010-01-01T00:00:00.000+0000|1.1.1.1|"
          "Chrome\n");
  auto result = LoadCsvBasic(dir_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kCorruption);
}

TEST_F(LoaderFailureFixture, EmptyFileFails) {
  Corrupt("dynamic/post_0_0.csv", "");
  auto result = LoadCsvBasic(dir_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kCorruption);
}

TEST_F(LoaderFailureFixture, HeaderOnlyFilesAreValid) {
  // A dataset slice with zero likes is legal: header-only file.
  Corrupt("dynamic/person_likes_post_0_0.csv",
          "Person.id|Post.id|creationDate\n");
  Corrupt("dynamic/person_likes_comment_0_0.csv",
          "Person.id|Comment.id|creationDate\n");
  auto result = LoadCsvBasic(dir_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().likes.empty());
  Graph graph(std::move(result.value()));
  validate::ValidationReport vr = validate::ValidateGraph(graph);
  EXPECT_TRUE(vr.ok()) << vr.ToString();
}

TEST_F(LoaderFailureFixture, RelationRowNamingAnUnknownIdFails) {
  // Used to attach the email to person row 0.
  Append("dynamic/person_email_emailaddress_0_0.csv", "987654321987|x@y.z");
  ExpectCorruption("person id 987654321987 does not exist");
}

TEST_F(LoaderFailureFixture, RelationRowsOfAnEmptyEntityFileFail) {
  // Used to index an empty person vector.
  Corrupt("dynamic/person_0_0.csv",
          "id|firstName|lastName|gender|birthday|creationDate|locationIP|"
          "browserUsed\n");
  ExpectCorruption("does not exist");
}

TEST_F(LoaderFailureFixture, DuplicateEntityIdFails) {
  // Used to load, then abort the Graph build on the repeated id.
  Append("dynamic/person_0_0.csv", FirstRow("dynamic/person_0_0.csv"));
  ExpectCorruption("duplicate id");
}

TEST_F(LoaderFailureFixture, NonNumericIdFails) {
  // strtoll used to read "12ab" as 12, and "abc" as 0.
  std::string row = FirstRow("dynamic/forum_0_0.csv");
  Append("dynamic/forum_0_0.csv", "12ab" + row.substr(row.find('|')));
  ExpectCorruption("bad integer '12ab'");
}

TEST_F(LoaderFailureFixture, UnknownTargetIdFails) {
  // The knows edge names an existing first person and an unknown second
  // one, which the Graph build would abort on.
  std::string row = FirstRow("dynamic/person_knows_person_0_0.csv");
  Append("dynamic/person_knows_person_0_0.csv",
         row.substr(0, row.find('|')) +
             "|987654321987|2010-01-01T00:00:00.000+0000");
  ExpectCorruption("person id 987654321987 does not exist");
}

TEST_F(LoaderFailureFixture, FinalLineWithoutNewlineIsRead) {
  std::string path = dir_ + "/dynamic/person_speaks_language_0_0.csv";
  // Rewrite without trailing newline.
  auto table = util::ReadCsv(path);
  ASSERT_TRUE(table.ok());
  std::ofstream out(path, std::ios::trunc);
  out << "Person.id|language\n0|xx\n1|yy";  // no trailing newline
  out.close();
  auto reread = util::ReadCsv(path);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread.value().rows.size(), 2u);
  EXPECT_EQ(reread.value().rows[1][1], "yy");
}

}  // namespace
}  // namespace snb::storage
