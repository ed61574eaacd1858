// Tests for the CsvComposite / CsvCompositeMergeForeign serializers
// (Tables 2.15/2.16), the Turtle serializer, the update-stream
// write→read roundtrip, and the driver results log.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>

#include "datagen/datagen.h"
#include "datagen/serializer.h"
#include "datagen/update_stream.h"
#include "driver/driver.h"
#include "params/parameter_curation.h"
#include "storage/graph.h"
#include "interactive/updates.h"
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

class ExtraSerializerFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new GeneratedData(Generate(TinyConfig()));
    dir_ = new std::string(::testing::TempDir() + "/snb_serializer_extra");
    fs::remove_all(*dir_);
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

GeneratedData* ExtraSerializerFixture::data_ = nullptr;
std::string* ExtraSerializerFixture::dir_ = nullptr;

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

TEST_F(ExtraSerializerFixture, CsvCompositeEmitsExactlyTable215Files) {
  ASSERT_TRUE(WriteCsvComposite(data().network, dir() + "/composite").ok());
  std::set<std::string> expected(CsvCompositeFileStems().begin(),
                                 CsvCompositeFileStems().end());
  EXPECT_EQ(expected.size(), 31u);  // Table 2.15: 31 files
  EXPECT_EQ(CollectStems(dir() + "/composite"), expected);
  EXPECT_FALSE(expected.contains("person_email_emailaddress"));
  EXPECT_FALSE(expected.contains("person_speaks_language"));
}

TEST_F(ExtraSerializerFixture, CsvCompositeMergeForeignEmitsTable216Files) {
  ASSERT_TRUE(WriteCsvCompositeMergeForeign(data().network,
                                            dir() + "/composite_merge")
                  .ok());
  std::set<std::string> expected(CsvCompositeMergeForeignFileStems().begin(),
                                 CsvCompositeMergeForeignFileStems().end());
  EXPECT_EQ(expected.size(), 18u);  // Table 2.16: 18 files
  EXPECT_EQ(CollectStems(dir() + "/composite_merge"), expected);
}

TEST_F(ExtraSerializerFixture, CompositePersonColumnsRoundtrip) {
  ASSERT_TRUE(
      WriteCsvComposite(data().network, dir() + "/composite2").ok());
  auto table_or =
      util::ReadCsv(dir() + "/composite2/dynamic/person_0_0.csv");
  ASSERT_TRUE(table_or.ok());
  const util::CsvTable& table = table_or.value();
  ASSERT_EQ(table.header.back(), "emails");
  ASSERT_EQ(table.header[table.header.size() - 2], "language");
  ASSERT_EQ(table.rows.size(), data().network.persons.size());
  for (size_t i = 0; i < table.rows.size(); ++i) {
    const core::Person& p = data().network.persons[i];
    EXPECT_EQ(util::SplitMultiValued(table.rows[i][table.header.size() - 2]),
              p.speaks);
    EXPECT_EQ(util::SplitMultiValued(table.rows[i].back()), p.emails);
  }
}

TEST_F(ExtraSerializerFixture, TurtleWritesBothFilesWithTriples) {
  ASSERT_TRUE(WriteTurtle(data().network, dir() + "/turtle").ok());
  std::string static_file =
      dir() + "/turtle/0_ldbc_socialnet_static_dbp.ttl";
  std::string dynamic_file = dir() + "/turtle/0_ldbc_socialnet.ttl";
  ASSERT_TRUE(fs::exists(static_file));
  ASSERT_TRUE(fs::exists(dynamic_file));

  auto count_statements = [](const std::string& path, size_t* persons,
                             size_t* prefixes) {
    std::ifstream in(path);
    std::string line;
    size_t statements = 0;
    while (std::getline(in, line)) {
      if (line.rfind("@prefix", 0) == 0) ++*prefixes;
      if (line.find(" a snvoc:Person ") != std::string::npos) ++*persons;
      if (!line.empty() && line.back() == '.') ++statements;
    }
    return statements;
  };
  size_t persons = 0, prefixes = 0;
  size_t static_statements =
      count_statements(static_file, &persons, &prefixes);
  EXPECT_EQ(prefixes, 3u);
  EXPECT_GE(static_statements, data().network.places.size() +
                                   data().network.tags.size());
  persons = 0;
  prefixes = 0;
  size_t dynamic_statements =
      count_statements(dynamic_file, &persons, &prefixes);
  EXPECT_EQ(persons, data().network.persons.size());
  EXPECT_GE(dynamic_statements,
            data().network.persons.size() + data().network.posts.size() +
                data().network.comments.size() + data().network.likes.size());
}

TEST_F(ExtraSerializerFixture, UpdateStreamWriteReadRoundtrip) {
  ASSERT_TRUE(WriteUpdateStreams(data().updates, dir() + "/streams").ok());
  auto read_or = ReadUpdateStreams(dir() + "/streams");
  ASSERT_TRUE(read_or.ok()) << read_or.status().ToString();
  const std::vector<UpdateEvent>& read = read_or.value();
  ASSERT_EQ(read.size(), data().updates.size());
  for (size_t i = 0; i < read.size(); ++i) {
    const UpdateEvent& a = read[i];
    const UpdateEvent& b = data().updates[i];
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.timestamp, b.timestamp) << i;
    EXPECT_EQ(a.dependency, b.dependency) << i;
    // Serialized fields must match exactly (the text round-trip check).
    EXPECT_EQ(FormatUpdateEventLine(a), FormatUpdateEventLine(b)) << i;
  }
}

TEST_F(ExtraSerializerFixture, ReadUpdateStreamsFailsOnMissingDir) {
  auto result = ReadUpdateStreams("/nonexistent/streams");
  EXPECT_FALSE(result.ok());
}

TEST_F(ExtraSerializerFixture, ReplayedStreamEventsApplyCleanly) {
  ASSERT_TRUE(WriteUpdateStreams(data().updates, dir() + "/streams2").ok());
  auto read_or = ReadUpdateStreams(dir() + "/streams2");
  ASSERT_TRUE(read_or.ok());
  core::SocialNetwork copy = data().network;
  storage::Graph graph(std::move(copy));
  for (const UpdateEvent& e : read_or.value()) {
    ASSERT_TRUE(interactive::ApplyUpdate(graph, e).ok());
  }
  EXPECT_EQ(graph.NumPersons(), data().total_persons);
  EXPECT_EQ(graph.NumPosts(), data().total_posts);
  EXPECT_EQ(graph.NumComments(), data().total_comments);
}

}  // namespace
}  // namespace snb::datagen

namespace snb::driver {
namespace {

TEST(ResultsLogTest, DriverProducesCompleteLog) {
  datagen::DatagenConfig cfg;
  cfg.num_persons = 200;
  cfg.activity_scale = 0.3;
  datagen::GeneratedData data = datagen::Generate(cfg);
  storage::Graph graph(std::move(data.network));
  params::CurationConfig pc;
  pc.per_query = 4;
  params::WorkloadParameters params = params::CurateParameters(graph, pc);

  DriverConfig dc;
  dc.max_updates = 500;
  DriverReport report =
      RunInteractiveWorkload(graph, data.updates, params, dc);
  EXPECT_EQ(report.results_log.size(), report.total_operations);

  std::string path = ::testing::TempDir() + "/snb_results_log.csv";
  ASSERT_TRUE(WriteResultsLog(report.results_log, path).ok());

  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            "operation|scheduled_start_time|actual_start_time|duration|"
            "result_rows");
  size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, report.total_operations);
}

}  // namespace
}  // namespace snb::driver
