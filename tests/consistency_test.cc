// Tests for the graph consistency checker: consistency must hold after
// bulk load and after incremental update replay, and BI reads must see the
// replayed inserts.

#include <gtest/gtest.h>

#include "bi/bi.h"
#include "datagen/datagen.h"
#include "interactive/updates.h"
#include "storage/consistency.h"
#include "storage/graph.h"

namespace snb {
namespace {

datagen::GeneratedData MakeData() {
  datagen::DatagenConfig cfg;
  cfg.num_persons = 250;
  cfg.activity_scale = 0.4;
  return datagen::Generate(cfg);
}

std::string Join(const std::vector<std::string>& issues) {
  std::string out;
  for (const std::string& i : issues) out += i + "; ";
  return out;
}

TEST(ConsistencyTest, BulkLoadedGraphIsConsistent) {
  datagen::GeneratedData data = MakeData();
  storage::Graph graph(std::move(data.network));
  auto issues = storage::CheckGraphConsistency(graph);
  EXPECT_TRUE(issues.empty()) << Join(issues);
}

TEST(ConsistencyTest, GraphStaysConsistentAfterUpdateReplay) {
  datagen::GeneratedData data = MakeData();
  storage::Graph graph(std::move(data.network));
  for (const datagen::UpdateEvent& e : data.updates) {
    ASSERT_TRUE(interactive::ApplyUpdate(graph, e).ok());
  }
  auto issues = storage::CheckGraphConsistency(graph);
  EXPECT_TRUE(issues.empty()) << Join(issues);
}

TEST(ConsistencyTest, FixtureOfOnePersonIsConsistent) {
  core::SocialNetwork net;
  net.places.push_back({0, "X", "u", core::PlaceType::kContinent, core::kNoId});
  net.places.push_back({1, "Y", "u", core::PlaceType::kCountry, 0});
  net.places.push_back({2, "Z", "u", core::PlaceType::kCity, 1});
  core::Person p;
  p.id = 7;
  p.city = 2;
  net.persons.push_back(p);
  storage::Graph graph(std::move(net));
  EXPECT_TRUE(storage::CheckGraphConsistency(graph).empty());
}

TEST(ConsistencyTest, ReadsSeeFreshlyInsertedData) {
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

}  // namespace
}  // namespace snb
