// Corruption-seeding tests for the graph-invariant validator: each test
// damages a freshly generated store through storage::TestAccess in exactly
// one way and asserts that the *right* invariant reports it — the validator
// is only trustworthy if a dangling edge is caught as edge-endpoints, not as
// a lucky crash somewhere else. Every case runs the full validator, so a
// corruption may not crash any other check either. The clean cases hold
// after bulk load, after replaying the update stream and on a one-person
// fixture.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/scale_factors.h"
#include "datagen/datagen.h"
#include "interactive/updates.h"
#include "storage/export.h"
#include "storage/graph.h"
#include "storage/test_access.h"
#include "validate/validator.h"

namespace snb::validate {
namespace {

using storage::Graph;
using storage::TestAccess;

std::unique_ptr<Graph> MakeGraph(uint64_t persons = 50) {
  datagen::DatagenConfig cfg;
  cfg.num_persons = persons;
  return std::make_unique<Graph>(
      std::move(datagen::Generate(cfg).network));
}

/// The first person other than person 0 whom person 0 does not know.
uint32_t FirstStrangerOf0(const Graph& g) {
  const auto friends = g.Knows().Collect(0);
  uint32_t q = 1;
  while (std::find(friends.begin(), friends.end(), q) != friends.end()) ++q;
  return q;
}

TEST(ValidateTest, CleanGraphPassesAllInvariants) {
  auto graph = MakeGraph();
  ValidatorOptions options;
  options.expect_sf = core::ScaleFactorInfo{"test", 0.0, 50, 0, 0};
  ValidationReport report = ValidateGraph(*graph, options);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.invariants_checked, 16u);
}

TEST(ValidateTest, DanglingEdgeCaughtByEdgeEndpoints) {
  auto graph = MakeGraph();
  TestAccess::Knows(*graph).Append(0, 999999);
  ValidationReport report = ValidateGraph(*graph);
  EXPECT_TRUE(report.Has("edge-endpoints")) << report.ToString();
}

TEST(ValidateTest, UnsortedBaseSpanCaughtByAdjacencySorted) {
  auto graph = MakeGraph();
  // Find a node whose base span has two distinct neighbours and swap them
  // inside the packed target column (zone metadata is untouched — a swap
  // is a permutation, so only the sort order is damaged).
  storage::AdjacencyList& knows = TestAccess::Knows(*graph);
  auto& targets = TestAccess::Csr(knows).mutable_targets();
  bool corrupted = false;
  for (uint32_t node = 0; node < knows.num_nodes() && !corrupted; ++node) {
    if (knows.BaseDegree(node) < 2) continue;
    const uint64_t k = TestAccess::Csr(knows).EdgeBegin(node);
    const uint64_t a = targets.At(k), b = targets.At(k + 1);
    // Stay within one block so the packed rewrite is exact.
    if (a != b && k / 1024 == (k + 1) / 1024) {
      targets.SetValueForTest(k, b);
      targets.SetValueForTest(k + 1, a);
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted) << "datagen graph too sparse to seed corruption";
  ValidationReport report = ValidateGraph(*graph);
  EXPECT_TRUE(report.Has("adjacency-sorted")) << report.ToString();
}

TEST(ValidateTest, DuplicateNeighbourCaughtByAdjacencyDedup) {
  auto graph = MakeGraph();
  storage::AdjacencyList& knows = TestAccess::Knows(*graph);
  bool corrupted = false;
  for (uint32_t node = 0; node < knows.num_nodes() && !corrupted; ++node) {
    auto base = knows.BaseCollect(node);
    if (!base.empty()) {
      knows.Append(node, base[0]);  // the overflow now repeats a base edge
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted);
  ValidationReport report = ValidateGraph(*graph);
  EXPECT_TRUE(report.Has("adjacency-dedup")) << report.ToString();
}

TEST(ValidateTest, TwiceAppendedNeighbourCaughtByAdjacencyDedup) {
  auto graph = MakeGraph();
  // Two overflow entries naming the same neighbour, neither in the base.
  const uint32_t q = FirstStrangerOf0(*graph);
  ASSERT_LT(q, graph->NumPersons());
  storage::AdjacencyList& knows = TestAccess::Knows(*graph);
  knows.Append(0, q);
  knows.Append(0, q);
  ValidationReport report = ValidateGraph(*graph);
  EXPECT_TRUE(report.Has("adjacency-dedup")) << report.ToString();
}

TEST(ValidateTest, SwappedIndexBaseCaughtByMessageIndexOrder) {
  auto graph = MakeGraph();
  auto& refs = TestAccess::BaseRefs(TestAccess::MessageIndex(*graph));
  ASSERT_GE(refs.size(), 2u);
  std::swap(refs.front(), refs.back());
  ValidationReport report = ValidateGraph(*graph);
  EXPECT_TRUE(report.Has("message-index-order")) << report.ToString();
}

TEST(ValidateTest, StaleZoneMapCaughtByZoneMapCoverage) {
  auto graph = MakeGraph();
  // Route one message through the update path so the index grows a tail…
  core::Post post = storage::ExportPost(*graph, 0);
  post.id = 1u << 30;  // unique in the micro id space
  post.tags.clear();
  graph->AddPost(post);
  storage::MessageDateIndex& idx = TestAccess::MessageIndex(*graph);
  ASSERT_EQ(idx.tail_size(), 1u);
  // …then shrink its zone map so the entry falls outside [min, max].
  auto& zones = TestAccess::TailZones(idx);
  ASSERT_EQ(zones.size(), 1u);
  zones[0].min = zones[0].max = post.creation_date + 1;
  ValidationReport report = ValidateGraph(*graph);
  EXPECT_TRUE(report.Has("zone-map-coverage")) << report.ToString();
}

TEST(ValidateTest, OutOfRangeCodeCaughtByDictionaryCodeInRange) {
  auto graph = MakeGraph();
  auto& codes = TestAccess::PostBrowserCode(*graph);
  ASSERT_FALSE(codes.empty());
  codes[0] = static_cast<uint32_t>(graph->Dict().size()) + 7;
  ValidationReport report = ValidateGraph(*graph);
  EXPECT_TRUE(report.Has("dictionary-code-in-range")) << report.ToString();
}

TEST(ValidateTest, StaleBlockZoneCaughtByBlockZoneCoversContents) {
  auto graph = MakeGraph();
  // Shrink the zone of the first knows target block so its contents fall
  // outside [min, max] — the payload itself is untouched.
  storage::AdjacencyList& knows = TestAccess::Knows(*graph);
  auto& targets = TestAccess::Csr(knows).mutable_targets();
  ASSERT_GT(targets.num_blocks(), 0u);
  auto& block = targets.mutable_block(0);
  block.CorruptZoneForTest(block.zone_min() + 1, block.zone_max());
  ValidationReport report = ValidateGraph(*graph);
  EXPECT_TRUE(report.Has("block-zone-covers-contents")) << report.ToString();
}

TEST(ValidateTest, TamperedIndexDateZoneCaughtByBlockZoneCoversContents) {
  auto graph = MakeGraph();
  auto& dates = TestAccess::BaseDateColumn(TestAccess::MessageIndex(*graph));
  ASSERT_GT(dates.num_blocks(), 0u);
  auto& block = dates.mutable_block(0);
  block.CorruptZoneForTest(block.zone_min(), block.zone_max() + 1);
  ValidationReport report = ValidateGraph(*graph);
  EXPECT_TRUE(report.Has("block-zone-covers-contents")) << report.ToString();
}

TEST(ValidateTest, StaleCommentForumCaughtByHotColumnEndpoints) {
  auto graph = MakeGraph();
  auto& forums = TestAccess::CommentForum(*graph);
  bool corrupted = false;
  for (uint32_t c = 0; c < graph->NumComments() && !corrupted; ++c) {
    if (graph->CommentForum(c) != 0) {
      forums[c] = 0;
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted) << "every comment thread lives in forum 0?";
  ValidationReport report = ValidateGraph(*graph);
  EXPECT_TRUE(report.Has("hot-column-endpoints")) << report.ToString();
}

TEST(ValidateTest, BadLanguageCodeCaughtByDictionaryCodeInRange) {
  auto graph = MakeGraph();
  auto& codes = TestAccess::PostLanguageCode(*graph);
  ASSERT_FALSE(codes.empty());
  codes[0] = static_cast<uint32_t>(graph->Dict().size()) + 3;
  ValidationReport report = ValidateGraph(*graph);
  EXPECT_TRUE(report.Has("dictionary-code-in-range")) << report.ToString();
}

TEST(ValidateTest, StaleRootLanguageCaughtByHotColumnEndpoints) {
  auto graph = MakeGraph();
  auto& codes = TestAccess::CommentRootLanguageCode(*graph);
  ASSERT_FALSE(codes.empty());
  codes[0] ^= 1u;  // any value differing from the root post's code trips it
  ValidationReport report = ValidateGraph(*graph);
  EXPECT_TRUE(report.Has("hot-column-endpoints")) << report.ToString();
}

TEST(ValidateTest, LoweredLikeZoneCaughtByLikeZoneBounds) {
  auto graph = MakeGraph();
  auto& zones = TestAccess::BaseLikeMax(TestAccess::MessageIndex(*graph));
  bool corrupted = false;
  for (uint32_t& z : zones) {
    if (z > 0) {
      --z;  // the block's most-liked member now exceeds the zone max
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted) << "datagen graph has no likes at all?";
  ValidationReport report = ValidateGraph(*graph);
  EXPECT_TRUE(report.Has("like-zone-bounds")) << report.ToString();
}

TEST(ValidateTest, ShrunkPersonZoneCaughtByLikeZoneBounds) {
  auto graph = MakeGraph();
  auto& mins = TestAccess::PersonMsgDateMin(*graph);
  auto& maxs = TestAccess::PersonMsgDateMax(*graph);
  bool corrupted = false;
  for (size_t p = 0; p < mins.size() && !corrupted; ++p) {
    if (mins[p] <= maxs[p]) {  // person actually has messages
      // Reset to the "no messages" sentinel: the zone now overlaps nothing,
      // so person pruning would wrongly skip every message this person made.
      mins[p] = storage::kMaxMessageDate;
      maxs[p] = storage::kMinMessageDate;
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted) << "no person with messages in the datagen graph?";
  ValidationReport report = ValidateGraph(*graph);
  EXPECT_TRUE(report.Has("like-zone-bounds")) << report.ToString();
}

TEST(ValidateTest, DoublyIndexedMessageCaughtByMessageIndexOrder) {
  auto graph = MakeGraph();
  auto& refs = TestAccess::BaseRefs(TestAccess::MessageIndex(*graph));
  ASSERT_GE(refs.size(), 2u);
  refs[1] = refs[0];
  ValidationReport report = ValidateGraph(*graph);
  EXPECT_NE(report.ToString().find("message indexed twice"), std::string::npos)
      << report.ToString();
}

TEST(ValidateTest, DuplicateExternalIdCaughtByUniqueId) {
  auto graph = MakeGraph();
  auto& ids = TestAccess::PersonId(*graph);
  ASSERT_GE(ids.size(), 2u);
  ids[1] = ids[0];
  ValidationReport report = ValidateGraph(*graph);
  EXPECT_TRUE(report.Has("unique-id")) << report.ToString();
}

TEST(ValidateTest, WrongPersonCountCaughtByCardinality) {
  auto graph = MakeGraph(50);
  ValidatorOptions options;
  // Claim the store is SF1 (Table 2.12 fixes ~11k persons); it is not.
  options.expect_sf = core::FindScaleFactor("1");
  ASSERT_TRUE(options.expect_sf.has_value());
  ValidationReport report = ValidateGraph(*graph, options);
  EXPECT_TRUE(report.Has("cardinality")) << report.ToString();
}

TEST(ValidateTest, DanglingCreatorCaughtByMessageAuthor) {
  auto graph = MakeGraph();
  auto& creators = TestAccess::PostCreator(*graph);
  ASSERT_FALSE(creators.empty());
  creators[0] = 999999;
  ValidationReport report = ValidateGraph(*graph);
  EXPECT_TRUE(report.Has("message-author")) << report.ToString();
}

TEST(ValidateTest, OrphanedTombstoneCaughtByTombstoneDangling) {
  auto graph = MakeGraph();
  // Mark the creator of post 0 dead *without* running the cascade — the
  // torn state a crash mid-cascade would leave if recovery never repaired
  // it: their posts are still alive, dangling off a tombstoned vertex.
  TestAccess::PersonDead(*graph).Set(graph->PostCreator(0));
  ValidationReport report = ValidateGraph(*graph);
  EXPECT_TRUE(report.Has("tombstone-dangling")) << report.ToString();
}

TEST(ValidateTest, StaleLiveCountCaughtByTombstoneIndexAgreement) {
  auto graph = MakeGraph();
  // A like count one below the post's live like edges: LiveLikeCount
  // undercounts it. The post has likes, so the decrement does not wrap.
  uint32_t post = 0;
  while (post < graph->NumPosts() && graph->PostLikers().Degree(post) == 0) {
    ++post;
  }
  ASSERT_LT(post, graph->NumPosts());
  --TestAccess::PostLikeCount(*graph)[post];
  ValidationReport report = ValidateGraph(*graph);
  EXPECT_TRUE(report.Has("tombstone-index-agreement")) << report.ToString();
}

TEST(ValidateTest, UncollapsedZoneCaughtByTombstoneIndexAgreement) {
  auto graph = MakeGraph();
  const uint32_t p = graph->PostCreator(0);
  const core::DateTime saved_min = TestAccess::PersonMsgDateMin(*graph)[p];
  const core::DateTime saved_max = TestAccess::PersonMsgDateMax(*graph)[p];
  // Complete cascade, then resurrect the person's message-date zone: every
  // downstream entity is correctly dead (no dangling), but person-granular
  // pruning would still visit the corpse.
  ASSERT_TRUE(graph->DeletePerson(graph->PersonId(p)).ok());
  TestAccess::PersonMsgDateMin(*graph)[p] = saved_min;
  TestAccess::PersonMsgDateMax(*graph)[p] = saved_max;
  ValidationReport report = ValidateGraph(*graph);
  EXPECT_TRUE(report.Has("tombstone-index-agreement")) << report.ToString();
  EXPECT_FALSE(report.Has("tombstone-dangling")) << report.ToString();
}

TEST(ValidateTest, LoweredZoneCaughtByTombstoneZoneBoundsToo) {
  auto graph = MakeGraph();
  // Understate a base block's like-count zone max: both the raw-degree
  // check and the live-count variant must flag the block, since live rows
  // could be skipped by bound pushdown either way.
  auto& zones = TestAccess::BaseLikeMax(TestAccess::MessageIndex(*graph));
  ASSERT_FALSE(zones.empty());
  bool lowered = false;
  for (auto& z : zones) {
    if (z > 0) {
      z = 0;
      lowered = true;
    }
  }
  ASSERT_TRUE(lowered) << "fixture graph has no liked messages";
  ValidationReport report = ValidateGraph(*graph);
  EXPECT_TRUE(report.Has("tombstone-zone-bounds")) << report.ToString();
}

TEST(ValidateTest, ViolationCapCountsSuppressed) {
  auto graph = MakeGraph();
  auto& genders = TestAccess::PersonGenderCode(*graph);
  // Every person's gender code falls outside the dictionary.
  for (auto& code : genders) code = static_cast<uint32_t>(graph->Dict().size());
  ASSERT_GT(graph->NumPersons(), kMaxViolationsPerInvariant);
  ValidationReport report = ValidateGraph(*graph);
  EXPECT_EQ(report.CountFor("dictionary-code-in-range"),
            kMaxViolationsPerInvariant);
  EXPECT_EQ(report.suppressed,
            graph->NumPersons() - kMaxViolationsPerInvariant);
}

TEST(ValidateTest, OneWayKnowsEdgeCaughtByStoreConsistency) {
  auto graph = MakeGraph();
  // An in-range edge 0 → q whose reverse q → 0 is missing.
  const uint32_t q = FirstStrangerOf0(*graph);
  ASSERT_LT(q, graph->NumPersons());
  TestAccess::Knows(*graph).Append(0, q);
  ValidationReport report = ValidateGraph(*graph);
  EXPECT_TRUE(report.Has("store-consistency")) << report.ToString();
}

TEST(ValidateTest, WrongCommentRootCaughtByStoreConsistency) {
  auto graph = MakeGraph();
  ASSERT_GT(graph->NumComments(), 0u);
  ASSERT_GE(graph->NumPosts(), 2u);
  auto& roots = TestAccess::CommentRootPost(*graph);
  roots[0] = (roots[0] + 1) % graph->NumPosts();
  ValidationReport report = ValidateGraph(*graph);
  EXPECT_TRUE(report.Has("store-consistency")) << report.ToString();
}

TEST(ValidateTest, MembershipWithoutReverseCaughtByStoreConsistency) {
  auto graph = MakeGraph();
  // A person → forums edge with no forum → members edge behind it.
  const auto forums = graph->PersonForums().Collect(0);
  uint32_t f = 0;
  while (std::find(forums.begin(), forums.end(), f) != forums.end()) ++f;
  ASSERT_LT(f, graph->NumForums());
  TestAccess::PersonForums(*graph).Append(0, f);
  ValidationReport report = ValidateGraph(*graph);
  EXPECT_TRUE(report.Has("store-consistency")) << report.ToString();
}

TEST(ValidateTest, PersonUnderWrongCountryCaughtByStoreConsistency) {
  auto graph = MakeGraph();
  ASSERT_GE(graph->NumPlaces(), 2u);
  const uint32_t wrong =
      (graph->PersonCountry(0) + 1) % static_cast<uint32_t>(graph->NumPlaces());
  TestAccess::CountryPersons(*graph).Append(wrong, 0);
  ValidationReport report = ValidateGraph(*graph);
  EXPECT_TRUE(report.Has("store-consistency")) << report.ToString();
}

datagen::GeneratedData MakeData() {
  datagen::DatagenConfig cfg;
  cfg.num_persons = 250;
  cfg.activity_scale = 0.4;
  return datagen::Generate(cfg);
}

TEST(ValidateTest, BulkLoadedGraphIsValid) {
  datagen::GeneratedData data = MakeData();
  Graph graph(std::move(data.network));
  ValidationReport report = ValidateGraph(graph);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(ValidateTest, GraphStaysValidAfterUpdateReplay) {
  datagen::GeneratedData data = MakeData();
  Graph graph(std::move(data.network));
  for (const datagen::UpdateEvent& e : data.updates) {
    ASSERT_TRUE(interactive::ApplyUpdate(graph, e).ok());
  }
  ValidationReport report = ValidateGraph(graph);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(ValidateTest, FixtureOfOnePersonIsValid) {
  core::SocialNetwork net;
  net.places.push_back({0, "X", "u", core::PlaceType::kContinent, core::kNoId});
  net.places.push_back({1, "Y", "u", core::PlaceType::kCountry, 0});
  net.places.push_back({2, "Z", "u", core::PlaceType::kCity, 1});
  core::Person p;
  p.id = 7;
  p.city = 2;
  net.persons.push_back(p);
  Graph graph(std::move(net));
  ValidationReport report = ValidateGraph(graph);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(ValidateTest, ReportNamesInvariantPerViolation) {
  auto graph = MakeGraph();
  TestAccess::Knows(*graph).Append(0, 999999);
  ValidationReport report = ValidateGraph(*graph);
  ASSERT_FALSE(report.ok());
  const std::string text = report.ToString();
  EXPECT_NE(text.find("[edge-endpoints]"), std::string::npos) << text;
}

}  // namespace
}  // namespace snb::validate
