// Tests for top-k bound pushdown (CP-1.3) and adaptive dispatch: the
// pushdown engines must stay bit-identical to the naive oracle under every
// pool size and under adversarial bound-publication interleavings (morsel
// issue order permuted by seed); the scan counters must prove pruning
// actually fires; BoundRef/TopK/DispatchModel obey their unit contracts;
// and the like-count zones the bound pruning trusts must be maintained by
// the update path (NoteLike after IU 2/3).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "bi/bi.h"
#include "bi/naive.h"
#include "core/date_time.h"
#include "datagen/datagen.h"
#include "engine/bound.h"
#include "engine/dispatch.h"
#include "engine/morsel.h"
#include "engine/top_k.h"
#include "params/parameter_curation.h"
#include "storage/export.h"
#include "storage/graph.h"
#include "storage/message_index.h"
#include "storage/scan_stats.h"
#include "util/thread_pool.h"
#include "validate/validator.h"

namespace snb {
namespace {

// ---- BoundRef / TopK unit contracts ---------------------------------------

TEST(BoundRefTest, UnsetBoundNeverPrunes) {
  engine::BoundRef bound;
  EXPECT_EQ(bound.Get(), engine::BoundRef::kUnset);
  EXPECT_FALSE(bound.CannotPlace(0));
  EXPECT_FALSE(bound.CannotPlace(-1000));
}

TEST(BoundRefTest, TightenIsMonotoneAndTiesSurvive) {
  engine::BoundRef bound;
  bound.Tighten(5);
  EXPECT_TRUE(bound.CannotPlace(4));   // strictly worse: pruned
  EXPECT_FALSE(bound.CannotPlace(5));  // tie: must run the tie-break
  EXPECT_FALSE(bound.CannotPlace(6));  // better: kept
  bound.Tighten(3);  // looser publish must not lower the bound
  EXPECT_EQ(bound.Get(), 5);
  bound.Tighten(7);
  EXPECT_EQ(bound.Get(), 7);
}

TEST(TopKTest, PublishBoundOnlyOnceFull) {
  auto better = [](int a, int b) { return a > b; };
  engine::TopK<int, decltype(better)> top(3, better);
  engine::BoundRef bound;
  top.Add(10);
  top.Add(30);
  top.PublishBound(bound, [](int v) { return int64_t{v}; });
  EXPECT_EQ(bound.Get(), engine::BoundRef::kUnset) << "heap not full yet";
  top.Add(20);
  top.PublishBound(bound, [](int v) { return int64_t{v}; });
  EXPECT_EQ(bound.Get(), 10) << "k-th (worst retained) element";
  top.Add(25);  // evicts 10; k-th is now 20
  top.PublishBound(bound, [](int v) { return int64_t{v}; });
  EXPECT_EQ(bound.Get(), 20);
}

// ---- DispatchModel unit contracts -----------------------------------------

TEST(DispatchModelTest, RefusesWithoutSecondHardwareThread) {
  engine::DispatchModel model(/*workers=*/4, /*hardware_threads=*/1);
  const auto d = model.Decide(12, 100'000'000, engine::kDefaultMorselSize);
  EXPECT_EQ(d.choice, engine::DispatchChoice::kSequential);
}

TEST(DispatchModelTest, RefusesUnderFanoutFloor) {
  engine::DispatchModel model(/*workers=*/4, /*hardware_threads=*/8);
  // 3 morsels of input: under the fan-out floor regardless of speedup.
  const auto d = model.Decide(17, 3 * engine::kDefaultMorselSize,
                              engine::kDefaultMorselSize);
  EXPECT_LT(d.num_morsels, engine::kMinMorselsForFanout);
  EXPECT_EQ(d.choice, engine::DispatchChoice::kSequential);
}

TEST(DispatchModelTest, ChoosesMorselForLargeWork) {
  engine::DispatchModel model(/*workers=*/4, /*hardware_threads=*/8);
  const auto d = model.Decide(1, 100'000'000, engine::kDefaultMorselSize);
  EXPECT_EQ(d.choice, engine::DispatchChoice::kMorsel);
  EXPECT_GE(d.predicted_speedup, engine::DispatchModel::kMinPredictedSpeedup);
  EXPECT_EQ(d.elements, 100'000'000u);
}

TEST(DispatchModelTest, RefusesWhenOverheadDominates) {
  engine::DispatchModel model(/*workers=*/8, /*hardware_threads=*/16);
  // Just over the floor, but eight helpers' handoff overhead swamps the
  // few hundred microseconds of actual work.
  const auto d = model.Decide(
      17, engine::kMinMorselsForFanout * engine::kDefaultMorselSize,
      engine::kDefaultMorselSize);
  EXPECT_EQ(d.choice, engine::DispatchChoice::kSequential);
  EXPECT_LT(d.predicted_speedup, engine::DispatchModel::kMinPredictedSpeedup);
}

// ---- Morsel fan-out floor --------------------------------------------------

TEST(MorselFloorTest, TinyInputsNeverFanOut) {
  util::ThreadPool pool(4);
  const size_t floor = engine::internal::GlobalMorselTuning()
                           .min_morsels_for_fanout;
  EXPECT_EQ(engine::internal::SlotsFor(pool, floor - 1), 1u);
  EXPECT_EQ(engine::internal::SlotsFor(pool, floor),
            std::min<size_t>(pool.num_threads() + 1, floor));
  // Tests may drop the floor to exercise the machinery on small fixtures.
  engine::internal::GlobalMorselTuning().min_morsels_for_fanout = 1;
  EXPECT_EQ(engine::internal::SlotsFor(pool, 2), 2u);
  engine::internal::GlobalMorselTuning().min_morsels_for_fanout = floor;
}

// ---- Engine cross-validation under bound races -----------------------------

class PushdownFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::DatagenConfig cfg;
    cfg.num_persons = 250;
    cfg.activity_scale = 0.5;
    graph_ = new storage::Graph(std::move(datagen::Generate(cfg).network));
  }
  static void TearDownTestSuite() {
    delete graph_;
    graph_ = nullptr;
  }
  void TearDown() override {
    // Every test restores the process-global tuning it may have touched.
    engine::internal::GlobalMorselTuning() = engine::internal::MorselTuning{};
  }
  static const storage::Graph& graph() { return *graph_; }

  /// A date around the middle of the sorted index, so ranges anchored at it
  /// leave something to prune on both sides.
  static core::Date MidDate() {
    const storage::MessageDateIndex& idx = graph().MessageIndex();
    return core::DateFromDateTime(idx.BaseDateAt(idx.base_size() / 2));
  }

 private:
  static storage::Graph* graph_;
};

storage::Graph* PushdownFixture::graph_ = nullptr;

TEST_F(PushdownFixture, Bi12BitIdenticalUnderBoundRaceInterleavings) {
  // A permissive binding: most messages qualify, so the shared bound is
  // published early and races between slots actually happen.
  bi::Bi12Params p{core::DateFromCivil(2010, 1, 1), 0};
  const auto expected = bi::naive::RunBi12(graph(), p);
  ASSERT_EQ(bi::RunBi12(graph(), p), expected);
  engine::internal::GlobalMorselTuning().min_morsels_for_fanout = 1;
  engine::internal::GlobalMorselTuning().morsel_size_cap = 64;
  for (uint64_t seed : {0ull, 1ull, 7ull, 42ull, 12345ull}) {
    engine::internal::GlobalMorselTuning().shuffle_seed = seed;
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      util::ThreadPool pool(threads);
      EXPECT_EQ(bi::RunBi12(graph(), p, &pool), expected)
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

TEST_F(PushdownFixture, Bi2AndBi14BitIdenticalUnderShuffledMorsels) {
  bi::Bi2Params p2;
  p2.start_date = core::DateFromCivil(2010, 1, 1);
  p2.end_date = MidDate();
  p2.country1 = graph().PlaceAt(graph().PersonCountry(0)).name;
  p2.country2 = graph().PlaceAt(graph().PersonCountry(1)).name;
  p2.simulation_end = core::DateFromCivil(2013, 1, 1);
  p2.threshold = 0;
  bi::Bi14Params p14{core::DateFromCivil(2010, 1, 1), MidDate()};
  const auto e2 = bi::naive::RunBi2(graph(), p2);
  const auto e14 = bi::naive::RunBi14(graph(), p14);
  ASSERT_EQ(bi::RunBi2(graph(), p2), e2);
  ASSERT_EQ(bi::RunBi14(graph(), p14), e14);
  engine::internal::GlobalMorselTuning().min_morsels_for_fanout = 1;
  engine::internal::GlobalMorselTuning().morsel_size_cap = 64;
  for (uint64_t seed : {0ull, 3ull, 99ull}) {
    engine::internal::GlobalMorselTuning().shuffle_seed = seed;
    util::ThreadPool pool(4);
    EXPECT_EQ(bi::RunBi2(graph(), p2, &pool), e2) << "seed=" << seed;
    EXPECT_EQ(bi::RunBi14(graph(), p14, &pool), e14)
        << "seed=" << seed;
  }
}

TEST_F(PushdownFixture, EmptyResultsAgreeAcrossEngines) {
  util::ThreadPool pool(4);
  // Windows past the data: nothing qualifies anywhere.
  bi::Bi12Params p12{core::DateFromCivil(2040, 1, 1), 0};
  bi::Bi14Params p14{core::DateFromCivil(2040, 1, 1),
                     core::DateFromCivil(2041, 1, 1)};
  bi::Bi6Params p6{"no-such-tag"};
  EXPECT_TRUE(bi::RunBi12(graph(), p12).empty());
  EXPECT_EQ(bi::RunBi12(graph(), p12), bi::naive::RunBi12(graph(), p12));
  EXPECT_EQ(bi::RunBi12(graph(), p12, &pool), bi::RunBi12(graph(), p12));
  EXPECT_EQ(bi::RunBi14(graph(), p14), bi::naive::RunBi14(graph(), p14));
  EXPECT_EQ(bi::RunBi14(graph(), p14, &pool), bi::RunBi14(graph(), p14));
  EXPECT_TRUE(bi::RunBi6(graph(), p6).empty());
  EXPECT_EQ(bi::RunBi6(graph(), p6, &pool), bi::RunBi6(graph(), p6));
}

TEST_F(PushdownFixture, KExceedsCandidatesKeepsEveryRow) {
  // A window so narrow the top-100 heap never fills: the bound must stay
  // unset and every qualifying row must survive, in oracle order.
  const core::Date mid = MidDate();
  bi::Bi12Params p{mid, 0};
  // Shrink until fewer than 100 rows qualify (raise the threshold).
  auto rows = bi::RunBi12(graph(), p);
  while (rows.size() >= 100 && p.like_threshold < 1000) {
    ++p.like_threshold;
    rows = bi::RunBi12(graph(), p);
  }
  ASSERT_LT(rows.size(), 100u) << "fixture too like-happy to underfill";
  EXPECT_EQ(rows, bi::naive::RunBi12(graph(), p));
  util::ThreadPool pool(4);
  EXPECT_EQ(bi::RunBi12(graph(), p, &pool), rows);
}

TEST_F(PushdownFixture, CountersProvePruningFires) {
  bi::Bi12Params p{MidDate(), 0};
  storage::ScanStats stats;
  {
    storage::ScopedScanStats guard(&stats);
    bi::RunBi12(graph(), p);
  }
  EXPECT_GT(stats.rows_decoded.load(), 0u);
  // The range anchored mid-index must date-prune the front half.
  EXPECT_GT(stats.blocks_skipped_date.load(), 0u);
  // A zero threshold overfills the heap, so the bound must drop rows.
  EXPECT_GT(stats.rows_skipped_bound.load() +
                stats.blocks_skipped_bound.load(),
            0u);
}

TEST_F(PushdownFixture, CountersAggregateAcrossMorselSlots) {
  engine::internal::GlobalMorselTuning().min_morsels_for_fanout = 1;
  engine::internal::GlobalMorselTuning().morsel_size_cap = 64;
  bi::Bi12Params p{MidDate(), 0};
  util::ThreadPool pool(4);
  storage::ScanStats stats;
  {
    storage::ScopedScanStats guard(&stats);
    bi::RunBi12(graph(), p, &pool);
  }
  // Helper threads must re-install the caller's sink: a parallel run
  // decodes the same candidate set, so the counter cannot be zero.
  EXPECT_GT(stats.rows_decoded.load(), 0u);
}

// ---- Pruning gate: every top-k kernel ---------------------------------------

TEST(PruningGateTest, PruningFiresOnEveryTopKKernel) {
  // Each bound-pushdown kernel (BI 2/3/6/12/14) and the hot-column BI 18
  // must match the naive oracle with no pool and with a pool, and its scan
  // counters must show that pruning fired: zone maps skipped blocks (every
  // kernel but BI 6, which scans tag adjacency, not the date index) and the
  // CP-1.3 bound dropped candidates (every kernel but BI 18, which has no
  // top-k bound). A silently disabled zone map or bound fails here even
  // though the results would still be correct. The graph must hold more
  // than 100 candidate groups per kernel, or no top-100 heap ever fills.
  datagen::DatagenConfig cfg;
  cfg.num_persons = 2000;
  cfg.activity_scale = 0.5;
  const storage::Graph graph(datagen::Generate(cfg).network);
  params::CurationConfig pc;
  pc.per_query = 1;
  params::WorkloadParameters p = params::CurateParameters(graph, pc);
  // Bindings that reach every pruning path by construction, whatever the
  // curation picked: a mid-index date makes the date zones prune about
  // half the base, and zero thresholds over wide windows overfill the
  // top-100 so the bound must start dropping candidates.
  const storage::MessageDateIndex& index = graph.MessageIndex();
  const core::Date mid =
      core::DateFromDateTime(index.BaseDateAt(index.base_size() / 2));
  p.bi12.push_back({mid, 0});
  bi::Bi18Params p18 = p.bi18.at(0);
  p18.date = mid;
  p18.length_threshold = 1 << 30;
  p18.languages.push_back(storage::ExportPost(graph, 0).language);
  p.bi18.push_back(p18);
  bi::Bi2Params p2 = p.bi2.at(0);
  p2.start_date = 0;          // 1970: the whole timeline
  p2.end_date = mid + 36500;  // ~100 years past the data
  p2.threshold = 0;
  p.bi2.push_back(p2);
  const core::CivilDate c = core::CivilFromDate(mid);
  p.bi3.push_back({c.year, c.month});

  util::ThreadPool pool(4);
  auto check = [&](const char* name, const auto& bindings, auto run,
                   auto naive, bool zone_mapped, bool bounded) {
    ASSERT_FALSE(bindings.empty()) << name;
    storage::ScanStats stats;
    for (const auto& b : bindings) {
      const auto expected = naive(graph, b);
      {
        storage::ScopedScanStats guard(&stats);
        EXPECT_EQ(run(graph, b, nullptr), expected) << name;
      }
      EXPECT_EQ(run(graph, b, &pool), expected) << name << " (pool)";
    }
    if (zone_mapped) {
      EXPECT_GT(stats.blocks_skipped_date.load() +
                    stats.blocks_skipped_bound.load(),
                0u)
          << name << ": no blocks skipped (zone pruning never fired)";
    }
    if (bounded) {
      EXPECT_GT(stats.blocks_skipped_bound.load() +
                    stats.rows_skipped_bound.load(),
                0u)
          << name << ": no bound skips (CP-1.3 pushdown never fired)";
    }
  };
  check("BI 2", p.bi2, bi::RunBi2, bi::naive::RunBi2, true, true);
  check("BI 3", p.bi3, bi::RunBi3, bi::naive::RunBi3, true, true);
  check("BI 6", p.bi6, bi::RunBi6, bi::naive::RunBi6, false, true);
  check("BI 12", p.bi12, bi::RunBi12, bi::naive::RunBi12, true, true);
  check("BI 14", p.bi14, bi::RunBi14, bi::naive::RunBi14, true, true);
  check(
      "BI 18", p.bi18,
      [](const storage::Graph& g, const bi::Bi18Params& b,
         util::ThreadPool*) { return bi::RunBi18(g, b); },
      bi::naive::RunBi18, true, false);
}

// ---- Materialized 2-hop endpoints ------------------------------------------

TEST_F(PushdownFixture, MessageForumMatchesTwoHopDerivation) {
  for (uint32_t i = 0; i < graph().NumPosts(); ++i) {
    ASSERT_EQ(graph().MessageForum(storage::Graph::MessageOfPost(i)),
              graph().PostForum(i));
  }
  for (uint32_t c = 0; c < graph().NumComments(); ++c) {
    ASSERT_EQ(graph().MessageForum(storage::Graph::MessageOfComment(c)),
              graph().PostForum(graph().CommentRootPost(c)));
    ASSERT_EQ(graph().CommentRootLanguageCode(c),
              graph().PostLanguageCode(graph().CommentRootPost(c)));
  }
}

// ---- NoteLike zone maintenance under updates -------------------------------

TEST(NoteLikeTest, AddLikeRaisesZoneMaxSoBoundPruningStaysSound) {
  datagen::DatagenConfig cfg;
  cfg.num_persons = 120;
  cfg.activity_scale = 0.5;
  storage::Graph graph(std::move(datagen::Generate(cfg).network));
  const storage::MessageDateIndex& idx = graph.MessageIndex();
  ASSERT_GT(idx.base_size(), 0u);

  // Find the first base entry that is a post and its block's zone max.
  uint32_t post = storage::kNoIdx;
  size_t block = 0;
  idx.ForEachBase([&](size_t i, uint32_t msg, core::DateTime) {
    if (post == storage::kNoIdx && storage::Graph::IsPost(msg)) {
      post = msg;
      block = i / storage::columnar::ColumnBlock::kMaxValues;
    }
  });
  ASSERT_NE(post, storage::kNoIdx);

  // Like it from every person not already a liker until its degree clears
  // the old zone max; NoteLike must keep the zone an upper bound.
  const uint32_t old_zone = idx.BaseBlockMaxLikes(block);
  std::unordered_set<uint32_t> likers;
  graph.PostLikers().ForEach(post, [&](uint32_t p) { likers.insert(p); });
  const core::DateTime when = core::DateTimeFromCivil(2013, 1, 1);
  for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
    if (graph.PostLikers().Degree(post) > old_zone) break;
    if (likers.contains(p)) continue;
    graph.AddLikePost(graph.PersonId(p), graph.PostId(post), when);
  }
  ASSERT_GT(graph.PostLikers().Degree(post), old_zone)
      << "fixture too small to overtake the zone max";
  EXPECT_GE(idx.BaseBlockMaxLikes(block), graph.PostLikers().Degree(post));

  // Messages appended through the update path land in the tail; liking one
  // must raise its own tail block's like zone the same way, including a
  // block that later appends have left behind.
  core::Post fresh = storage::ExportPost(graph, 0);
  fresh.tags.clear();
  std::vector<uint32_t> fresh_posts;
  for (size_t i = 0; i <= storage::MessageDateIndex::kTailBlock; ++i) {
    fresh.id = (1u << 30) + i;
    fresh.creation_date =
        core::DateTimeFromCivil(2030, 6, 15) + static_cast<core::DateTime>(i);
    fresh_posts.push_back(graph.AddPost(fresh));
  }
  ASSERT_EQ(idx.NumTailBlocks(), 2u);
  for (size_t b = 0; b < 2; ++b) {
    const uint32_t row = b == 0 ? fresh_posts.front() : fresh_posts.back();
    graph.AddLikePost(graph.PersonId(0), graph.PostId(row), when);
    EXPECT_GE(idx.TailZoneAt(b).max_likes, graph.PostLikers().Degree(row))
        << "tail block " << b;
  }

  // The whole store still passes every invariant — including the new
  // like-zone-bounds — after the update traffic.
  validate::ValidationReport report = validate::ValidateGraph(graph);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(NoteLikeTest, FindsABaseMessageWhoseDateRunStraddlesABlockBoundary) {
  datagen::DatagenConfig cfg;
  cfg.num_persons = 120;
  cfg.activity_scale = 0.5;
  core::SocialNetwork net = datagen::Generate(cfg).network;
  // Give base positions [kBlock - 24, kBlock + 76) one creation date: the
  // run starts in base block 0 and ends in block 1, so NoteLike must look
  // past the first block whose date zone holds the date.
  constexpr size_t kBlock = storage::columnar::ColumnBlock::kMaxValues;
  constexpr size_t kFirst = kBlock - 24, kLast = kBlock + 75;
  core::DateTime date = 0;
  {
    const storage::Graph probe{core::SocialNetwork(net)};
    const storage::MessageDateIndex& idx = probe.MessageIndex();
    ASSERT_GT(idx.base_size(), kLast) << "fixture too small for two blocks";
    date = idx.BaseDateAt(kFirst);
    for (size_t pos = kFirst; pos <= kLast; ++pos) {
      const uint32_t msg = idx.BaseAt(pos);
      (storage::Graph::IsPost(msg)
           ? net.posts[msg].creation_date
           : net.comments[storage::Graph::AsComment(msg)].creation_date) =
          date;
    }
  }
  storage::Graph graph(std::move(net));
  const storage::MessageDateIndex& idx = graph.MessageIndex();
  ASSERT_EQ(idx.BaseDateAt(kFirst), date);
  ASSERT_EQ(idx.BaseDateAt(kLast), date);
  ASSERT_GE(idx.BaseDateColumn().block(0).zone_max(),
            storage::MessageDateIndex::DateKey(date));

  // The run's last message sits in block 1; like it past block 1's zone.
  const uint32_t msg = idx.BaseAt(kLast);
  const size_t block = kLast / kBlock;
  ASSERT_EQ(block, 1u);
  const bool is_post = storage::Graph::IsPost(msg);
  const storage::AdjacencyList& likers =
      is_post ? graph.PostLikers() : graph.CommentLikers();
  const uint32_t row = storage::Graph::MessageRow(msg);
  std::unordered_set<uint32_t> liked;
  likers.ForEach(row, [&](uint32_t p) { liked.insert(p); });
  const uint32_t old_zone = idx.BaseBlockMaxLikes(block);
  const core::DateTime when = core::DateTimeFromCivil(2013, 1, 1);
  for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
    if (likers.Degree(row) > old_zone) break;
    if (liked.contains(p)) continue;
    if (is_post) {
      graph.AddLikePost(graph.PersonId(p), graph.PostId(row), when);
    } else {
      graph.AddLikeComment(graph.PersonId(p), graph.CommentId(row), when);
    }
  }
  ASSERT_GT(likers.Degree(row), old_zone)
      << "fixture too small to overtake the zone max";
  EXPECT_GE(idx.BaseBlockMaxLikes(block), likers.Degree(row));
  EXPECT_EQ(idx.NumTailBlocks(), 0u);
}

}  // namespace
}  // namespace snb
