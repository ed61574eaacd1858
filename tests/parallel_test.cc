// Tests for the parallel execution paths: every morsel-partitioned kernel
// (CP-1.2) must be bit-identical to the naive engine with no pool (one slot
// inline) and at every pool size; the creation-date index must visit
// exactly the messages a filtered full scan visits, under any partition of
// its scan positions and including messages appended to the unsorted tail
// by updates; cancellation must surface from inside a morsel loop without
// wedging the pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/naive.h"
#include "datagen/datagen.h"
#include "engine/morsel.h"
#include "params/parameter_curation.h"
#include "storage/graph.h"
#include "storage/message_index.h"
#include "storage/scan_stats.h"
#include "util/thread_pool.h"

namespace snb {
namespace {

class ParallelFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Drop the minimum-work fan-out floor and cap the morsel size: the
    // fixture is deliberately tiny (its whole message table fits in one
    // default morsel), and these tests (run under TSan in check.sh) must
    // still split every kernel's scan across slots rather than collapse to
    // the inline path.
    engine::internal::GlobalMorselTuning().min_morsels_for_fanout = 1;
    engine::internal::GlobalMorselTuning().morsel_size_cap = 64;
    datagen::DatagenConfig cfg;
    cfg.num_persons = 350;
    cfg.activity_scale = 0.5;
    datagen::GeneratedData data = datagen::Generate(cfg);
    graph_ = new storage::Graph(std::move(data.network));
    params::CurationConfig pc;
    pc.per_query = 4;
    params_ = new params::WorkloadParameters(
        params::CurateParameters(*graph_, pc));
    pool_ = new util::ThreadPool(4);
  }
  static void TearDownTestSuite() {
    delete pool_;
    delete params_;
    delete graph_;
    engine::internal::GlobalMorselTuning() = engine::internal::MorselTuning{};
  }
  static const storage::Graph& graph() { return *graph_; }
  static const params::WorkloadParameters& params() { return *params_; }
  static util::ThreadPool& pool() { return *pool_; }

  /// Cross-validates one query template: for every curated binding the
  /// kernel with no pool and at 1/2/4/8 threads must return exactly the
  /// naive engine's rows.
  template <typename Bindings, typename RunFn, typename NaiveFn>
  static void CheckQuery(const char* name, const Bindings& bindings,
                         RunFn run, NaiveFn naive) {
    util::ThreadPool pools[] = {util::ThreadPool(1), util::ThreadPool(2),
                                util::ThreadPool(4), util::ThreadPool(8)};
    ASSERT_FALSE(bindings.empty()) << name;
    for (const auto& p : bindings) {
      const auto expected = naive(graph(), p);
      EXPECT_EQ(run(graph(), p, nullptr), expected) << name << " (no pool)";
      for (util::ThreadPool& tp : pools) {
        EXPECT_EQ(run(graph(), p, &tp), expected)
            << name << " threads=" << tp.num_threads();
      }
    }
  }

 private:
  static storage::Graph* graph_;
  static params::WorkloadParameters* params_;
  static util::ThreadPool* pool_;
};

storage::Graph* ParallelFixture::graph_ = nullptr;
params::WorkloadParameters* ParallelFixture::params_ = nullptr;
util::ThreadPool* ParallelFixture::pool_ = nullptr;

TEST_F(ParallelFixture, Bi1MatchesNaiveAtEverySlotCount) {
  CheckQuery("BI 1", params().bi1, bi::RunBi1, bi::naive::RunBi1);
  // Degenerate date (nothing qualifies) must also agree.
  bi::Bi1Params empty{core::DateFromCivil(2009, 1, 1)};
  EXPECT_EQ(bi::RunBi1(graph(), empty, &pool()),
            bi::naive::RunBi1(graph(), empty));
}

TEST_F(ParallelFixture, Bi2MatchesNaiveAtEverySlotCount) {
  CheckQuery("BI 2", params().bi2, bi::RunBi2, bi::naive::RunBi2);
}

TEST_F(ParallelFixture, Bi3MatchesNaiveAtEverySlotCount) {
  CheckQuery("BI 3", params().bi3, bi::RunBi3, bi::naive::RunBi3);
}

TEST_F(ParallelFixture, Bi6MatchesNaiveAtEverySlotCount) {
  CheckQuery("BI 6", params().bi6, bi::RunBi6, bi::naive::RunBi6);
}

TEST_F(ParallelFixture, Bi12MatchesNaiveAtEverySlotCount) {
  CheckQuery("BI 12", params().bi12, bi::RunBi12, bi::naive::RunBi12);
}

TEST_F(ParallelFixture, Bi13MatchesNaiveAtEverySlotCount) {
  CheckQuery("BI 13", params().bi13, bi::RunBi13, bi::naive::RunBi13);
}

TEST_F(ParallelFixture, Bi14MatchesNaiveAtEverySlotCount) {
  CheckQuery("BI 14", params().bi14, bi::RunBi14, bi::naive::RunBi14);
}

TEST_F(ParallelFixture, Bi17MatchesNaiveAtEverySlotCount) {
  CheckQuery("BI 17", params().bi17, bi::RunBi17, bi::naive::RunBi17);
}

TEST_F(ParallelFixture, Bi20MatchesNaiveAtEverySlotCount) {
  CheckQuery("BI 20", params().bi20, bi::RunBi20, bi::naive::RunBi20);
  bi::Bi20Params with_unknown{{"Thing", "NoSuchClass", "Person"}};
  EXPECT_EQ(bi::RunBi20(graph(), with_unknown, &pool()),
            bi::naive::RunBi20(graph(), with_unknown));
}

TEST_F(ParallelFixture, Bi23MatchesNaiveAtEverySlotCount) {
  CheckQuery("BI 23", params().bi23, bi::RunBi23, bi::naive::RunBi23);
}

TEST_F(ParallelFixture, Bi24MatchesNaiveAtEverySlotCount) {
  CheckQuery("BI 24", params().bi24, bi::RunBi24, bi::naive::RunBi24);
}

TEST_F(ParallelFixture, CancelledTokenAbortsParallelQueryAndPoolSurvives) {
  bi::CancelToken token;
  token.RequestStop();
  {
    bi::ScopedCancelToken scoped(&token);
    EXPECT_THROW(bi::RunBi1(graph(), params().bi1[0], &pool()),
                 bi::QueryCancelled);
    EXPECT_THROW(bi::RunBi20(graph(), params().bi20[0], &pool()),
                 bi::QueryCancelled);
    // The one-slot inline path polls the same token.
    EXPECT_THROW(bi::RunBi13(graph(), params().bi13[0]), bi::QueryCancelled);
  }
  // The abandoned morsels must not leave the pool wedged or poisoned.
  EXPECT_EQ(bi::RunBi1(graph(), params().bi1[0], &pool()),
            bi::RunBi1(graph(), params().bi1[0]));
}

// ---- Creation-date index / zone-map pruning ------------------------------

class MessageIndexFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::DatagenConfig cfg;
    cfg.num_persons = 200;
    cfg.activity_scale = 0.5;
    datagen::GeneratedData data = datagen::Generate(cfg);
    graph_ = std::make_unique<storage::Graph>(std::move(data.network));
  }

  storage::Graph& graph() { return *graph_; }

  /// Reference: full scan + per-message filter, sorted for set comparison.
  std::vector<uint32_t> FilteredFullScan(core::DateTime start,
                                         core::DateTime end) {
    std::vector<uint32_t> out;
    graph().ForEachMessage([&](uint32_t msg) {
      core::DateTime d = graph().MessageCreationDate(msg);
      if (d >= start && d < end) out.push_back(msg);
    });
    std::sort(out.begin(), out.end());
    return out;
  }

  std::vector<uint32_t> RangeScan(core::DateTime start, core::DateTime end) {
    std::vector<uint32_t> out;
    graph().ForEachMessageInRange(start, end,
                                  [&](uint32_t msg) { out.push_back(msg); });
    std::sort(out.begin(), out.end());
    return out;
  }

  std::unique_ptr<storage::Graph> graph_;
};

TEST_F(MessageIndexFixture, RangeScanVisitsExactlyTheWindowMessages) {
  const core::DateTime windows[][2] = {
      {core::DateTimeFromCivil(2010, 6, 1), core::DateTimeFromCivil(2010, 7, 1)},
      {core::DateTimeFromCivil(2011, 1, 1), core::DateTimeFromCivil(2011, 4, 1)},
      {storage::kMinMessageDate, core::DateTimeFromCivil(2011, 1, 1)},
      {core::DateTimeFromCivil(2012, 1, 1), storage::kMaxMessageDate},
      {storage::kMinMessageDate, storage::kMaxMessageDate},
      // Empty window.
      {core::DateTimeFromCivil(1990, 1, 1), core::DateTimeFromCivil(1991, 1, 1)},
  };
  for (const auto& w : windows) {
    EXPECT_EQ(RangeScan(w[0], w[1]), FilteredFullScan(w[0], w[1]));
  }
}

TEST_F(MessageIndexFixture, RangeViewSlicesPartitionTheRangeScan) {
  const core::DateTime start = core::DateTimeFromCivil(2010, 6, 1);
  const core::DateTime end = core::DateTimeFromCivil(2010, 9, 1);
  // Three tail blocks: one in the window, one straddling its end, one past
  // it (date-skipped whole).
  for (uint32_t i = 0; i < 600; ++i) {
    core::Post post = graph().PostAt(i % graph().NumPosts());
    post.id = (1u << 30) + i;
    post.creation_date =
        i < 300 ? start + i * core::kMillisPerDay / 4
                : core::DateTimeFromCivil(2030, 6, 15);
    graph().AddPost(post);
  }
  ASSERT_EQ(graph().MessageIndex().NumTailBlocks(), 3u);

  const storage::Graph::MessageRangeView view =
      graph().MessageRange(start, end);
  auto scan = [&](size_t width, storage::ScanStats& stats) {
    storage::ScopedScanStats guard(&stats);
    std::vector<uint32_t> visited;
    for (size_t begin = 0; begin < view.size(); begin += width) {
      view.ForEach(begin, std::min(view.size(), begin + width),
                   [&](uint32_t msg) { visited.push_back(msg); });
    }
    std::sort(visited.begin(), visited.end());
    return visited;
  };
  storage::ScanStats whole;
  const std::vector<uint32_t> expected = scan(view.size(), whole);
  EXPECT_EQ(expected, FilteredFullScan(start, end));
  EXPECT_GT(whole.blocks_skipped_date.load(), 0u);
  // Slice widths that split base and tail blocks, on and off block bounds:
  // the same messages, and the same decode/skip counts, as one slice.
  for (size_t width : {size_t{1}, size_t{7}, size_t{256}, size_t{1000},
                       size_t{1024}}) {
    storage::ScanStats sliced;
    EXPECT_EQ(scan(width, sliced), expected) << "width=" << width;
    EXPECT_EQ(sliced.rows_decoded.load(), whole.rows_decoded.load())
        << "width=" << width;
    EXPECT_EQ(sliced.blocks_skipped_date.load(),
              whole.blocks_skipped_date.load())
        << "width=" << width;
  }
}

TEST_F(MessageIndexFixture, OneMonthWindowExaminesStrictlyFewerCandidates) {
  // The sorted base turns a one-month window into a contiguous slice, so a
  // range scan must examine strictly fewer index entries than the full
  // message count (the bench report records the same ratio at scale).
  const size_t total = graph().NumMessages();
  ASSERT_GT(total, 0u);
  const size_t candidates = graph().MessageIndex().CandidatesInRange(
      core::DateTimeFromCivil(2010, 6, 1), core::DateTimeFromCivil(2010, 7, 1));
  EXPECT_LT(candidates, total);
  // Candidates can never undercount the actual matches.
  EXPECT_GE(candidates, RangeScan(core::DateTimeFromCivil(2010, 6, 1),
                                  core::DateTimeFromCivil(2010, 7, 1))
                            .size());
}

TEST_F(MessageIndexFixture, AppendedMessagesLandInTheTailAndAreVisible) {
  const size_t base = graph().MessageIndex().base_size();
  // Append clones of existing records with fresh ids; creation dates far
  // outside the generated range make them easy to address with a window.
  const core::DateTime tail_date = core::DateTimeFromCivil(2030, 6, 15);
  core::Post post = graph().PostAt(0);
  post.id = 1u << 30;
  post.creation_date = tail_date;
  graph().AddPost(post);
  core::Comment comment = graph().CommentAt(0);
  comment.id = 1u << 30;
  comment.creation_date = tail_date + core::kMillisPerDay;
  graph().AddComment(comment);

  // Appends grow the tail, never the sorted base (readers of the base stay
  // valid under the single-writer contract).
  EXPECT_EQ(graph().MessageIndex().base_size(), base);
  EXPECT_EQ(graph().MessageIndex().tail_size(), 2u);

  // Tail messages are visible to range scans, views and candidate counts.
  const core::DateTime w0 = core::DateTimeFromCivil(2030, 1, 1);
  const core::DateTime w1 = core::DateTimeFromCivil(2031, 1, 1);
  EXPECT_EQ(RangeScan(w0, w1).size(), 2u);
  EXPECT_EQ(RangeScan(w0, w1), FilteredFullScan(w0, w1));
  EXPECT_GE(graph().MessageIndex().CandidatesInRange(w0, w1), 2u);
  // A window before the appends never touches the tail block.
  EXPECT_EQ(RangeScan(core::DateTimeFromCivil(2010, 6, 1),
                      core::DateTimeFromCivil(2010, 7, 1)),
            FilteredFullScan(core::DateTimeFromCivil(2010, 6, 1),
                             core::DateTimeFromCivil(2010, 7, 1)));

  // The engines agree on the mutated graph too — BI 1 with a far-future
  // cutoff aggregates over both the base and the tail.
  bi::Bi1Params p{core::DateFromCivil(2032, 1, 1)};
  util::ThreadPool tp(4);
  const auto expected = bi::naive::RunBi1(graph(), p);
  EXPECT_EQ(bi::RunBi1(graph(), p), expected);
  EXPECT_EQ(bi::RunBi1(graph(), p, &tp), expected);
}

}  // namespace
}  // namespace snb
