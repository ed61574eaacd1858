// Tests for the parallel execution paths: every morsel-partitioned kernel
// (CP-1.2) must be bit-identical to the naive engine with no pool (one slot
// inline) and at every pool size; the creation-date index must visit
// exactly the live messages a filtered full scan visits (family by family
// in its per-family form), under any partition of its scan positions and
// including messages appended to the unsorted tail by updates and
// tombstoned messages of the base and the tail; the tag-class posting-list
// walks of BI 9/20/24 must count a message once however many of the class's
// tags it lists, through descendant classes and insert-overflow chains;
// cancellation must surface from inside a morsel loop without wedging the
// pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/naive.h"
#include "core/schema.h"
#include "datagen/datagen.h"
#include "engine/morsel.h"
#include "params/parameter_curation.h"
#include "storage/export.h"
#include "storage/graph.h"
#include "storage/message_index.h"
#include "storage/scan_stats.h"
#include "util/check.h"
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

TEST_F(ParallelFixture, Bi9MatchesNaiveAtEverySlotCount) {
  CheckQuery("BI 9", params().bi9, bi::RunBi9, bi::naive::RunBi9);
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
    EXPECT_THROW(bi::RunBi9(graph(), params().bi9[0], &pool()),
                 bi::QueryCancelled);
    EXPECT_THROW(bi::RunBi24(graph(), params().bi24[0]), bi::QueryCancelled);
    // The one-slot inline path polls the same token.
    EXPECT_THROW(bi::RunBi13(graph(), params().bi13[0]), bi::QueryCancelled);
  }
  // The abandoned morsels must not leave the pool wedged or poisoned.
  EXPECT_EQ(bi::RunBi1(graph(), params().bi1[0], &pool()),
            bi::RunBi1(graph(), params().bi1[0]));
}

// ---- Tag-class posting lists (BI 9/20/24) ---------------------------------

// A generated network with hand-placed posting-list edge cases:
//   - tag class "PostingLeaf" under the class of tag 0 ("the class"), whose
//     one tag is reached from the class only through that descendant;
//   - a post and a comment that list the same tag twice (so the message
//     sits twice on one posting list);
//   - a post and a comment that carry two tags of the class;
// plus posts and comments appended after the bulk load with the same tag
// shapes, so every walk also reads the insert-overflow chains.
class PostingListFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine::internal::GlobalMorselTuning().min_morsels_for_fanout = 1;
    engine::internal::GlobalMorselTuning().morsel_size_cap = 64;
    datagen::DatagenConfig cfg;
    cfg.num_persons = 150;
    cfg.activity_scale = 0.5;
    core::SocialNetwork net = datagen::Generate(cfg).network;

    const core::Id a = net.tags.front().id;
    const core::Id class_id = net.tags.front().tag_class;
    core::Id tag_b = core::kNoId;
    for (const core::Tag& t : net.tags) {
      if (t.id != a && t.tag_class == class_id) tag_b = t.id;
    }
    SNB_CHECK_NE(tag_b, core::kNoId);
    core::Id max_class = 0, max_tag = 0;
    for (const core::TagClass& c : net.tag_classes) {
      max_class = std::max(max_class, c.id);
      if (c.id == class_id) class_name_ = c.name;
    }
    for (const core::Tag& t : net.tags) max_tag = std::max(max_tag, t.id);
    net.tag_classes.push_back(
        {max_class + 1, "PostingLeaf", "http://example.org/leaf", class_id});
    const core::Id leaf = max_tag + 1;
    net.tags.push_back(
        {leaf, "posting-leaf-tag", "http://example.org/leaf-tag",
         max_class + 1});
    const std::vector<std::vector<core::Id>> shapes = {
        {a, a}, {a, tag_b}, {leaf}, {tag_b, leaf, tag_b}, {leaf, a}};
    SNB_CHECK_GT(net.posts.size(), shapes.size());
    SNB_CHECK_GT(net.comments.size(), shapes.size());
    for (size_t i = 0; i < shapes.size(); ++i) {
      net.posts[i].tags = shapes[i];
      net.comments[i].tags = shapes[i];
    }
    duplicated_post_ = net.posts[0].id;
    graph_ = new storage::Graph(std::move(net));

    // Appended after the bulk load: the same shapes on fresh posts and on
    // comments replying to them, landing in the overflow chains.
    for (size_t i = 0; i < shapes.size(); ++i) {
      const uint32_t row = static_cast<uint32_t>(i);
      core::Post post = storage::ExportPost(*graph_, row);
      post.id = (core::Id{1} << 40) + i;
      post.tags = shapes[i];
      graph_->AddPost(post);
      core::Comment comment = storage::ExportComment(*graph_, row);
      comment.id = (core::Id{1} << 40) + i;
      comment.reply_of_post = post.id;
      comment.reply_of_comment = core::kNoId;
      comment.tags = shapes[shapes.size() - 1 - i];
      graph_->AddComment(comment);
    }
  }
  static void TearDownTestSuite() {
    delete graph_;
    engine::internal::GlobalMorselTuning() = engine::internal::MorselTuning{};
  }
  static const storage::Graph& graph() { return *graph_; }
  static const std::string& class_name() { return class_name_; }

  /// Kernel with no pool and at 1/2/4/8 threads vs the naive engine.
  template <typename Params, typename RunFn, typename NaiveFn>
  static void Check(const char* name, const Params& p, RunFn run,
                    NaiveFn naive) {
    const auto expected = naive(graph(), p);
    EXPECT_EQ(run(graph(), p, nullptr), expected) << name << " (no pool)";
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      util::ThreadPool pool(threads);
      EXPECT_EQ(run(graph(), p, &pool), expected)
          << name << " threads=" << threads;
    }
  }

  static storage::Graph* graph_;
  static std::string class_name_;
  static core::Id duplicated_post_;
};

storage::Graph* PostingListFixture::graph_ = nullptr;
std::string PostingListFixture::class_name_;
core::Id PostingListFixture::duplicated_post_ = core::kNoId;

TEST_F(PostingListFixture, FixtureHoldsTheEdgeCases) {
  const uint32_t tag =
      graph().TagIdx(storage::ExportPost(graph(), 0).tags.front());
  const uint32_t post = graph().PostIdx(duplicated_post_);
  size_t listed = 0;
  graph().TagPosts().ForEach(tag, [&](uint32_t p) { listed += p == post; });
  EXPECT_EQ(listed, 2u) << "the post must sit twice on one posting list";
  EXPECT_GT(graph().TagPosts().num_overflow_edges(), 0u);
  EXPECT_GT(graph().TagComments().num_overflow_edges(), 0u);
  // The leaf tag is on three shapes, each on a bulk-loaded and an appended
  // post and comment: twelve distinct messages.
  const std::vector<bi::Bi20Row> leaf =
      bi::RunBi20(graph(), bi::Bi20Params{{"PostingLeaf"}});
  ASSERT_EQ(leaf.size(), 1u);
  EXPECT_EQ(leaf[0].message_count, 12);
}

TEST_F(PostingListFixture, Bi9MatchesNaive) {
  for (int64_t threshold : {0, 2}) {
    Check("BI 9", bi::Bi9Params{class_name(), "PostingLeaf", threshold},
          bi::RunBi9, bi::naive::RunBi9);
    Check("BI 9 same class", bi::Bi9Params{class_name(), class_name(),
                                           threshold},
          bi::RunBi9, bi::naive::RunBi9);
    Check("BI 9 unknown class",
          bi::Bi9Params{"NoSuchClass", class_name(), threshold}, bi::RunBi9,
          bi::naive::RunBi9);
  }
}

TEST_F(PostingListFixture, Bi20MatchesNaiveThroughDescendantClass) {
  Check("BI 20", bi::Bi20Params{{class_name(), "PostingLeaf", "Thing"}},
        bi::RunBi20, bi::naive::RunBi20);
}

TEST_F(PostingListFixture, Bi24MatchesNaive) {
  Check("BI 24", bi::Bi24Params{class_name()}, bi::RunBi24,
        bi::naive::RunBi24);
  Check("BI 24 leaf", bi::Bi24Params{"PostingLeaf"}, bi::RunBi24,
        bi::naive::RunBi24);
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
    const storage::Graph::MessageRangeView view =
        graph().MessageRange(start, end);
    view.ForEach(0, view.size(), [&](uint32_t msg) { out.push_back(msg); });
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
  using storage::Graph;
  const core::DateTime start = core::DateTimeFromCivil(2010, 6, 1);
  const core::DateTime end = core::DateTimeFromCivil(2010, 9, 1);
  // Three tail blocks of posts and comments, alternating: one in the
  // window, one straddling its end, one past it (date-skipped whole).
  for (uint32_t i = 0; i < 600; ++i) {
    const core::DateTime date =
        i < 300 ? start + i * core::kMillisPerDay / 4
                : core::DateTimeFromCivil(2030, 6, 15);
    if (i % 2 == 0) {
      core::Post post = storage::ExportPost(graph(), i % graph().NumPosts());
      post.id = (1u << 30) + i;
      post.creation_date = date;
      ASSERT_NE(graph().AddPost(post), storage::kNoIdx);
    } else {
      core::Comment comment =
          storage::ExportComment(graph(), i % graph().NumComments());
      comment.id = (1u << 30) + i;
      comment.creation_date = date;
      ASSERT_NE(graph().AddComment(comment), storage::kNoIdx);
    }
  }
  ASSERT_EQ(graph().MessageIndex().NumTailBlocks(), 3u);

  // Tombstone a few in-window posts and comments of the base and the tail
  // (the cascades take their reply subtrees along).
  std::vector<uint32_t> in_window = FilteredFullScan(start, end);
  std::vector<uint32_t> window_posts, window_comments;
  for (uint32_t msg : in_window) {
    (Graph::IsPost(msg) ? window_posts : window_comments)
        .push_back(Graph::MessageRow(msg));
  }
  ASSERT_GT(window_comments.size(), 40u);
  ASSERT_GT(window_posts.size(), 40u);
  for (size_t k = 0; k < 4; ++k) {
    const uint32_t post = window_posts[k * 10];
    const uint32_t comment = window_comments[k * 10];
    const uint32_t tail_post = window_posts[window_posts.size() - 1 - k];
    const uint32_t tail_comment =
        window_comments[window_comments.size() - 1 - k];
    ASSERT_TRUE(graph().DeletePost(graph().PostId(post)).ok());
    ASSERT_TRUE(graph().DeleteComment(graph().CommentId(comment)).ok());
    ASSERT_TRUE(graph().DeletePost(graph().PostId(tail_post)).ok());
    ASSERT_TRUE(graph().DeleteComment(graph().CommentId(tail_comment)).ok());
  }
  const std::vector<uint32_t> expected = FilteredFullScan(start, end);
  ASSERT_LT(expected.size(), in_window.size());
  std::vector<uint32_t> live_posts, live_comments;
  for (uint32_t msg : expected) {
    (Graph::IsPost(msg) ? live_posts : live_comments)
        .push_back(Graph::MessageRow(msg));
  }

  const Graph::MessageRangeView view = graph().MessageRange(start, end);
  // Both forms over slices of `width` positions: the per-family form's
  // post and comment rows, sorted, and the single-callback form's
  // message references, sorted, each scan with its own counters.
  struct Scan {
    std::vector<uint32_t> posts, comments, messages;
    storage::ScanStats family_stats, single_stats;
  };
  auto scan = [&](size_t width, Scan& out) {
    for (size_t begin = 0; begin < view.size(); begin += width) {
      const size_t slice_end = std::min(view.size(), begin + width);
      {
        storage::ScopedScanStats guard(&out.family_stats);
        view.ForEach(
            begin, slice_end,
            [&](uint32_t post) { out.posts.push_back(post); },
            [&](uint32_t comment) { out.comments.push_back(comment); });
      }
      storage::ScopedScanStats guard(&out.single_stats);
      view.ForEach(begin, slice_end,
                   [&](uint32_t msg) { out.messages.push_back(msg); });
    }
    std::sort(out.posts.begin(), out.posts.end());
    std::sort(out.comments.begin(), out.comments.end());
    std::sort(out.messages.begin(), out.messages.end());
  };
  Scan whole;
  scan(view.size(), whole);
  EXPECT_EQ(whole.messages, expected);
  EXPECT_EQ(whole.posts, live_posts);
  EXPECT_EQ(whole.comments, live_comments);
  EXPECT_GT(whole.single_stats.blocks_skipped_date.load(), 0u);
  // Slice widths that split base and tail blocks, on and off block bounds:
  // the same messages, and the same decode/skip counts, as one slice.
  for (size_t width : {size_t{1}, size_t{7}, size_t{256}, size_t{1000},
                       size_t{1024}}) {
    Scan sliced;
    scan(width, sliced);
    EXPECT_EQ(sliced.posts, live_posts) << "width=" << width;
    EXPECT_EQ(sliced.comments, live_comments) << "width=" << width;
    EXPECT_EQ(sliced.messages, expected) << "width=" << width;
    for (const storage::ScanStats* stats :
         {&sliced.family_stats, &sliced.single_stats}) {
      EXPECT_EQ(stats->rows_decoded.load(),
                whole.single_stats.rows_decoded.load())
          << "width=" << width;
      EXPECT_EQ(stats->blocks_skipped_date.load(),
                whole.single_stats.blocks_skipped_date.load())
          << "width=" << width;
      EXPECT_EQ(stats->blocks_skipped_bound.load(),
                whole.single_stats.blocks_skipped_bound.load())
          << "width=" << width;
    }
  }
  EXPECT_EQ(whole.family_stats.rows_decoded.load(),
            whole.single_stats.rows_decoded.load());
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
  core::Post post = storage::ExportPost(graph(), 0);
  post.id = 1u << 30;
  post.creation_date = tail_date;
  graph().AddPost(post);
  core::Comment comment = storage::ExportComment(graph(), 0);
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
