// Scheduler tests: concurrent streams over a shared read-only graph produce
// results bit-identical to the sequential engine, cooperative cancellation
// fires on tight deadlines, the tag-class kernels (BI 9/20/24) are priced by
// their posting-list length, histogram percentiles stay within bucket
// resolution, and the Power/Throughput score formulas hold.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "bi/bi.h"
#include "datagen/datagen.h"
#include "engine/dispatch.h"
#include "engine/morsel.h"
#include "params/parameter_curation.h"
#include "sched/histogram.h"
#include "sched/scheduler.h"
#include "sched/score.h"
#include "sched/stream.h"
#include "storage/graph.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace snb::sched {
namespace {

struct Workload {
  storage::Graph graph;
  params::WorkloadParameters params;
};

Workload* MakeWorkload() {
  datagen::DatagenConfig cfg;
  cfg.num_persons = 200;
  cfg.activity_scale = 0.4;
  datagen::GeneratedData data = datagen::Generate(cfg);
  auto* w = new Workload{storage::Graph(std::move(data.network)), {}};
  params::CurationConfig pc;
  pc.per_query = 4;
  w->params = params::CurateParameters(w->graph, pc);
  return w;
}

class SchedFixture : public ::testing::Test {
 public:
  static void SetUpTestSuite() { workload_ = MakeWorkload(); }
  static void TearDownTestSuite() { delete workload_; }
  static const storage::Graph& graph() { return workload_->graph; }
  static const params::WorkloadParameters& params() {
    return workload_->params;
  }

 private:
  static Workload* workload_;
};

Workload* SchedFixture::workload_ = nullptr;

// Reference (rows, fingerprint) per op, computed on this thread with no
// token — the sequential engine's answer.
std::map<std::pair<int, size_t>, OpOutcome> SequentialReference(
    size_t bindings_per_query) {
  std::map<std::pair<int, size_t>, OpOutcome> ref;
  for (int q = 1; q <= 25; ++q) {
    size_t n = std::min(bindings_per_query,
                        BindingCount(SchedFixture::params(), q));
    for (size_t b = 0; b < n; ++b) {
      ref[{q, b}] = ExecuteStreamOp(SchedFixture::graph(),
                                    SchedFixture::params(), {q, b}, nullptr);
    }
  }
  return ref;
}

TEST_F(SchedFixture, StreamsPermuteTheSameOpSet) {
  QueryStream s0(0, params(), 2, 42);
  QueryStream s1(1, params(), 2, 42);
  QueryStream s0_again(0, params(), 2, 42);

  // Same (seed, id) → identical sequence; different id → different order.
  ASSERT_EQ(s0.ops().size(), s0_again.ops().size());
  for (size_t i = 0; i < s0.ops().size(); ++i) {
    EXPECT_EQ(s0.ops()[i].query, s0_again.ops()[i].query);
    EXPECT_EQ(s0.ops()[i].binding, s0_again.ops()[i].binding);
  }
  auto key = [](const StreamOp& op) {
    return std::pair<int, size_t>{op.query, op.binding};
  };
  std::vector<std::pair<int, size_t>> a, b;
  bool same_order = true;
  ASSERT_EQ(s0.ops().size(), s1.ops().size());
  for (size_t i = 0; i < s0.ops().size(); ++i) {
    a.push_back(key(s0.ops()[i]));
    b.push_back(key(s1.ops()[i]));
    if (a.back() != b.back()) same_order = false;
  }
  EXPECT_FALSE(same_order);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);  // same multiset: every stream runs the full workload
}

TEST_F(SchedFixture, ConcurrentStreamsMatchSequentialEngineBitForBit) {
  const size_t kBindings = 3;
  auto ref = SequentialReference(kBindings);
  std::map<std::string, size_t> ops_per_template;
  for (const auto& [key, outcome] : ref) {
    ++ops_per_template[StreamOpName(outcome.op)];
  }
  ASSERT_EQ(ops_per_template.size(), 25u);

  // The throughput shape (3 streams × 4 workers, streams-only parallelism),
  // the adaptive power shape (1 stream × 4 workers, the cost model choosing
  // each partitioned kernel's slot count), and more streams than workers
  // (each stream's op chain interleaves with the others on the pool).
  struct Shape {
    size_t streams;
    size_t workers;
  };
  for (const Shape shape : {Shape{3, 4}, Shape{1, 4}, Shape{4, 2}}) {
    SCOPED_TRACE(testing::Message() << shape.streams << " streams x "
                                    << shape.workers << " workers");
    SchedulerConfig cfg;
    cfg.num_streams = shape.streams;
    cfg.num_workers = shape.workers;
    cfg.bindings_per_query = kBindings;
    ScheduleResult run = RunStreams(graph(), params(), cfg);

    ASSERT_EQ(run.streams.size(), shape.streams);
    EXPECT_EQ(run.total_cancelled, 0u);
    EXPECT_EQ(run.total_completed, shape.streams * ref.size());
    ASSERT_EQ(run.per_query.size(), 25u);
    for (const auto& [name, latencies] : run.per_query) {
      EXPECT_EQ(latencies.count(), shape.streams * ops_per_template.at(name))
          << name;
    }
    // Only a power run consults the cost model, once per partitioned op.
    EXPECT_EQ(run.morsel_chosen + run.morsel_refused,
              run.dispatch_decisions.size());
    EXPECT_EQ(run.dispatch_decisions.empty(), shape.streams > 1);
    // Adaptive dispatch fans out only where the model predicts it pays.
    for (const engine::DispatchDecision& d : run.dispatch_decisions) {
      if (d.choice != engine::DispatchChoice::kMorsel) continue;
      EXPECT_GE(d.predicted_speedup,
                engine::DispatchModel::kMinPredictedSpeedup)
          << "BI " << d.query;
      EXPECT_GE(d.num_morsels, engine::kMinMorselsForFanout)
          << "BI " << d.query;
    }
    for (const StreamResult& stream : run.streams) {
      ASSERT_EQ(stream.outcomes.size(), ref.size());
      for (const OpOutcome& o : stream.outcomes) {
        const OpOutcome& expected = ref.at({o.op.query, o.op.binding});
        EXPECT_EQ(o.rows, expected.rows)
            << StreamOpName(o.op) << " binding " << o.op.binding;
        EXPECT_EQ(o.fingerprint, expected.fingerprint)
            << StreamOpName(o.op) << " binding " << o.op.binding;
      }
    }
  }
}

TEST_F(SchedFixture, TagClassKernelsArePricedByTheirPostingLists) {
  // Expected work, derived independently of the kernels' helpers: every
  // tag whose class is the parameter class (or, transitively, one of its
  // descendants) contributes its posting-list degrees.
  auto length = [](const std::string& name, bool transitive,
                   bool posts_only) {
    const storage::Graph& g = graph();
    const uint32_t root = g.TagClassByName(name);
    size_t n = 0;
    for (uint32_t t = 0; t < g.NumTags(); ++t) {
      uint32_t c = g.TagClassOfTag(t);
      while (transitive && c != root && c != storage::kNoIdx) {
        c = g.TagClassParent(c);
      }
      if (root == storage::kNoIdx || c != root) continue;
      n += g.TagPosts().Degree(t);
      if (!posts_only) n += g.TagComments().Degree(t);
    }
    return n;
  };
  util::ThreadPool pool(2);
  const engine::DispatchModel model(/*workers=*/2, /*hardware_threads=*/8);
  auto priced = [&](int query, size_t binding) {
    const OpOutcome out = ExecuteStreamOp(graph(), params(), {query, binding},
                                          nullptr, &pool, &model);
    EXPECT_TRUE(out.dispatch_considered) << "BI " << query;
    return out.dispatch.elements;
  };
  ASSERT_FALSE(params().bi9.empty());
  ASSERT_FALSE(params().bi20.empty());
  ASSERT_FALSE(params().bi24.empty());
  for (size_t b = 0; b < params().bi9.size(); ++b) {
    const bi::Bi9Params& p = params().bi9[b];
    size_t expected = length(p.tag_class1, false, true);
    if (p.tag_class2 != p.tag_class1) {
      expected += length(p.tag_class2, false, true);
    }
    EXPECT_EQ(priced(9, b), expected) << "BI 9 binding " << b;
  }
  for (size_t b = 0; b < params().bi20.size(); ++b) {
    size_t expected = 0;
    for (const std::string& c : params().bi20[b].tag_classes) {
      expected += length(c, true, false);
    }
    EXPECT_EQ(priced(20, b), expected) << "BI 20 binding " << b;
  }
  for (size_t b = 0; b < params().bi24.size(); ++b) {
    const size_t expected = length(params().bi24[b].tag_class, false, false);
    EXPECT_EQ(priced(24, b), expected) << "BI 24 binding " << b;
    // A direct class's lists are a fraction of the message table, which
    // the kernels no longer scan.
    EXPECT_LT(expected, graph().NumMessages()) << "BI 24 binding " << b;
  }
}

TEST_F(SchedFixture, TightDeadlineCancelsEveryQuery) {
  SchedulerConfig cfg;
  cfg.num_streams = 2;
  cfg.num_workers = 2;
  cfg.bindings_per_query = 2;
  cfg.query_deadline_ms = 1e-6;  // 1 ns: expired before any query can start
  ScheduleResult run = RunStreams(graph(), params(), cfg);

  EXPECT_EQ(run.total_completed, 0u);
  EXPECT_EQ(run.total_cancelled, 2 * SequentialReference(2).size());
  EXPECT_TRUE(run.per_query.empty());
  for (const StreamResult& stream : run.streams) {
    EXPECT_EQ(stream.completed, 0u);
    EXPECT_EQ(stream.cancelled, stream.outcomes.size());
    for (const OpOutcome& o : stream.outcomes) {
      EXPECT_TRUE(o.cancelled);
      EXPECT_EQ(o.rows, 0u);
    }
  }
}

TEST_F(SchedFixture, RequestStopCancelsMidQuery) {
  bi::CancelToken token;
  token.RequestStop();
  OpOutcome out = ExecuteStreamOp(graph(), params(), {1, 0}, &token);
  EXPECT_TRUE(out.cancelled);
  EXPECT_EQ(out.rows, 0u);

  // The same op without a token completes.
  OpOutcome ok = ExecuteStreamOp(graph(), params(), {1, 0}, nullptr);
  EXPECT_FALSE(ok.cancelled);
}

TEST(LatencyHistogramTest, PercentilesWithinBucketResolution) {
  LatencyHistogram hist;
  std::vector<double> samples;
  util::Rng rng(7, uint64_t{0x4157});
  for (int i = 0; i < 20000; ++i) {
    // Latencies spread over four decades, the realistic BI template spread.
    double ms = std::pow(10.0, rng.NextDouble() * 4.0 - 1.0);
    samples.push_back(ms);
    hist.Record(ms);
  }
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());

  EXPECT_EQ(hist.count(), samples.size());
  double total = 0;
  for (double s : samples) total += s;
  EXPECT_NEAR(hist.MeanMs(), total / samples.size(), 1e-9);
  EXPECT_DOUBLE_EQ(hist.max_ms(), sorted.back());
  EXPECT_DOUBLE_EQ(hist.min_ms(), sorted.front());

  const double ratio = LatencyHistogram::BucketRatio();
  for (double p : {0.05, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999}) {
    double exact =
        sorted[static_cast<size_t>(p * static_cast<double>(sorted.size()))];
    double approx = hist.PercentileMs(p);
    EXPECT_GE(approx, exact * (1 - 1e-12)) << "p=" << p;
    EXPECT_LE(approx, exact * ratio * (1 + 1e-12)) << "p=" << p;
  }
}

TEST(LatencyHistogramTest, MergeMatchesSingleHistogram) {
  LatencyHistogram one, a, b;
  util::Rng rng(11, uint64_t{0x4158});
  for (int i = 0; i < 5000; ++i) {
    double ms = 0.5 + rng.NextDouble() * 200.0;
    one.Record(ms);
    (i % 2 == 0 ? a : b).Record(ms);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), one.count());
  // Summation order differs between the split and the single histogram.
  EXPECT_NEAR(a.total_ms(), one.total_ms(), 1e-6);
  EXPECT_DOUBLE_EQ(a.max_ms(), one.max_ms());
  for (double p : {0.5, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(a.PercentileMs(p), one.PercentileMs(p)) << "p=" << p;
  }
}

TEST(LatencyHistogramTest, EdgeCases) {
  LatencyHistogram empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.PercentileMs(0.99), 0.0);
  EXPECT_EQ(empty.MeanMs(), 0.0);
  EXPECT_EQ(empty.max_ms(), 0.0);

  LatencyHistogram extremes;
  extremes.Record(1e-5);  // below the finite range → underflow bucket
  extremes.Record(1e9);   // above the finite range → overflow bucket
  EXPECT_DOUBLE_EQ(extremes.PercentileMs(0.0), 1e-5);   // clamped to min/max
  EXPECT_DOUBLE_EQ(extremes.PercentileMs(0.99), 1e9);
}

TEST(ScoreTest, PowerScoreIsScaledGeomean) {
  ScheduleResult run;
  run.streams.resize(1);
  // Two templates with exactly known means: 100 ms and 400 ms →
  // geomean = sqrt(0.1 · 0.4) = 0.2 s → power@SF1 = 3600 / 0.2 = 18000.
  run.per_query["BI 1"].Record(100.0);
  run.per_query["BI 2"].Record(300.0);
  run.per_query["BI 2"].Record(500.0);
  run.total_completed = 3;
  PowerScore score = ComputePowerScore(run, 1.0);
  EXPECT_TRUE(score.ok());
  EXPECT_EQ(score.templates_scored, 2u);
  EXPECT_NEAR(score.geomean_seconds, 0.2, 1e-12);
  EXPECT_NEAR(score.power_at_sf, 18000.0, 1e-6);
  // Scores scale linearly with SF.
  EXPECT_NEAR(ComputePowerScore(run, 0.1).power_at_sf, 1800.0, 1e-6);
}

TEST(ScoreTest, ThroughputScoreCountsStreamsPerHour) {
  ScheduleResult run;
  run.streams.resize(4);
  run.wall_seconds = 1800.0;  // 4 streams in half an hour
  run.total_completed = 400;
  ThroughputScore score = ComputeThroughputScore(run, 0.1);
  EXPECT_TRUE(score.ok());
  EXPECT_NEAR(score.queries_per_hour, 800.0, 1e-9);
  EXPECT_NEAR(score.throughput_at_sf, 4 * 2.0 * 0.1, 1e-9);

  ScheduleResult with_cancels = run;
  with_cancels.total_cancelled = 5;
  EXPECT_FALSE(ComputeThroughputScore(with_cancels, 0.1).ok());
}

}  // namespace
}  // namespace snb::sched
