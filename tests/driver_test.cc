// Driver tests: workload composition (frequencies of Table 3.1), update
// replay, short-read sequences, determinism, the §6.2 on-time metric, the
// BI stream, and validation mode.

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "driver/driver.h"
#include "driver/validation.h"
#include "params/parameter_curation.h"
#include "storage/graph.h"
#include "validate/validator.h"

namespace snb::driver {
namespace {

struct Workload {
  datagen::GeneratedData data;
  params::WorkloadParameters params;
};

Workload* MakeWorkload() {
  datagen::DatagenConfig cfg;
  cfg.num_persons = 300;
  cfg.activity_scale = 0.5;
  auto* w = new Workload{datagen::Generate(cfg), {}};
  core::SocialNetwork copy = w->data.network;
  storage::Graph graph(std::move(copy));
  params::CurationConfig pc;
  pc.per_query = 8;
  w->params = params::CurateParameters(graph, pc);
  return w;
}

class DriverFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { workload_ = MakeWorkload(); }
  static void TearDownTestSuite() { delete workload_; }
  static const Workload& workload() { return *workload_; }

  static storage::Graph FreshGraph() {
    core::SocialNetwork copy = workload().data.network;
    return storage::Graph(std::move(copy));
  }

 private:
  static Workload* workload_;
};

Workload* DriverFixture::workload_ = nullptr;

TEST_F(DriverFixture, RunsFullInteractiveWorkload) {
  storage::Graph graph = FreshGraph();
  DriverConfig cfg;
  cfg.max_updates = 3000;
  DriverReport report = RunInteractiveWorkload(graph, workload().data.updates,
                                               workload().params, cfg);
  EXPECT_EQ(report.update_operations,
            std::min<size_t>(3000, workload().data.updates.size()));
  EXPECT_GT(report.complex_reads, 0u);
  EXPECT_GT(report.short_reads, 0u);
  EXPECT_EQ(report.total_operations, report.update_operations +
                                         report.complex_reads +
                                         report.short_reads);
  EXPECT_GT(report.throughput_ops_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(report.on_time_fraction, 1.0);  // AFAP mode
}

TEST_F(DriverFixture, ComplexReadMixFollowsFrequencies) {
  storage::Graph graph = FreshGraph();
  DriverConfig cfg;
  cfg.max_updates = 4000;
  cfg.short_read_probability = 0.0;  // isolate the complex-read mix
  DriverReport report = RunInteractiveWorkload(graph, workload().data.updates,
                                               workload().params, cfg);
  const core::InteractiveFrequencies freq =
      core::FrequenciesForScaleFactor(cfg.sf_name);
  size_t updates = report.update_operations;
  for (int q = 0; q < 14; ++q) {
    std::string op = "IC " + std::to_string(q + 1);
    auto it = report.per_operation.find(op);
    size_t expected = updates / static_cast<size_t>(freq.freq[q]);
    size_t actual = it == report.per_operation.end() ? 0 : it->second.count;
    EXPECT_EQ(actual, expected) << op;
  }
}

TEST_F(DriverFixture, DeterministicAcrossRuns) {
  DriverConfig cfg;
  cfg.max_updates = 1500;
  storage::Graph g1 = FreshGraph();
  storage::Graph g2 = FreshGraph();
  DriverReport a = RunInteractiveWorkload(g1, workload().data.updates,
                                          workload().params, cfg);
  DriverReport b = RunInteractiveWorkload(g2, workload().data.updates,
                                          workload().params, cfg);
  EXPECT_EQ(a.total_operations, b.total_operations);
  EXPECT_EQ(a.complex_reads, b.complex_reads);
  EXPECT_EQ(a.short_reads, b.short_reads);
  ASSERT_EQ(a.per_operation.size(), b.per_operation.size());
  for (const auto& [op, stats] : a.per_operation) {
    EXPECT_EQ(stats.count, b.per_operation.at(op).count) << op;
  }
}

TEST_F(DriverFixture, UpdatesAreAppliedToTheGraph) {
  storage::Graph graph = FreshGraph();
  size_t persons_before = graph.NumPersons();
  size_t posts_before = graph.NumPosts();
  DriverConfig cfg;  // all updates
  RunInteractiveWorkload(graph, workload().data.updates, workload().params,
                         cfg);
  EXPECT_EQ(graph.NumPersons(), workload().data.total_persons);
  EXPECT_EQ(graph.NumPosts(), workload().data.total_posts);
  EXPECT_GE(graph.NumPersons(), persons_before);
  EXPECT_GT(graph.NumPosts(), posts_before);
  // The workload's updates leave every representation invariant intact.
  validate::ValidationReport report = validate::ValidateGraph(graph);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(DriverFixture, ShortReadProbabilityControlsShortReads) {
  DriverConfig none;
  none.max_updates = 1500;
  none.short_read_probability = 0.0;
  DriverConfig lots;
  lots.max_updates = 1500;
  lots.short_read_probability = 0.9;
  storage::Graph g1 = FreshGraph();
  storage::Graph g2 = FreshGraph();
  DriverReport a = RunInteractiveWorkload(g1, workload().data.updates,
                                          workload().params, none);
  DriverReport b = RunInteractiveWorkload(g2, workload().data.updates,
                                          workload().params, lots);
  EXPECT_EQ(a.short_reads, 0u);
  EXPECT_GT(b.short_reads, b.complex_reads / 2);
}

TEST_F(DriverFixture, ShortReadSequencesFollowSpecStructure) {
  // Spec §3.4: person-centric sequences issue IS 1+2+3 together,
  // message-centric sequences issue IS 4+5+6+7 together.
  storage::Graph graph = FreshGraph();
  DriverConfig cfg;
  cfg.max_updates = 3000;
  cfg.short_read_probability = 0.8;
  DriverReport report = RunInteractiveWorkload(graph, workload().data.updates,
                                               workload().params, cfg);
  auto count = [&](const char* op) {
    auto it = report.per_operation.find(op);
    return it == report.per_operation.end() ? size_t{0} : it->second.count;
  };
  EXPECT_GT(count("IS 1"), 0u);
  EXPECT_EQ(count("IS 1"), count("IS 2"));
  EXPECT_EQ(count("IS 1"), count("IS 3"));
  EXPECT_EQ(count("IS 4"), count("IS 5"));
  EXPECT_EQ(count("IS 4"), count("IS 6"));
  EXPECT_EQ(count("IS 4"), count("IS 7"));
  EXPECT_EQ(report.short_reads,
            3 * count("IS 1") + 4 * count("IS 4"));
}

TEST_F(DriverFixture, PacedModeRespectsSchedule) {
  storage::Graph graph = FreshGraph();
  DriverConfig cfg;
  cfg.max_updates = 200;
  cfg.as_fast_as_possible = false;
  // Very high acceleration → schedule is effectively instantaneous, but the
  // pacing path is exercised.
  cfg.acceleration = 1e9;
  DriverReport report = RunInteractiveWorkload(graph, workload().data.updates,
                                               workload().params, cfg);
  EXPECT_GE(report.on_time_fraction, 0.95);  // §6.2 audit requirement
}

TEST_F(DriverFixture, OperationStatsPercentiles) {
  OperationStats stats;
  for (int i = 1; i <= 100; ++i) {
    stats.Record(static_cast<double>(i));
  }
  EXPECT_EQ(stats.count, 100u);
  EXPECT_DOUBLE_EQ(stats.MeanMs(), 50.5);  // count/total stay exact
  EXPECT_DOUBLE_EQ(stats.max_ms, 100.0);
  // Histogram percentiles are upper bounds within one bucket ratio of the
  // exact rank statistic (exact p95 = 96, p50 = 51 under the floor(p·n)
  // rank convention).
  const double ratio = sched::LatencyHistogram::BucketRatio();
  EXPECT_GE(stats.PercentileMs(0.95), 96.0);
  EXPECT_LE(stats.PercentileMs(0.95), 96.0 * ratio);
  EXPECT_GE(stats.PercentileMs(0.50), 51.0);
  EXPECT_LE(stats.PercentileMs(0.50), 51.0 * ratio);
  EXPECT_EQ(OperationStats{}.PercentileMs(0.99), 0.0);
}

TEST_F(DriverFixture, ValidationModePasses) {
  storage::Graph graph = FreshGraph();
  ValidationReport report =
      ValidateBiImplementations(graph, workload().params, 2);
  EXPECT_EQ(report.queries_checked, 25u);
  EXPECT_EQ(report.bindings_checked, 50u);
  EXPECT_TRUE(report.ok()) << "mismatches: " << [&] {
    std::string s;
    for (const auto& q : report.mismatched_queries) s += q + " ";
    return s;
  }();
}

}  // namespace
}  // namespace snb::driver
