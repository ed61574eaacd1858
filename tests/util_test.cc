// Unit tests for the util layer: deterministic RNG, samplers, CSV, thread
// pool, condition variable.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <set>
#include <thread>

#include "util/csv.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/zipf.h"

namespace snb::util {
namespace {

TEST(Mix64Test, IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(1), Mix64(1));
  std::set<uint64_t> outputs;
  for (uint64_t i = 0; i < 1000; ++i) outputs.insert(Mix64(i));
  EXPECT_EQ(outputs.size(), 1000u);  // no collisions in a small range
}

TEST(MixSeedTest, OrderSensitive) {
  EXPECT_NE(MixSeed(1, 2, 3), MixSeed(3, 2, 1));
  EXPECT_NE(MixSeed(1, 2), MixSeed(2, 1));
  EXPECT_EQ(MixSeed(7, 8, 9), MixSeed(7, 8, 9));
}

TEST(RngTest, SameSeedSameStream) {
  Rng a(42, 1, 2);
  Rng b(42, 1, 2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentStreamsDiffer) {
  Rng a(42, 1, 2);
  Rng b(42, 1, 3);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(RngTest, GeometricMeanApproximatelyCorrect) {
  Rng rng(17);
  const double p = 0.25;
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Geometric(p));
  double mean = sum / n;
  EXPECT_NEAR(mean, (1 - p) / p, 0.1);  // expected 3.0
}

TEST(RngTest, GeometricWithCertainSuccessIsZero) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Geometric(1.0), 0);
}

TEST(RngTest, PowerLawStaysInRange) {
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.PowerLaw(1, 100, 2.5);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 100);
  }
}

TEST(RngTest, PowerLawIsHeavyTailed) {
  Rng rng(29);
  int small = 0, large = 0;
  for (int i = 0; i < 100000; ++i) {
    int64_t v = rng.PowerLaw(1, 1000, 2.2);
    if (v == 1) ++small;
    if (v >= 100) ++large;
  }
  EXPECT_GT(small, 100000 / 2);  // mode at the minimum
  EXPECT_GT(large, 0);           // but the tail is populated
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(31);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(37);
  double sum = 0, sq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfSampler zipf(50, 1.0);
  double total = 0;
  for (size_t i = 0; i < zipf.size(); ++i) total += zipf.Pmf(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, RankZeroMostLikely) {
  ZipfSampler zipf(100, 1.0);
  Rng rng(41);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[0], 100000 / 10);  // head is heavy
}

class ZipfExponentTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfExponentTest, SamplesInRangeForAllExponents) {
  ZipfSampler zipf(37, GetParam());
  Rng rng(43);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.Sample(rng), 37u);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfExponentTest,
                         ::testing::Values(0.5, 0.9, 1.0, 1.5, 2.0));

TEST(CsvTest, WriterReaderRoundtrip) {
  std::string path = ::testing::TempDir() + "/csv_roundtrip.csv";
  CsvWriter writer;
  ASSERT_TRUE(writer.Open(path, {"id", "name", "value"}).ok());
  writer.WriteRow({"1", "alpha", "10"});
  writer.WriteRow({"2", "beta", ""});
  writer.WriteRow({"3", "", "30"});
  ASSERT_TRUE(writer.Close().ok());

  auto table_or = ReadCsv(path);
  ASSERT_TRUE(table_or.ok());
  const CsvTable& table = table_or.value();
  ASSERT_EQ(table.header.size(), 3u);
  EXPECT_EQ(table.header[1], "name");
  ASSERT_EQ(table.rows.size(), 3u);
  EXPECT_EQ(table.rows[1][2], "");
  EXPECT_EQ(table.rows[2][1], "");
  EXPECT_EQ(table.rows[0][1], "alpha");
}

TEST(CsvTest, ReadMissingFileFails) {
  auto result = ReadCsv("/nonexistent/definitely/not/here.csv");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, MultiValuedSplitJoin) {
  EXPECT_EQ(SplitMultiValued(""), std::vector<std::string>{});
  EXPECT_EQ(SplitMultiValued("a"), std::vector<std::string>{"a"});
  std::vector<std::string> expected{"a", "b", "c"};
  EXPECT_EQ(SplitMultiValued("a;b;c"), expected);
  EXPECT_EQ(JoinMultiValued(expected), "a;b;c");
  EXPECT_EQ(JoinMultiValued({}), "");
}

TEST(CsvTest, SanitizeFieldStripsSeparators) {
  EXPECT_EQ(SanitizeField("a|b;c\nd"), "a b c d");
  EXPECT_EQ(SanitizeField("clean"), "clean");
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  Status e = Status::NotFound("missing");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.code(), StatusCode::kNotFound);
  EXPECT_EQ(e.message(), "missing");
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  StatusOr<int> e(Status::IoError("disk"));
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kIoError);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForShardsPartitionExactly) {
  ThreadPool pool(3);
  std::vector<int> hits(100, 0);
  pool.ParallelForShards(hits.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i] += 1;
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, SubmitAndWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(CondVarTest, WaitForTimesOutWhenNeverNotified) {
  Mutex mu{SNB_LOCK_SITE("test.waitfor_timeout.mu")};
  CondVar cv;
  MutexLock lock(mu);
  EXPECT_FALSE(cv.WaitFor(mu, std::chrono::milliseconds(5)));
}

TEST(CondVarTest, WaitForReturnsTrueOnNotifyAndCallerRechecksPredicate) {
  Mutex mu{SNB_LOCK_SITE("test.waitfor_notify.mu")};
  CondVar cv;
  bool ready = false;
  std::thread notifier([&] {
    MutexLock lock(mu);
    ready = true;
    cv.NotifyAll();
  });
  {
    MutexLock lock(mu);
    // The contract: loop until the predicate holds, re-checking after
    // every return — spurious wakeups and timeouts are both absorbed.
    while (!ready) {
      cv.WaitFor(mu, std::chrono::milliseconds(50));
    }
    EXPECT_TRUE(ready);
  }
  notifier.join();
}

}  // namespace
}  // namespace snb::util
