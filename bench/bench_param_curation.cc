// Parameter-curation benchmark (experiment id CURA): the P1 property of
// spec §3.3 measured directly — runtime variance of a query template under
// curated parameters vs uniformly random parameters.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>

#include "bench_common.h"
#include "interactive/interactive.h"
#include "util/rng.h"

namespace snb::bench {
namespace {

constexpr uint64_t kPersons = 800;

double RunIc9LatencyMs(const storage::Graph& graph, core::Id person) {
  auto t0 = std::chrono::steady_clock::now();
  auto rows = interactive::RunIc9(
      graph, {person, core::DateFromCivil(2012, 12, 1)});
  benchmark::DoNotOptimize(rows);
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Coefficient of variation of IC 9 latency over a parameter set; exported
/// as a counter so `curated` can be compared against `random` directly in
/// the benchmark output.
void MeasureVariance(benchmark::State& state,
                     const std::vector<core::Id>& persons) {
  BenchData& data = DataFor(kPersons);
  double cv = 0;
  for (auto _ : state) {
    double sum = 0, sq = 0;
    for (core::Id p : persons) {
      double ms = RunIc9LatencyMs(data.graph, p);
      sum += ms;
      sq += ms * ms;
    }
    double n = static_cast<double>(persons.size());
    double mean = sum / n;
    double var = sq / n - mean * mean;
    cv = mean > 0 ? std::sqrt(std::max(var, 0.0)) / mean : 0;
    benchmark::DoNotOptimize(cv);
  }
  state.counters["latency_cv"] = benchmark::Counter(cv);
}

void BM_Ic9_CuratedParams(benchmark::State& state) {
  BenchData& data = DataFor(kPersons);
  std::vector<core::Id> persons;
  for (const auto& p : data.params.ic9) persons.push_back(p.person_id);
  MeasureVariance(state, persons);
}
BENCHMARK(BM_Ic9_CuratedParams)->Iterations(3)->Unit(benchmark::kMillisecond);

void BM_Ic9_RandomParams(benchmark::State& state) {
  BenchData& data = DataFor(kPersons);
  util::Rng rng(1234);
  std::vector<core::Id> persons;
  for (size_t i = 0; i < data.params.ic9.size(); ++i) {
    persons.push_back(data.graph.PersonId(static_cast<uint32_t>(rng.UniformInt(
        0, static_cast<int64_t>(data.graph.NumPersons()) - 1))));
  }
  MeasureVariance(state, persons);
}
BENCHMARK(BM_Ic9_RandomParams)->Iterations(3)->Unit(benchmark::kMillisecond);

/// Deterministic P1 metric: the coefficient of variation of the *work* a
/// per-person query template touches (friend-adjacent messages — IC 2's
/// candidate set), curated vs random. Timing-noise-free.
double WorkCv(const storage::Graph& graph,
              const std::vector<core::Id>& persons) {
  double sum = 0, sq = 0;
  for (core::Id id : persons) {
    uint32_t idx = graph.PersonIdx(id);
    double work = 0;
    graph.Knows().ForEach(idx, [&](uint32_t f) {
      work += static_cast<double>(graph.PersonPosts().Degree(f) +
                                  graph.PersonComments().Degree(f));
    });
    sum += work;
    sq += work * work;
  }
  double n = static_cast<double>(persons.size());
  double mean = sum / n;
  double var = sq / n - mean * mean;
  return mean > 0 ? std::sqrt(std::max(var, 0.0)) / mean : 0;
}

void BM_WorkVariance_Curated(benchmark::State& state) {
  BenchData& data = DataFor(kPersons);
  std::vector<core::Id> persons;
  for (const auto& p : data.params.ic2) persons.push_back(p.person_id);
  double cv = 0;
  for (auto _ : state) {
    cv = WorkCv(data.graph, persons);
    benchmark::DoNotOptimize(cv);
  }
  state.counters["work_cv"] = benchmark::Counter(cv);
}
BENCHMARK(BM_WorkVariance_Curated)->Iterations(1);

void BM_WorkVariance_Random(benchmark::State& state) {
  BenchData& data = DataFor(kPersons);
  util::Rng rng(777);
  std::vector<core::Id> persons;
  for (size_t i = 0; i < data.params.ic2.size(); ++i) {
    persons.push_back(data.graph.PersonId(static_cast<uint32_t>(rng.UniformInt(
        0, static_cast<int64_t>(data.graph.NumPersons()) - 1))));
  }
  double cv = 0;
  for (auto _ : state) {
    cv = WorkCv(data.graph, persons);
    benchmark::DoNotOptimize(cv);
  }
  state.counters["work_cv"] = benchmark::Counter(cv);
}
BENCHMARK(BM_WorkVariance_Random)->Iterations(1);

}  // namespace
}  // namespace snb::bench

BENCHMARK_MAIN();
