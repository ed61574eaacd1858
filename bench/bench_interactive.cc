// Interactive workload benchmarks: complex reads IC 1–14, short reads
// IS 1–7, and update application throughput (experiment ids IC-lat,
// IS/IU-lat in DESIGN.md).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "interactive/interactive.h"
#include "interactive/updates.h"
#include "util/check.h"

namespace snb::bench {
namespace {

constexpr uint64_t kPersons = 800;

#define SNB_IC_BENCH(N)                                              \
  void BM_Ic##N(benchmark::State& state) {                           \
    BenchData& data = DataFor(kPersons);                             \
    size_t i = 0;                                                    \
    for (auto _ : state) {                                           \
      auto rows = interactive::RunIc##N(                             \
          data.graph,                                                \
          data.params.ic##N[i++ % data.params.ic##N.size()]);        \
      benchmark::DoNotOptimize(rows);                                \
    }                                                                \
  }                                                                  \
  BENCHMARK(BM_Ic##N);

SNB_IC_BENCH(1)
SNB_IC_BENCH(2)
SNB_IC_BENCH(3)
SNB_IC_BENCH(4)
SNB_IC_BENCH(5)
SNB_IC_BENCH(6)
SNB_IC_BENCH(7)
SNB_IC_BENCH(8)
SNB_IC_BENCH(9)
SNB_IC_BENCH(10)
SNB_IC_BENCH(11)
SNB_IC_BENCH(12)

#undef SNB_IC_BENCH

void BM_Ic13(benchmark::State& state) {
  BenchData& data = DataFor(kPersons);
  size_t i = 0;
  for (auto _ : state) {
    auto row = interactive::RunIc13(
        data.graph, data.params.ic13[i++ % data.params.ic13.size()]);
    benchmark::DoNotOptimize(row);
  }
}
BENCHMARK(BM_Ic13);

void BM_Ic14(benchmark::State& state) {
  BenchData& data = DataFor(kPersons);
  size_t i = 0;
  for (auto _ : state) {
    auto rows = interactive::RunIc14(
        data.graph, data.params.ic14[i++ % data.params.ic14.size()]);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_Ic14);

void BM_Is1Profile(benchmark::State& state) {
  BenchData& data = DataFor(kPersons);
  core::Id person = data.params.ic1[0].person_id;
  for (auto _ : state) {
    benchmark::DoNotOptimize(interactive::RunIs1(data.graph, person));
  }
}
BENCHMARK(BM_Is1Profile);

void BM_Is2RecentMessages(benchmark::State& state) {
  BenchData& data = DataFor(kPersons);
  core::Id person = data.params.ic1[0].person_id;
  for (auto _ : state) {
    benchmark::DoNotOptimize(interactive::RunIs2(data.graph, person));
  }
}
BENCHMARK(BM_Is2RecentMessages);

void BM_Is3Friends(benchmark::State& state) {
  BenchData& data = DataFor(kPersons);
  core::Id person = data.params.ic1[0].person_id;
  for (auto _ : state) {
    benchmark::DoNotOptimize(interactive::RunIs3(data.graph, person));
  }
}
BENCHMARK(BM_Is3Friends);

void BM_Is7Replies(benchmark::State& state) {
  BenchData& data = DataFor(kPersons);
  core::Id post = data.graph.PostId(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(interactive::RunIs7(data.graph, post, true));
  }
}
BENCHMARK(BM_Is7Replies);

/// Update replay throughput: applies the whole stream to a fresh graph.
void BM_UpdateReplay(benchmark::State& state) {
  datagen::DatagenConfig cfg;
  cfg.num_persons = 400;
  cfg.activity_scale = 0.5;
  datagen::GeneratedData generated = datagen::Generate(cfg);
  for (auto _ : state) {
    state.PauseTiming();
    core::SocialNetwork copy = generated.network;
    storage::Graph graph(std::move(copy));
    state.ResumeTiming();
    for (const datagen::UpdateEvent& e : generated.updates) {
      SNB_CHECK(interactive::ApplyUpdate(graph, e).ok());
    }
    benchmark::DoNotOptimize(graph.NumPersons());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(generated.updates.size()));
}
BENCHMARK(BM_UpdateReplay);

}  // namespace
}  // namespace snb::bench

BENCHMARK_MAIN();
