// Driver throughput benchmarks (experiment id DRV-tp): the full Interactive
// mix (updates + complex reads + short reads per Table 3.1 frequencies) and
// one sequential BI stream through the scheduler (the power run's shape).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "driver/driver.h"
#include "sched/scheduler.h"

namespace snb::bench {
namespace {

void BM_InteractiveWorkload(benchmark::State& state) {
  BenchData& data = DataFor(600);
  size_t ops = 0;
  for (auto _ : state) {
    state.PauseTiming();
    // A fresh graph per iteration: updates mutate it.
    datagen::DatagenConfig cfg;
    cfg.num_persons = 600;
    cfg.activity_scale = 0.6;
    datagen::GeneratedData generated = datagen::Generate(cfg);
    storage::Graph graph(std::move(generated.network));
    state.ResumeTiming();

    driver::DriverConfig dc;
    dc.max_updates = static_cast<size_t>(state.range(0));
    driver::DriverReport report = driver::RunInteractiveWorkload(
        graph, generated.updates, data.params, dc);
    ops = report.total_operations;
    benchmark::DoNotOptimize(report.total_operations);
  }
  state.counters["ops"] = benchmark::Counter(static_cast<double>(ops));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ops));
}
BENCHMARK(BM_InteractiveWorkload)
    ->Arg(1000)
    ->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void BM_BiStream(benchmark::State& state) {
  BenchData& data = DataFor(600);
  sched::SchedulerConfig cfg;
  cfg.num_workers = 1;
  for (auto _ : state) {
    sched::ScheduleResult run =
        sched::RunStreams(data.graph, data.params, cfg);
    benchmark::DoNotOptimize(run.total_completed);
  }
}
BENCHMARK(BM_BiStream)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace snb::bench

BENCHMARK_MAIN();
