// Kernel pushdown report (CP-1.3 over CP-2.2/2.3): for every BI query with
// top-k bound pushdown (BI 2, 3, 6, 12, 14) plus the hot-column rewrite
// (BI 18), times three plans —
//
//   baseline   the naive engine: full scans, no index, no pruning
//   pushdown   the optimized kernel on one slot (zone maps + shared bound)
//   adaptive   the scheduler path: engine::DispatchModel decides per query
//              whether the kernel gets the morsel pool
//
// — verifies all plans return bit-identical rows, and collects the
// storage::ScanStats counters (rows decoded, blocks skipped by date zones,
// blocks/rows skipped by the bound) proving the pruning actually fires.
// Results go to bench/out/BENCH_kernels.json (gitignored — compare against
// the committed baseline bench/BENCH_kernels.json) and stdout.
//
// With --smoke the run additionally asserts (exit 1 on violation) that the
// adaptive model never chose morsel for a query whose *measured* parallel
// speedup in this same run was below 1×. That compares wall-clock timings,
// so it is a by-hand check, not a test; the deterministic pruning gate
// (naive match, zone and bound skips on every kernel) is pushdown_test's
// PruningGateTest.
//
//   bench_kernels [--persons=8000] [--activity=0.5] [--reps=3]
//                 [--bindings=1] [--seed=42] [--threads=4] [--smoke]
//                 [--out=bench/out/BENCH_kernels.json]

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bi/bi.h"
#include "bi/naive.h"
#include "datagen/datagen.h"
#include "engine/dispatch.h"
#include "params/parameter_curation.h"
#include "sched/stream.h"
#include "storage/graph.h"
#include "storage/scan_stats.h"
#include "util/thread_pool.h"

namespace {

using namespace snb;
using Clock = std::chrono::steady_clock;

struct Options {
  uint64_t persons = 8000;
  double activity = 0.5;
  size_t reps = 3;
  size_t bindings = 1;
  uint64_t seed = 42;
  size_t threads = 4;
  bool smoke = false;
  std::string out = "bench/out/BENCH_kernels.json";
};

bool ParseFlag(const char* arg, const char* name, const char** value) {
  size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

Options ParseOptions(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (ParseFlag(argv[i], "--persons", &v)) {
      opt.persons = std::strtoull(v, nullptr, 10);
    } else if (ParseFlag(argv[i], "--activity", &v)) {
      opt.activity = std::strtod(v, nullptr);
    } else if (ParseFlag(argv[i], "--reps", &v)) {
      opt.reps = std::strtoull(v, nullptr, 10);
    } else if (ParseFlag(argv[i], "--bindings", &v)) {
      opt.bindings = std::strtoull(v, nullptr, 10);
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (ParseFlag(argv[i], "--threads", &v)) {
      opt.threads = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      opt.smoke = true;
    } else if (ParseFlag(argv[i], "--out", &v)) {
      opt.out = v;
    } else {
      std::fprintf(stderr,
                   "usage: bench_kernels [--persons=8000] [--activity=0.5] "
                   "[--reps=3] [--bindings=1] [--seed=42] [--threads=4] "
                   "[--smoke] [--out=bench/out/BENCH_kernels.json]\n");
      std::exit(2);
    }
  }
  if (opt.reps == 0) opt.reps = 1;
  if (opt.threads == 0) opt.threads = 1;
  return opt;
}

/// Minimum wall-clock milliseconds of `fn` over `reps` runs.
double BestMs(size_t reps, const std::function<void()>& fn) {
  double best = 0;
  for (size_t r = 0; r < reps; ++r) {
    Clock::time_point t0 = Clock::now();
    fn();
    double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

struct KernelReport {
  std::string name;
  int query = 0;
  bool has_morsel_variant = false;
  double baseline_ms = 0;
  double pushdown_ms = 0;
  double parallel_ms = 0;
  double adaptive_ms = 0;
  bool adaptive_chose_morsel = false;
  double predicted_speedup = 0;
  uint64_t rows_decoded = 0;
  uint64_t blocks_skipped_date = 0;
  uint64_t blocks_skipped_bound = 0;
  uint64_t rows_skipped_bound = 0;
  bool results_match = true;
};

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseOptions(argc, argv);

  std::fprintf(stderr, "generating %" PRIu64 " persons...\n", opt.persons);
  datagen::DatagenConfig dg;
  dg.seed = opt.seed;
  dg.num_persons = opt.persons;
  dg.activity_scale = opt.activity;
  datagen::GeneratedData data = datagen::Generate(dg);
  storage::Graph graph(std::move(data.network));

  std::fprintf(stderr, "curating parameters...\n");
  params::CurationConfig pc;
  pc.seed = opt.seed;
  pc.per_query = std::max<size_t>(1, opt.bindings);
  params::WorkloadParameters params = params::CurateParameters(graph, pc);

  util::ThreadPool pool(opt.threads);
  engine::DispatchModel model(opt.threads,
                              std::thread::hardware_concurrency());
  model.Calibrate(graph);
  std::fprintf(stderr, "calibrated %.2f ns/element\n",
               model.ns_per_element());

  std::vector<KernelReport> reports;

  // One report per pushdown query: `run_fn(graph, binding, pool)` is the
  // kernel, run with no pool (one slot) and with the morsel pool.
  // `has_par = false` (BI 18) skips the morsel and adaptive plans — BI 18 is
  // not morsel-partitioned; its win is the index range scan plus the
  // dictionary-coded hot columns.
  auto bench = [&](const char* name, int qnum, const auto& bindings,
                   auto&& naive_fn, auto&& run_fn, bool has_par) {
    if (bindings.empty()) return;
    KernelReport r;
    r.name = name;
    r.query = qnum;
    r.has_morsel_variant = has_par;
    std::fprintf(stderr, "%s...\n", name);

    // Correctness first: every plan must return bit-identical rows.
    for (size_t b = 0; b < bindings.size(); ++b) {
      auto oracle = naive_fn(graph, bindings[b]);
      if (run_fn(graph, bindings[b], nullptr) != oracle) {
        r.results_match = false;
      }
      if (has_par && run_fn(graph, bindings[b], &pool) != oracle) {
        r.results_match = false;
      }
    }

    // Instrumented pushdown pass: one run per binding under a ScanStats
    // sink, so the counters prove the pruning fires on this exact workload.
    storage::ScanStats stats;
    {
      storage::ScopedScanStats guard(&stats);
      for (const auto& b : bindings) run_fn(graph, b, nullptr);
    }
    r.rows_decoded = stats.rows_decoded.load();
    r.blocks_skipped_date = stats.blocks_skipped_date.load();
    r.blocks_skipped_bound = stats.blocks_skipped_bound.load();
    r.rows_skipped_bound = stats.rows_skipped_bound.load();

    r.baseline_ms = BestMs(opt.reps, [&] {
      for (const auto& b : bindings) naive_fn(graph, b);
    });
    r.pushdown_ms = BestMs(opt.reps, [&] {
      for (const auto& b : bindings) run_fn(graph, b, nullptr);
    });
    if (has_par) {
      r.parallel_ms = BestMs(opt.reps, [&] {
        for (const auto& b : bindings) run_fn(graph, b, &pool);
      });
      // Adaptive plan through the scheduler's own dispatch point, so the
      // decision recorded here is exactly what a power run would take.
      r.adaptive_ms = BestMs(opt.reps, [&] {
        for (size_t b = 0; b < bindings.size(); ++b) {
          sched::OpOutcome out = sched::ExecuteStreamOp(
              graph, params, {qnum, b}, nullptr, &pool, &model);
          if (out.dispatch_considered) {
            r.predicted_speedup = out.dispatch.predicted_speedup;
            if (out.dispatch.choice == engine::DispatchChoice::kMorsel) {
              r.adaptive_chose_morsel = true;
            }
          }
        }
      });
    }
    reports.push_back(std::move(r));
  };

  bench("BI 2", 2, params.bi2, bi::naive::RunBi2, bi::RunBi2, true);
  bench("BI 3", 3, params.bi3, bi::naive::RunBi3, bi::RunBi3, true);
  bench("BI 6", 6, params.bi6, bi::naive::RunBi6, bi::RunBi6, true);
  bench("BI 12", 12, params.bi12, bi::naive::RunBi12, bi::RunBi12, true);
  bench("BI 14", 14, params.bi14, bi::naive::RunBi14, bi::RunBi14, true);
  bench("BI 18", 18, params.bi18, bi::naive::RunBi18,
        [](const storage::Graph& g, const bi::Bi18Params& b,
           util::ThreadPool*) { return bi::RunBi18(g, b); },
        false);

  std::string json;
  char line[320];
  auto emit = [&](const char* fmt, auto... args) {
    std::snprintf(line, sizeof(line), fmt, args...);
    json += line;
  };
  emit("{\n");
  emit("  \"benchmark\": \"kernel_pushdown\",\n");
  emit("  \"num_persons\": %" PRIu64 ",\n", opt.persons);
  emit("  \"activity_scale\": %g,\n", opt.activity);
  emit("  \"bindings_per_query\": %zu,\n", pc.per_query);
  emit("  \"reps\": %zu,\n", opt.reps);
  emit("  \"threads\": %zu,\n", opt.threads);
  emit("  \"hardware_threads\": %u,\n", std::thread::hardware_concurrency());
  emit("  \"calibrated_ns_per_element\": %.3f,\n", model.ns_per_element());
  emit("  \"queries\": [\n");
  for (size_t i = 0; i < reports.size(); ++i) {
    const KernelReport& r = reports[i];
    emit("    {\"query\": \"%s\",\n", r.name.c_str());
    emit("     \"baseline_ms\": %.3f, \"pushdown_ms\": %.3f, "
         "\"speedup_vs_baseline\": %.3f,\n",
         r.baseline_ms, r.pushdown_ms,
         r.pushdown_ms == 0 ? 0.0 : r.baseline_ms / r.pushdown_ms);
    if (r.has_morsel_variant) {
      emit("     \"parallel_ms\": %.3f, \"measured_parallel_speedup\": "
           "%.3f,\n",
           r.parallel_ms,
           r.parallel_ms == 0 ? 0.0 : r.pushdown_ms / r.parallel_ms);
      emit("     \"adaptive_ms\": %.3f, \"adaptive_choice\": \"%s\", "
           "\"predicted_speedup\": %.3f,\n",
           r.adaptive_ms, r.adaptive_chose_morsel ? "morsel" : "sequential",
           r.predicted_speedup);
    }
    emit("     \"rows_decoded\": %" PRIu64 ", \"blocks_skipped_date\": "
         "%" PRIu64 ",\n",
         r.rows_decoded, r.blocks_skipped_date);
    emit("     \"blocks_skipped_bound\": %" PRIu64 ", "
         "\"rows_skipped_bound\": %" PRIu64 ",\n",
         r.blocks_skipped_bound, r.rows_skipped_bound);
    emit("     \"results_match\": %s}%s\n", r.results_match ? "true" : "false",
         i + 1 == reports.size() ? "" : ",");
  }
  emit("  ]\n");
  emit("}\n");

  std::fputs(json.c_str(), stdout);
  std::filesystem::path out_path(opt.out);
  if (out_path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(out_path.parent_path(), ec);
  }
  if (std::FILE* f = std::fopen(opt.out.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", opt.out.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
    return 1;
  }

  if (!opt.smoke) return 0;

  // --smoke assertions.
  int failures = 0;
  auto fail = [&](const std::string& msg) {
    std::fprintf(stderr, "SMOKE FAIL: %s\n", msg.c_str());
    ++failures;
  };
  for (const KernelReport& r : reports) {
    // The adaptive model may only fan out when fanning out actually paid
    // off in this very run.
    if (r.has_morsel_variant && r.adaptive_chose_morsel &&
        r.parallel_ms > r.pushdown_ms) {
      fail(r.name + ": adaptive chose morsel but measured speedup < 1x");
    }
  }
  if (failures > 0) return 1;
  std::fprintf(stderr, "smoke OK: adaptive fanned out only where the "
                       "measured speedup was at least 1x\n");
  return 0;
}
