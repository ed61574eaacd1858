// Morsel-parallel speedup report (CP-1.2 / CP-2.2): times every
// morsel-partitioned BI kernel on one slot and on 2/4/8-worker pools,
// plus the zone-map pruning ratio of a one-month index window, and emits
// the result as bench/out/BENCH_parallel.json (gitignored — compare against
// the committed baseline bench/BENCH_parallel.json) and echoed to stdout.
//
// Each query row also records what the adaptive dispatch model would do
// with the measured workload ("adaptive_choice" / "predicted_speedup",
// same field names as BENCH_kernels.json), taken from the scheduler's own
// dispatch point — so the raw speedup table and the model's verdict on it
// sit side by side in one report.
//
// Speedups are a property of the host: on a single-core container every
// ratio degenerates to ~1× (the report still records the measured values);
// on a multi-core machine the scan-dominated queries (BI 1, 13, 20, ...)
// approach the worker count until the merge step dominates.
//
//   bench_parallel [--persons=2000] [--activity=0.5] [--reps=3]
//                  [--bindings=1] [--seed=42]
//                  [--out=bench/out/BENCH_parallel.json]

#include <algorithm>
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
#include "core/date_time.h"
#include "datagen/datagen.h"
#include "engine/dispatch.h"
#include "params/parameter_curation.h"
#include "sched/stream.h"
#include "storage/graph.h"
#include "storage/message_index.h"
#include "util/thread_pool.h"

namespace {

using namespace snb;
using Clock = std::chrono::steady_clock;

struct Options {
  uint64_t persons = 2000;
  double activity = 0.5;
  size_t reps = 3;
  size_t bindings = 1;
  uint64_t seed = 42;
  std::string out = "bench/out/BENCH_parallel.json";
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
    } else if (ParseFlag(argv[i], "--out", &v)) {
      opt.out = v;
    } else {
      std::fprintf(stderr,
                   "usage: bench_parallel [--persons=2000] [--activity=0.5] "
                   "[--reps=3] [--bindings=1] [--seed=42] "
                   "[--out=bench/out/BENCH_parallel.json]\n");
      std::exit(2);
    }
  }
  if (opt.reps == 0) opt.reps = 1;
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

struct QueryReport {
  std::string name;
  double seq_ms = 0;
  std::vector<std::pair<size_t, double>> parallel_ms;  // (threads, ms)
  bool dispatch_considered = false;
  bool adaptive_chose_morsel = false;
  double predicted_speedup = 0;
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

  const size_t kThreadCounts[] = {2, 4, 8};
  std::vector<QueryReport> reports;

  // The dispatch model the scheduler would consult for these queries,
  // calibrated on this exact graph; decisions below come through
  // sched::ExecuteStreamOp so they are the scheduler's, not a re-derivation.
  const size_t kDispatchWorkers = 8;
  util::ThreadPool dispatch_pool(kDispatchWorkers);
  engine::DispatchModel model(kDispatchWorkers,
                              std::thread::hardware_concurrency());
  model.Calibrate(graph);
  std::fprintf(stderr, "calibrated %.2f ns/element\n",
               model.ns_per_element());

  // One entry per morsel-parallel query: run every curated binding once per
  // timed repetition so skewed bindings do not dominate the comparison.
  auto bench = [&](const char* name, int qnum, auto&& bindings, auto&& run) {
    if (bindings.empty()) return;
    QueryReport r;
    r.name = name;
    std::fprintf(stderr, "%s...\n", name);
    r.seq_ms = BestMs(opt.reps, [&] {
      for (const auto& b : bindings) run(graph, b, nullptr);
    });
    for (size_t threads : kThreadCounts) {
      util::ThreadPool pool(threads);
      r.parallel_ms.emplace_back(threads, BestMs(opt.reps, [&] {
                                   for (const auto& b : bindings) {
                                     run(graph, b, &pool);
                                   }
                                 }));
    }
    // Untimed adaptive pass: what would the scheduler's dispatch point do
    // with these bindings? Records the last binding's decision, matching
    // BENCH_kernels.json.
    for (size_t b = 0; b < bindings.size(); ++b) {
      sched::OpOutcome out = sched::ExecuteStreamOp(
          graph, params, {qnum, b}, nullptr, &dispatch_pool, &model);
      if (out.dispatch_considered) {
        r.dispatch_considered = true;
        r.predicted_speedup = out.dispatch.predicted_speedup;
        r.adaptive_chose_morsel =
            out.dispatch.choice == engine::DispatchChoice::kMorsel;
      }
    }
    reports.push_back(std::move(r));
  };

  bench("BI 1", 1, params.bi1, bi::RunBi1);
  bench("BI 2", 2, params.bi2, bi::RunBi2);
  bench("BI 3", 3, params.bi3, bi::RunBi3);
  bench("BI 6", 6, params.bi6, bi::RunBi6);
  bench("BI 12", 12, params.bi12, bi::RunBi12);
  bench("BI 13", 13, params.bi13, bi::RunBi13);
  bench("BI 14", 14, params.bi14, bi::RunBi14);
  bench("BI 17", 17, params.bi17, bi::RunBi17);
  bench("BI 20", 20, params.bi20, bi::RunBi20);
  bench("BI 23", 23, params.bi23, bi::RunBi23);
  bench("BI 24", 24, params.bi24, bi::RunBi24);

  // Zone-map pruning: how many index entries a one-month window examines
  // vs the full message count. The window is the median base month, so it
  // always carries data.
  const storage::MessageDateIndex& index = graph.MessageIndex();
  const size_t total_messages = graph.NumMessages();
  core::DateTime mid = index.base_size() == 0
                           ? core::DateTimeFromCivil(2010, 6, 1)
                           : index.BaseDateAt(index.base_size() / 2);
  int32_t wy = core::Year(mid), wm = core::Month(mid);
  int32_t ny = wm == 12 ? wy + 1 : wy, nm = wm == 12 ? 1 : wm + 1;
  const core::DateTime w0 = core::DateTimeFromCivil(wy, wm, 1);
  const core::DateTime w1 = core::DateTimeFromCivil(ny, nm, 1);
  const size_t candidates = index.CandidatesInRange(w0, w1);

  std::string json;
  char line[256];
  auto emit = [&](const char* fmt, auto... args) {
    std::snprintf(line, sizeof(line), fmt, args...);
    json += line;
  };
  emit("{\n");
  emit("  \"benchmark\": \"morsel_parallel\",\n");
  emit("  \"num_persons\": %" PRIu64 ",\n", opt.persons);
  emit("  \"activity_scale\": %g,\n", opt.activity);
  emit("  \"bindings_per_query\": %zu,\n", pc.per_query);
  emit("  \"reps\": %zu,\n", opt.reps);
  emit("  \"hardware_threads\": %u,\n",
       std::thread::hardware_concurrency());
  emit("  \"dispatch_model\": {\"workers\": %zu, "
       "\"ns_per_element\": %.3f},\n",
       model.workers(), model.ns_per_element());
  emit("  \"zone_map\": {\n");
  emit("    \"window_year\": %d,\n", wy);
  emit("    \"window_month\": %d,\n", wm);
  emit("    \"candidates\": %zu,\n", candidates);
  emit("    \"total_messages\": %zu,\n", total_messages);
  emit("    \"scan_fraction\": %.6f\n",
       total_messages == 0
           ? 0.0
           : static_cast<double>(candidates) /
                 static_cast<double>(total_messages));
  emit("  },\n");
  emit("  \"queries\": [\n");
  for (size_t i = 0; i < reports.size(); ++i) {
    const QueryReport& r = reports[i];
    emit("    {\"query\": \"%s\", \"sequential_ms\": %.3f, "
         "\"adaptive_choice\": \"%s\", \"predicted_speedup\": %.3f, "
         "\"parallel\": [",
         r.name.c_str(), r.seq_ms,
         !r.dispatch_considered ? "unconsidered"
         : r.adaptive_chose_morsel ? "morsel"
                                   : "sequential",
         r.predicted_speedup);
    for (size_t j = 0; j < r.parallel_ms.size(); ++j) {
      const auto& [threads, ms] = r.parallel_ms[j];
      emit("%s{\"threads\": %zu, \"ms\": %.3f, \"speedup\": %.3f}",
           j == 0 ? "" : ", ", threads, ms,
           ms == 0 ? 0.0 : r.seq_ms / ms);
    }
    emit("]}%s\n", i + 1 == reports.size() ? "" : ",");
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
  return 0;
}
