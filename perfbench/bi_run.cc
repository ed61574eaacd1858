// bi_run — one end-to-end BI run of the benchmark (see README.md here).
//
// Runs the paper's BI workflow from generated inputs and prints one JSON
// report line on stdout:
//
//   setup     streaming datagen → CSV bulk load → InitStore → Graph build
//             → parameter curation (the first repetition builds the run's
//             inputs; further ones run in child processes during the window)
//   measure   cycles that interleave every timed phase over --seconds:
//             bi-daily: one pass of the daily schedule (RunBatchedRefresh per
//             day, then a sequential power batch on the new snapshot), a
//             throughput block and two Recover() calls; bi-reads: power
//             batches on the static graph, a refresh-probe batch on a
//             private store, and in turn Recover() calls and throughput
//             blocks (2 streams on 2 workers)
//   verify    naive-engine cross-check of every template, power/throughput
//             and live/recovered fingerprint agreement, recovery day check,
//             ValidateGraph on the final snapshot
//
// With --trace 1 the run also records spans around every call into the
// library (kept in memory, written to --trace-out at exit), decomposes each
// refresh batch into its storage/interactive phases on a private copy of
// the pre-batch snapshot, and collects scan counters per power batch. Those
// extra passes sit outside the timed spans.

#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bi/bi.h"
#include "bi/naive.h"
#include "core/date_time.h"
#include "datagen/datagen.h"
#include "datagen/delete_stream.h"
#include "datagen/streaming.h"
#include "datagen/update_stream.h"
#include "driver/refresh.h"
#include "interactive/updates.h"
#include "params/parameter_curation.h"
#include "sched/scheduler.h"
#include "sched/stream.h"
#include "storage/export.h"
#include "storage/graph.h"
#include "storage/loader.h"
#include "storage/recovery.h"
#include "storage/scan_stats.h"
#include "storage/wal.h"
#include "validate/validator.h"

namespace snb::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double CpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "bi_run: %s\n", what.c_str());
  std::exit(1);
}

void CheckOk(const util::Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

// ---------------------------------------------------------------------------
// Workloads and options.
// ---------------------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  uint64_t persons = 0;
  double activity = 0.5;
  double sf = 0;  // numeric SF the power score is scaled by
  /// Curated bindings per template used by power batches and throughput.
  size_t bindings = 1;
  /// Daily insert batches taken from the update stream.
  int insert_days = 0;
  /// Refresh batches interleave with power batches (bi-daily); otherwise
  /// the graph stays static and a short refresh probe runs at the end.
  bool daily_refresh = false;
  /// Setup repetitions per run: the first builds the run's inputs, the
  /// rest run in child processes spread over the measured window.
  int setup_reps = 3;
};

WorkloadSpec FindWorkload(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "bi-daily") {
    w.persons = 1500;  // spec SF0.1
    w.sf = 0.1;
    // 4 bindings, not 2: with 50 distinct reads per batch the median read
    // jumped between template clusters from seed to seed.
    w.bindings = 4;
    w.insert_days = 20;
    w.daily_refresh = true;
    w.setup_reps = 5;
  } else if (name == "bi-reads") {
    w.persons = 3500;  // spec SF0.3
    w.sf = 0.3;
    w.bindings = 4;
    w.insert_days = 4;
    w.setup_reps = 3;
  } else {
    Die("unknown workload '" + name + "' (bi-daily, bi-reads)");
  }
  return w;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string trace_out;
  /// Overrides the workload's person count (smoke runs).
  uint64_t persons = 0;
  /// Corrupts one reference fingerprint, so the gate must report failures.
  bool corrupt_fingerprint = false;
};

Options ParseOptions(int argc, char** argv) {
  Options opt;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) Die(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--workload") {
      opt.workload = value(i);
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value(i).c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value(i).c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value(i) == "1";
    } else if (flag == "--dir") {
      opt.dir = value(i);
    } else if (flag == "--trace-out") {
      opt.trace_out = value(i);
    } else if (flag == "--persons") {
      opt.persons = std::strtoull(value(i).c_str(), nullptr, 10);
    } else if (flag == "--corrupt-fingerprint") {
      opt.corrupt_fingerprint = true;
    } else {
      Die("unknown flag '" + flag +
          "'; usage: bi_run --workload W --seed N --seconds S --trace 0|1 "
          "--dir D [--trace-out F] [--persons P] "
          "[--corrupt-fingerprint]");
    }
  }
  if (opt.workload.empty() || opt.dir.empty()) {
    Die("--workload and --dir are required");
  }
  return opt;
}

// ---------------------------------------------------------------------------
// Statistics over exact samples.
// ---------------------------------------------------------------------------

struct Samples {
  std::vector<double> values;

  void Add(double v) { values.push_back(v); }
  size_t size() const { return values.size(); }
  bool empty() const { return values.empty(); }
  /// Nearest-rank percentile over the exact samples.
  double Percentile(double p) const {
    if (empty()) return 0.0;
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(sorted.size())));
    rank = std::clamp<size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
  }
  /// Median (mean of the two middle samples for an even count).
  double Median() const {
    if (empty()) return 0.0;
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    size_t n = sorted.size();
    return n % 2 == 1 ? sorted[n / 2]
                      : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  }
};

// ---------------------------------------------------------------------------
// Tracing: spans around calls into the library, kept in memory.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  Tracer(bool enabled, uint64_t run_id)
      : enabled_(enabled), run_id_(run_id), t0_(Clock::now()) {}

  /// RAII span; a no-op when tracing is off.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
      if (tracer_.enabled_) id_ = tracer_.Begin(name);
    }
    ~Scope() {
      if (tracer_.enabled_) tracer_.End(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    size_t id_ = 0;
  };

  /// Self time per span name: duration minus the part its children cover.
  std::map<std::string, double> SelfMsByName() const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ms[s.parent] += s.end_us - s.start_us;
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      self[s.name] += (s.end_us - s.start_us - child_ms[i]) / 1e3;
    }
    return self;
  }

  /// Writes every span as one JSON document.
  void Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"spans\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? "," : "") << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
          << ",\"parent\":" << s.parent << ",\"run_id\":" << run_id_ << "}";
    }
    // Self time per span name, and per layer (the name up to its first '.').
    std::map<std::string, double> by_name = SelfMsByName();
    std::map<std::string, double> by_layer;
    for (const auto& [name, ms] : by_name) {
      by_layer[name.substr(0, name.find('.'))] += ms;
    }
    for (const auto* group : {&by_name, &by_layer}) {
      out << (group == &by_name ? "],\"self_ms\":{" : "},\"layer_self_ms\":{");
      bool first = true;
      for (const auto& [name, ms] : *group) {
        out << (first ? "" : ",") << "\"" << name << "\":" << ms;
        first = false;
      }
    }
    out << "}}\n";
  }

 private:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int64_t parent = -1;
  };

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }
  size_t Begin(const char* name) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : static_cast<int64_t>(stack_.back());
    s.start_us = NowUs();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void End(size_t id) {
    spans_[id].end_us = NowUs();
    stack_.pop_back();
  }

  bool enabled_;
  uint64_t run_id_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<size_t> stack_;
};

// ---------------------------------------------------------------------------
// Failure accounting.
// ---------------------------------------------------------------------------

struct Ledger {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;  // first few, for the report

  void Record(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) Fail(what);
  }
  /// A failure found by a check on an operation already counted.
  void Fail(const std::string& what) {
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
};

using OpKey = std::pair<int, size_t>;  // (template, binding)
using Fingerprints = std::map<OpKey, uint64_t>;

Fingerprints FingerprintsOf(const std::vector<sched::OpOutcome>& outcomes) {
  Fingerprints fp;
  for (const sched::OpOutcome& o : outcomes) {
    fp[{o.op.query, o.op.binding}] = o.fingerprint;
  }
  return fp;
}

/// Counts each op whose fingerprint differs from `reference`.
void CompareFingerprints(const std::vector<sched::OpOutcome>& outcomes,
                         const Fingerprints& reference, const char* what,
                         Ledger& ledger) {
  for (const sched::OpOutcome& o : outcomes) {
    auto it = reference.find({o.op.query, o.op.binding});
    if (it == reference.end() || it->second != o.fingerprint) {
      ledger.Fail(std::string(what) + " fingerprint mismatch on BI " +
                  std::to_string(o.op.query) + " binding " +
                  std::to_string(o.op.binding));
    }
  }
}

// ---------------------------------------------------------------------------
// Host context: nproc, a 1/2-thread spin scaling probe, steal ticks, RSS.
// ---------------------------------------------------------------------------

uint64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  in >> cpu;
  for (uint64_t& x : v) in >> x;
  return v[7];  // user nice system idle iowait irq softirq steal
}

double SpinScaling(double seconds) {
  auto spin = [seconds](std::atomic<uint64_t>* total) {
    Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    uint64_t iters = 0;
    volatile uint64_t sink = 0;
    while (Clock::now() < end) {
      for (int i = 0; i < 1000; ++i) sink = sink + i;
      ++iters;
    }
    total->fetch_add(iters);
  };
  std::atomic<uint64_t> one{0};
  spin(&one);
  std::atomic<uint64_t> two{0};
  std::thread helper(spin, &two);
  spin(&two);
  helper.join();
  return one.load() == 0 ? 0.0
                         : static_cast<double>(two.load()) / one.load();
}

double VmHwmMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double DirMb(const std::string& dir) {
  uintmax_t bytes = 0;
  for (const fs::directory_entry& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

// ---------------------------------------------------------------------------
// Setup: datagen → load → InitStore → Graph build → curation.
// ---------------------------------------------------------------------------

struct SetupTimes {
  double generate_s = 0;
  double load_s = 0;
  double init_store_s = 0;
  double build_ms = 0;
  double curate_s = 0;
  double Total() const {
    return generate_s + load_s + init_store_s + build_ms / 1e3 + curate_s;
  }
};

struct Inputs {
  core::SocialNetwork bulk;  // bulk-loaded network (for refresh rounds)
  std::vector<datagen::UpdateEvent> updates;  // the whole insert stream
  core::Date first_day = 0;
  std::shared_ptr<const storage::Graph> graph;
  params::WorkloadParameters params;
};

/// One setup under `base_dir`: leaves the store in <base_dir>/store.
SetupTimes SetupOnce(const WorkloadSpec& w, const Options& opt,
                     const std::string& base_dir, Inputs* inputs,
                     Tracer& tracer) {
  Tracer::Scope span(tracer, "setup");
  const std::string data_dir = base_dir + "/data";
  const std::string store_dir = base_dir + "/store";
  fs::remove_all(data_dir);
  fs::remove_all(store_dir);
  SetupTimes t;

  datagen::StreamingOptions gen;
  gen.datagen.seed = opt.seed;
  gen.datagen.num_persons = opt.persons ? opt.persons : w.persons;
  gen.datagen.activity_scale = w.activity;
  gen.out_dir = data_dir;
  gen.spill_dir = base_dir + "/spill";
  gen.memory_budget_bytes = size_t{64} << 20;
  Clock::time_point t0 = Clock::now();
  {
    Tracer::Scope s(tracer, "datagen.generate");
    datagen::StreamingStats stats;
    CheckOk(datagen::GenerateStreaming(gen, &stats), "datagen");
  }
  t.generate_s = MsSince(t0) / 1e3;

  t0 = Clock::now();
  {
    Tracer::Scope s(tracer, "storage.load");
    auto net = storage::LoadCsvBasic(data_dir);
    CheckOk(net.status(), "load");
    auto updates = datagen::ReadUpdateStreams(data_dir);
    CheckOk(updates.status(), "read update streams");
    inputs->bulk = std::move(net.value());
    inputs->updates = std::move(updates.value());
  }
  t.load_s = MsSince(t0) / 1e3;
  if (inputs->updates.empty()) Die("datagen produced no update stream");
  inputs->first_day =
      core::DateFromDateTime(inputs->updates.front().timestamp);

  t0 = Clock::now();
  {
    Tracer::Scope s(tracer, "storage.init_store");
    CheckOk(storage::InitStore(store_dir, inputs->bulk, inputs->first_day - 1),
            "InitStore");
  }
  t.init_store_s = MsSince(t0) / 1e3;

  core::SocialNetwork copy = inputs->bulk;  // untimed: kept for later rounds
  t0 = Clock::now();
  {
    Tracer::Scope s(tracer, "storage.build");
    inputs->graph = std::make_shared<storage::Graph>(std::move(copy));
  }
  t.build_ms = MsSince(t0);

  t0 = Clock::now();
  {
    Tracer::Scope s(tracer, "params.curate");
    params::CurationConfig pc;
    pc.seed = opt.seed;
    pc.per_query = w.bindings;
    inputs->params = params::CurateParameters(*inputs->graph, pc);
  }
  t.curate_s = MsSince(t0) / 1e3;
  fs::remove_all(data_dir);
  fs::remove_all(base_dir + "/spill");
  return t;
}

/// A further setup repetition in a child process, so its memory neither
/// adds to the run's peak RSS nor stays in the measuring process's heap.
SetupTimes SetupInChild(const WorkloadSpec& w, const Options& opt, int rep) {
  int fds[2];
  if (pipe(fds) != 0) Die("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) Die("fork failed");
  const std::string dir = opt.dir + "/setup" + std::to_string(rep);
  if (pid == 0) {
    close(fds[0]);
    Inputs scratch;
    Tracer off(false, opt.seed);
    SetupTimes t = SetupOnce(w, opt, dir, &scratch, off);
    std::error_code ec;
    fs::remove_all(dir, ec);
    const bool sent = write(fds[1], &t, sizeof(t)) == sizeof(t);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  SetupTimes t;
  const bool received = read(fds[0], &t, sizeof(t)) == sizeof(t);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!received || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Die("setup repetition " + std::to_string(rep) + " failed");
  }
  return t;
}

/// Daily batches: the first `insert_days` days of the insert stream, then
/// derived DEL 1–8 days shifted past the last insert (every delete targets
/// a bulk-loaded entity, so no insert ever references a removed one).
std::vector<std::vector<datagen::UpdateEvent>> DailyBatches(
    const Inputs& in, int insert_days, uint64_t seed) {
  std::vector<std::vector<datagen::UpdateEvent>> days;
  core::Date current = std::numeric_limits<core::Date>::min();
  for (const datagen::UpdateEvent& e : in.updates) {
    core::Date day = core::DateFromDateTime(e.timestamp);
    if (day != current) {
      if (static_cast<int>(days.size()) == insert_days) break;
      days.emplace_back();
      current = day;
    }
    days.back().push_back(e);
  }
  if (days.empty()) return days;

  datagen::DeleteStreamOptions del;
  del.seed = seed;
  std::vector<datagen::UpdateEvent> deletes =
      datagen::DeriveDeleteStream(in.bulk, del);
  if (deletes.empty()) return days;
  core::DateTime offset = days.back().back().timestamp +
                          core::kMillisPerDay - deletes.front().timestamp;
  if (offset > 0) {
    for (datagen::UpdateEvent& e : deletes) e.timestamp += offset;
  }
  current = std::numeric_limits<core::Date>::min();
  for (const datagen::UpdateEvent& e : deletes) {
    core::Date day = core::DateFromDateTime(e.timestamp);
    if (day != current) {
      days.emplace_back();
      current = day;
    }
    days.back().push_back(e);
  }
  return days;
}

size_t CountDeletes(const std::vector<datagen::UpdateEvent>& batch) {
  return static_cast<size_t>(
      std::count_if(batch.begin(), batch.end(), [](const auto& e) {
        return datagen::IsDeleteKind(e.kind);
      }));
}

// ---------------------------------------------------------------------------
// Reads.
// ---------------------------------------------------------------------------

struct ReadStats {
  Samples batch_ms;       // power batch wall time
  Samples batch_cpu_ms;   // process CPU time over a power batch
  Samples overhead_ms;    // batch wall minus Σ op latency
  Samples op_ms;          // every read of every power batch
  std::map<int, Samples> per_template_ms;
  Samples final_qps;      // 1-stream qps on the final snapshot
};

sched::SchedulerConfig PowerConfig(const WorkloadSpec& w, uint64_t seed) {
  sched::SchedulerConfig cfg;
  cfg.num_streams = 1;
  cfg.num_workers = 1;
  cfg.bindings_per_query = w.bindings;
  cfg.dispatch = sched::DispatchPolicy::kSequential;
  cfg.seed = seed;
  return cfg;
}

/// One sequential power batch of the 25 reads; returns its outcomes.
std::vector<sched::OpOutcome> PowerBatch(const storage::Graph& graph,
                                         const params::WorkloadParameters& p,
                                         const WorkloadSpec& w, uint64_t seed,
                                         ReadStats* stats, Ledger* ledger,
                                         Tracer& tracer) {
  sched::ScheduleResult run;
  const double cpu0 = CpuMs();
  const Clock::time_point t0 = Clock::now();
  {
    Tracer::Scope s(tracer, "sched.power_batch");
    run = sched::RunStreams(graph, p, PowerConfig(w, seed));
  }
  const double wall_ms = MsSince(t0);
  const double cpu_ms = CpuMs() - cpu0;
  std::vector<sched::OpOutcome>& outcomes = run.streams.front().outcomes;
  if (stats == nullptr) return std::move(outcomes);  // untimed warm-up

  double sum_ms = 0;
  for (const sched::OpOutcome& o : outcomes) {
    ledger->Record(!o.cancelled,
                   "power read BI " + std::to_string(o.op.query) +
                       " cancelled");
    stats->op_ms.Add(o.latency_ms);
    stats->per_template_ms[o.op.query].Add(o.latency_ms);
    sum_ms += o.latency_ms;
  }
  stats->batch_ms.Add(wall_ms);
  stats->batch_cpu_ms.Add(cpu_ms);
  stats->overhead_ms.Add(wall_ms - sum_ms);
  return std::move(outcomes);
}

/// Scan counters of one power batch's ops, executed again on this thread
/// under a ScopedScanStats (the counters are a pure function of graph and
/// op, so the untimed pass gives the batch's exact counts).
struct ScanTotals {
  Samples rows_decoded;
  Samples blocks_skipped_date;
  Samples blocks_skipped_bound;
  Samples rows_skipped_bound;
  std::map<int, Samples> per_template_rows;
};

void ScanProbe(const storage::Graph& graph, const params::WorkloadParameters& p,
               const std::vector<sched::OpOutcome>& ops, ScanTotals* totals,
               Tracer& tracer) {
  Tracer::Scope span(tracer, "storage.scan_probe");
  double rows = 0, date_skips = 0, bound_block_skips = 0, bound_row_skips = 0;
  std::map<int, double> rows_by_template;
  for (const sched::OpOutcome& o : ops) {
    storage::ScanStats one;
    {
      storage::ScopedScanStats install(&one);
      sched::ExecuteStreamOp(graph, p, o.op, nullptr);
    }
    rows += one.rows_decoded.load();
    rows_by_template[o.op.query] += one.rows_decoded.load();
    date_skips += one.blocks_skipped_date.load();
    bound_block_skips += one.blocks_skipped_bound.load();
    bound_row_skips += one.rows_skipped_bound.load();
  }
  totals->rows_decoded.Add(rows);
  totals->blocks_skipped_date.Add(date_skips);
  totals->blocks_skipped_bound.Add(bound_block_skips);
  totals->rows_skipped_bound.Add(bound_row_skips);
  for (const auto& [q, n] : rows_by_template) {
    totals->per_template_rows[q].Add(n);
  }
}

/// One throughput run: back-to-back 2-stream RunStreams calls until at
/// least `min_ms` have passed. Returns completed reads per second. With a
/// ledger, every read is counted and checked against `reference`.
double ThroughputRun(const storage::Graph& graph,
                     const params::WorkloadParameters& p,
                     const WorkloadSpec& w, uint64_t seed, double min_ms,
                     const Fingerprints& reference, Ledger* ledger,
                     Tracer& tracer) {
  Tracer::Scope span(tracer, "sched.throughput");
  sched::SchedulerConfig cfg = PowerConfig(w, seed);
  cfg.num_streams = 2;
  cfg.num_workers = 2;
  std::vector<sched::ScheduleResult> runs;
  size_t completed = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    runs.push_back(sched::RunStreams(graph, p, cfg));
    completed += runs.back().total_completed;
  } while (MsSince(t0) < min_ms);
  const double qps = completed / (MsSince(t0) / 1e3);
  if (ledger != nullptr) {
    for (const sched::ScheduleResult& r : runs) {
      for (const sched::StreamResult& s : r.streams) {
        for (const sched::OpOutcome& o : s.outcomes) {
          ledger->Record(!o.cancelled, "throughput read cancelled");
        }
        CompareFingerprints(s.outcomes, reference, "throughput", *ledger);
      }
    }
  }
  return qps;
}

/// Untimed oracle check: every template's first binding against the naive
/// engine on `graph`.
void NaiveCheck(const storage::Graph& g, const params::WorkloadParameters& p,
                Ledger& ledger, Tracer& tracer) {
  Tracer::Scope span(tracer, "bi.naive_check");
#define SNB_PERFBENCH_NAIVE(N)                                           \
  if (!p.bi##N.empty()) {                                                \
    ledger.Record(bi::RunBi##N(g, p.bi##N[0]) ==                         \
                      bi::naive::RunBi##N(g, p.bi##N[0]),                \
                  "BI " #N " differs from the naive engine");            \
  }
  SNB_PERFBENCH_NAIVE(1) SNB_PERFBENCH_NAIVE(2) SNB_PERFBENCH_NAIVE(3)
  SNB_PERFBENCH_NAIVE(4) SNB_PERFBENCH_NAIVE(5) SNB_PERFBENCH_NAIVE(6)
  SNB_PERFBENCH_NAIVE(7) SNB_PERFBENCH_NAIVE(8) SNB_PERFBENCH_NAIVE(9)
  SNB_PERFBENCH_NAIVE(10) SNB_PERFBENCH_NAIVE(11) SNB_PERFBENCH_NAIVE(12)
  SNB_PERFBENCH_NAIVE(13) SNB_PERFBENCH_NAIVE(14) SNB_PERFBENCH_NAIVE(15)
  SNB_PERFBENCH_NAIVE(16) SNB_PERFBENCH_NAIVE(17) SNB_PERFBENCH_NAIVE(18)
  SNB_PERFBENCH_NAIVE(19) SNB_PERFBENCH_NAIVE(20) SNB_PERFBENCH_NAIVE(21)
  SNB_PERFBENCH_NAIVE(22) SNB_PERFBENCH_NAIVE(23) SNB_PERFBENCH_NAIVE(24)
  SNB_PERFBENCH_NAIVE(25)
#undef SNB_PERFBENCH_NAIVE
}

/// Fingerprints of one power batch's ops computed on this thread (untimed).
std::vector<sched::OpOutcome> Replay(const storage::Graph& graph,
                                     const params::WorkloadParameters& p,
                                     const std::vector<sched::OpOutcome>& ops) {
  std::vector<sched::OpOutcome> out;
  out.reserve(ops.size());
  for (const sched::OpOutcome& o : ops) {
    out.push_back(sched::ExecuteStreamOp(graph, p, o.op, nullptr));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Refresh.
// ---------------------------------------------------------------------------

struct RefreshStats {
  Samples batch_ms;
  Samples insert_ms;
  Samples delete_ms;
  Samples cpu_ms;
  size_t retries = 0;
  size_t events = 0;
  size_t deletes = 0;
  size_t batches = 0;
  size_t delete_batches = 0;
  core::Date last_committed_day = std::numeric_limits<core::Date>::min();
  // Traced decomposition, one sample per batch.
  Samples export_ms, build_ms, apply_ms, wal_ms, compact_ms, unattributed_ms;
};

driver::RefreshConfig RefreshSettings(uint64_t seed) {
  driver::RefreshConfig cfg;
  cfg.batch_days = 1;
  cfg.wal_sync = storage::WalSyncPolicy::kOnCommit;
  cfg.compact_deletes = true;
  cfg.checkpoint_every_batches = 0;
  cfg.seed = seed;
  return cfg;
}

/// Times the write path's phases on a private copy of the pre-batch
/// snapshot: export, rebuild, apply, WAL append + commit, compaction.
/// Returns their sum.
double DecomposeBatch(const storage::Graph& base,
                      const std::vector<datagen::UpdateEvent>& batch,
                      storage::Wal& scratch_wal, RefreshStats* stats,
                      Ledger& ledger, Tracer& tracer) {
  Tracer::Scope span(tracer, "refresh.decompose");
  Clock::time_point t0 = Clock::now();
  core::SocialNetwork net;
  {
    Tracer::Scope s(tracer, "storage.export");
    net = storage::ExportNetwork(base);
  }
  const double export_ms = MsSince(t0);

  t0 = Clock::now();
  std::unique_ptr<storage::Graph> shadow;
  {
    Tracer::Scope s(tracer, "storage.refresh_build");
    shadow = std::make_unique<storage::Graph>(std::move(net),
                                              base.CompactionEpoch());
  }
  const double build_ms = MsSince(t0);

  t0 = Clock::now();
  {
    Tracer::Scope s(tracer, "interactive.apply");
    for (const datagen::UpdateEvent& e : batch) {
      util::Status st = interactive::ApplyUpdate(*shadow, e);
      if (!st.ok()) ledger.Fail("traced apply: " + st.ToString());
    }
  }
  const double apply_ms = MsSince(t0);

  t0 = Clock::now();
  {
    Tracer::Scope s(tracer, "storage.wal");
    core::Date day = core::DateFromDateTime(batch.back().timestamp);
    util::Status st = scratch_wal.BatchBegin(day);
    size_t deletes = CountDeletes(batch);
    if (st.ok() && deletes > 0) {
      st = scratch_wal.NoteDeleteBatch(day, static_cast<uint32_t>(deletes));
    }
    for (size_t i = 0; st.ok() && i < batch.size(); ++i) {
      st = scratch_wal.Append(batch[i]);
    }
    if (st.ok()) st = scratch_wal.BatchCommit(day);
    if (!st.ok()) ledger.Fail("traced WAL: " + st.ToString());
  }
  const double wal_ms = MsSince(t0);

  double compact_ms = 0;
  if (shadow->HasTombstones()) {
    t0 = Clock::now();
    Tracer::Scope s(tracer, "storage.compact");
    storage::Graph compacted(storage::ExportNetwork(*shadow),
                             shadow->CompactionEpoch() + 1);
    compact_ms = MsSince(t0);
    stats->compact_ms.Add(compact_ms);
  }
  stats->export_ms.Add(export_ms);
  stats->build_ms.Add(build_ms);
  stats->apply_ms.Add(apply_ms);
  stats->wal_ms.Add(wal_ms);
  return export_ms + build_ms + apply_ms + wal_ms + compact_ms;
}

/// Applies one daily batch through RunBatchedRefresh and records it.
void RefreshBatch(const std::string& store_dir, driver::GraphHandle& handle,
                  const std::vector<datagen::UpdateEvent>& batch,
                  uint64_t seed, storage::Wal* scratch_wal,
                  RefreshStats* stats, Ledger& ledger, Tracer& tracer) {
  double decomposed_ms = 0;
  if (scratch_wal != nullptr) {
    decomposed_ms = DecomposeBatch(*handle.Current(), batch, *scratch_wal,
                                   stats, ledger, tracer);
  }
  const double cpu0 = CpuMs();
  const Clock::time_point t0 = Clock::now();
  util::StatusOr<driver::RefreshReport> report = [&] {
    Tracer::Scope s(tracer, "driver.refresh");
    return driver::RunBatchedRefresh(store_dir, handle, batch,
                                     RefreshSettings(seed));
  }();
  const double wall_ms = MsSince(t0);
  const double cpu_ms = CpuMs() - cpu0;
  ledger.Record(report.ok() && report.value().batches_applied == 1,
                "refresh batch: " + (report.ok() ? std::string("not applied")
                                                 : report.status().ToString()));
  if (!report.ok()) return;
  const size_t deletes = CountDeletes(batch);
  stats->batch_ms.Add(wall_ms);
  (deletes > 0 ? stats->delete_ms : stats->insert_ms).Add(wall_ms);
  stats->cpu_ms.Add(cpu_ms);
  stats->retries += report.value().retries;
  stats->events += batch.size();
  stats->deletes += deletes;
  stats->batches += 1;
  stats->delete_batches += deletes > 0 ? 1 : 0;
  stats->last_committed_day = report.value().last_committed_day;
  if (scratch_wal != nullptr) {
    stats->unattributed_ms.Add(wall_ms - decomposed_ms);
  }
}

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ',';
    out += JsonString(metrics[i].name);
    out += ":{\"value\":" + Num(metrics[i].value);
    out += ",\"unit\":" + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

int Run(const Options& opt) {
  const WorkloadSpec w = FindWorkload(opt.workload);
  fs::create_directories(opt.dir);
  const std::string store_dir = opt.dir + "/store";
  Tracer tracer(opt.trace, opt.seed);
  Ledger ledger;
  std::map<std::string, std::string> context;

  const uint64_t steal0 = StealTicks();
  const Clock::time_point run_t0 = Clock::now();
  // Spin probe first: it also warms the vCPUs, which start cold.
  const double spin_scaling = SpinScaling(0.3);
  context["nproc"] = std::to_string(std::thread::hardware_concurrency());
  context["spin_scaling_2t"] = Num(spin_scaling);

  // --- setup; the first repetition builds this run's inputs.
  Inputs in;
  std::vector<SetupTimes> setups;
  setups.push_back(SetupOnce(w, opt, opt.dir, &in, tracer));
  const storage::columnar::MemoryBreakdown memory = in.graph->Memory();

  driver::GraphHandle handle(in.graph);
  const std::vector<std::vector<datagen::UpdateEvent>> days =
      DailyBatches(in, w.insert_days, opt.seed);
  if (days.empty()) Die("no refresh batches");

  // --- untimed warm-up: one power batch and one throughput run.
  // `reference` holds the power-batch fingerprints of the snapshot the
  // throughput runs and recovery are checked against.
  std::vector<sched::OpOutcome> last_power;
  Fingerprints reference;
  {
    Tracer::Scope s(tracer, "warmup");
    last_power =
        PowerBatch(*in.graph, in.params, w, opt.seed, nullptr, nullptr, tracer);
    reference = FingerprintsOf(last_power);
    ThroughputRun(*in.graph, in.params, w, opt.seed, 250, reference, nullptr,
                  tracer);
  }
  auto corrupt_reference = [&] {
    if (opt.corrupt_fingerprint) reference.begin()->second ^= 1;
  };
  if (!w.daily_refresh) corrupt_reference();

  std::unique_ptr<storage::Wal> scratch_wal;
  if (opt.trace) {
    scratch_wal = std::make_unique<storage::Wal>();
    CheckOk(scratch_wal->Open(opt.dir + "/trace_wal.log",
                              {storage::WalSyncPolicy::kOnCommit}),
            "scratch WAL");
  }
  // bi-reads times refresh on a private store whose handle is reset to the
  // static graph before every probe batch, so its reads never see a change.
  const std::string probe_dir = opt.dir + "/probe";
  driver::GraphHandle probe_handle(in.graph);
  if (!w.daily_refresh) fs::create_directories(probe_dir);

  ReadStats reads;
  ScanTotals scans;
  RefreshStats refresh;
  Samples qps;
  Samples recover_s;
  size_t replayed_batches = 0;
  uint64_t wal_bytes = 0;
  size_t wal_events = 0;
  double store_mb = w.daily_refresh ? 0.0 : DirMb(store_dir);
  std::vector<Fingerprints> first_round;  // bi-daily: per batch of round 0
  std::shared_ptr<const storage::Graph> final_graph = in.graph;
  core::Date acknowledged_day = in.first_day - 1;

  // `on_final`: the batch ran on the snapshot the throughput runs use, so
  // it is also the 1-stream base of sched.throughput_scaling.
  auto power = [&](const storage::Graph& g, bool on_final) {
    last_power = PowerBatch(g, in.params, w, opt.seed, &reads, &ledger,
                            tracer);
    if (on_final) {
      reads.final_qps.Add(last_power.size() /
                          (reads.batch_ms.values.back() / 1e3));
    }
    if (opt.trace) ScanProbe(g, in.params, last_power, &scans, tracer);
  };
  // A block of four timed throughput runs of >= 0.25 s. An idle vCPU
  // comes back slowly, so 0.5 s of untimed 2-stream work precedes them.
  auto throughput_block = [&] {
    ThroughputRun(*final_graph, in.params, w, opt.seed, 500, reference,
                  nullptr, tracer);
    for (int i = 0; i < 4; ++i) {
      qps.Add(ThroughputRun(*final_graph, in.params, w, opt.seed, 250,
                            reference, &ledger, tracer));
    }
  };
  auto recover = [&] {
    const Clock::time_point t0 = Clock::now();
    util::StatusOr<storage::RecoveryResult> rec = [&] {
      Tracer::Scope s(tracer, "storage.recover");
      return storage::RecoveryManager(store_dir).Recover();
    }();
    const double secs = MsSince(t0) / 1e3;
    ledger.Record(rec.ok(), "recover: " + (rec.ok() ? std::string()
                                                    : rec.status().ToString()));
    if (!rec.ok()) return;
    recover_s.Add(secs);
    replayed_batches = rec.value().replayed_batches;
    if (rec.value().last_committed_day != acknowledged_day) {
      ledger.Fail("recovered last_committed_day " +
                  std::to_string(rec.value().last_committed_day) +
                  " != acknowledged " + std::to_string(acknowledged_day));
    }
    if (recover_s.size() == 1) {
      Tracer::Scope s(tracer, "recover.verify");
      CompareFingerprints(Replay(*rec.value().graph, in.params, last_power),
                          reference, "recovered", ledger);
    }
  };
  // One pass of the daily schedule from the bulk load: every pass replays
  // the same snapshot sequence, so batch k must always fingerprint alike.
  auto daily_round = [&] {
    if (!first_round.empty()) {
      Tracer::Scope s(tracer, "round_reset");
      fs::remove_all(store_dir);
      CheckOk(storage::InitStore(store_dir, in.bulk, in.first_day - 1),
              "InitStore");
      core::SocialNetwork copy = in.bulk;
      handle.Replace(std::make_shared<storage::Graph>(std::move(copy)));
    }
    const bool first = first_round.empty();
    for (size_t d = 0; d < days.size(); ++d) {
      RefreshBatch(store_dir, handle, days[d], opt.seed, scratch_wal.get(),
                   &refresh, ledger, tracer);
      power(*handle.Current(), d + 1 == days.size());
      if (first) {
        first_round.push_back(FingerprintsOf(last_power));
      } else {
        CompareFingerprints(last_power, first_round[d], "repeated round",
                            ledger);
      }
    }
    final_graph = handle.Current();
    acknowledged_day = refresh.last_committed_day;
    if (first) {
      reference = first_round.back();
      corrupt_reference();
    }
    wal_bytes = fs::file_size(storage::WalPath(store_dir));
    wal_events = 0;
    for (const auto& day : days) wal_events += day.size();
    store_mb = DirMb(store_dir);
  };
  // Every probe batch applies to the bulk graph, so only batches that need
  // no earlier batch qualify: the first insert day (twice in three) and the
  // largest delete day, whose deletes all target bulk entities.
  size_t probe_delete_day = 0;
  for (size_t d = w.insert_days; d < days.size(); ++d) {
    if (probe_delete_day == 0 ||
        days[d].size() > days[probe_delete_day].size()) {
      probe_delete_day = d;
    }
  }
  auto probe_refresh = [&](size_t i) {
    Tracer::Scope s(tracer, "refresh_probe");
    probe_handle.Replace(in.graph);
    const auto& batch = days[i % 3 == 2 ? probe_delete_day : 0];
    RefreshBatch(probe_dir, probe_handle, batch, opt.seed, scratch_wal.get(),
                 &refresh, ledger, tracer);
    wal_events += batch.size();
    wal_bytes = fs::file_size(storage::WalPath(probe_dir));
  };

  // --- measured window: cycles that interleave every timed phase, so each
  // metric's samples spread over the whole window rather than one stretch
  // of it. Further setup repetitions are spread over the window too.
  const Clock::time_point measure_t0 = Clock::now();
  auto elapsed_s = [&] { return MsSince(measure_t0) / 1e3; };
  size_t cycles = 0;
  for (;;) {
    if (w.daily_refresh) {
      daily_round();
      throughput_block();
      recover();
      recover();
    } else {
      for (int i = 0; i < 2; ++i) {
        power(*in.graph, true);
        CompareFingerprints(last_power, reference, "repeated power batch",
                            ledger);
      }
      probe_refresh(cycles);
      if (cycles % 2 == 1) recover();
      if (cycles % 3 == 2) throughput_block();
    }
    ++cycles;
    const int reps = static_cast<int>(setups.size());
    if (reps < w.setup_reps &&
        elapsed_s() >= opt.seconds * reps / w.setup_reps) {
      Tracer::Scope s(tracer, "setup_rep");
      setups.push_back(SetupInChild(w, opt, reps));
    }
    const bool enough = qps.size() >= 10 && recover_s.size() >= 3 &&
                        static_cast<int>(setups.size()) >= w.setup_reps &&
                        reads.op_ms.size() >= 1000;
    if (enough && elapsed_s() >= opt.seconds) break;
  }
  const double measure_s = elapsed_s();

  // --- untimed checks on the final snapshot.
  NaiveCheck(*final_graph, in.params, ledger, tracer);
  double validate_ms = 0;
  {
    Tracer::Scope s(tracer, "validate.validate");
    const Clock::time_point t0 = Clock::now();
    validate::ValidationReport report = validate::ValidateGraph(*final_graph);
    validate_ms = MsSince(t0);
    if (!report.ok()) ledger.Fail("final snapshot: " + report.ToString());
  }

  // Tracing overhead: alternate traced and untraced power batches on the
  // final snapshot. The traced side adds the spans and the scan probe that
  // the traced schedule adds per batch.
  double trace_overhead_ms = 0;
  if (opt.trace) {
    Tracer untraced(false, opt.seed);
    ReadStats on, off;
    Ledger scratch;
    ScanTotals scratch_scans;
    for (int i = 0; i < 6; ++i) {
      PowerBatch(*final_graph, in.params, w, opt.seed, &off, &scratch,
                 untraced);
      auto ops = PowerBatch(*final_graph, in.params, w, opt.seed, &on,
                            &scratch, tracer);
      ScanProbe(*final_graph, in.params, ops, &scratch_scans, tracer);
    }
    trace_overhead_ms = on.batch_ms.Median() - off.batch_ms.Median();
  }
  auto setup_median = [&](auto field) {
    Samples s;
    for (const SetupTimes& t : setups) s.Add(field(t));
    return s.Median();
  };

  // --- metrics. The end-to-end set is always computed; a traced run
  // reports it as context (traced minus untraced is the tracing overhead).
  std::vector<Metric> end_to_end;
  {
    const double refresh_median_ms = refresh.batch_ms.Median();
    double log_sum = 0;
    size_t terms = 0;
    for (const auto& [q, s] : reads.per_template_ms) {
      log_sum += std::log(s.Median() / 1e3);
      ++terms;
    }
    if (w.daily_refresh) {
      log_sum += std::log(refresh_median_ms / 1e3);
      ++terms;
    }
    const double geomean_s = std::exp(log_sum / terms);
    end_to_end = {
        {"setup_s", setup_median([](const SetupTimes& t) { return t.Total(); }),
         "s"},
        {"power_at_sf", 3600.0 / geomean_s * w.sf, "score"},
        {"power_batch_ms", reads.batch_ms.Median(), "ms"},
        {"read_ms_p50", reads.op_ms.Percentile(0.5), "ms"},
        {"read_ms_p99", reads.op_ms.Percentile(0.99), "ms"},
        {"refresh_ms", refresh_median_ms, "ms"},
        {"throughput_qps", qps.Median(), "1/s"},
        {"recover_s", recover_s.Median(), "s"},
        {"peak_rss_mb", VmHwmMb(), "MB"},
        {"store_mb", store_mb, "MB"},
    };
  }
  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = end_to_end;
  } else {
    auto add = [&](const std::string& name, double v, const char* unit) {
      metrics.push_back({name, v, unit});
    };
    add("datagen.generate_s",
        setup_median([](const SetupTimes& t) { return t.generate_s; }), "s");
    add("params.curate_s",
        setup_median([](const SetupTimes& t) { return t.curate_s; }), "s");
    add("storage.load_s",
        setup_median([](const SetupTimes& t) { return t.load_s; }), "s");
    add("storage.init_store_s",
        setup_median([](const SetupTimes& t) { return t.init_store_s; }),
        "s");
    add("storage.build_ms",
        setup_median([](const SetupTimes& t) { return t.build_ms; }), "ms");
    add("storage.refresh_build_ms", refresh.build_ms.Median(), "ms");
    add("storage.export_ms", refresh.export_ms.Median(), "ms");
    add("storage.wal_ms", refresh.wal_ms.Median(), "ms");
    add("storage.compact_ms", refresh.compact_ms.Median(), "ms");
    add("storage.wal_bytes_per_event",
        wal_events ? static_cast<double>(wal_bytes) / wal_events : 0, "B");
    add("storage.memory_mb",
        static_cast<double>(memory.total_bytes()) / (1024.0 * 1024.0), "MB");
    add("storage.bytes_per_edge", memory.BytesPerEdge(), "B");
    add("storage.rows_decoded", scans.rows_decoded.Median(), "count");
    add("storage.blocks_skipped_date", scans.blocks_skipped_date.Median(),
        "count");
    add("storage.recover_replayed_batches",
        static_cast<double>(replayed_batches), "count");
    add("engine.blocks_skipped_bound", scans.blocks_skipped_bound.Median(),
        "count");
    add("engine.rows_skipped_bound", scans.rows_skipped_bound.Median(),
        "count");
    add("interactive.apply_ms", refresh.apply_ms.Median(), "ms");
    add("interactive.events_per_batch",
        refresh.batches ? static_cast<double>(refresh.events) /
                              refresh.batches
                        : 0,
        "count");
    add("interactive.deletes_per_batch",
        refresh.delete_batches ? static_cast<double>(refresh.deletes) /
                                     refresh.delete_batches
                               : 0,
        "count");
    add("driver.refresh_ms.insert", refresh.insert_ms.Median(), "ms");
    add("driver.refresh_ms.delete", refresh.delete_ms.Median(), "ms");
    add("driver.refresh_cpu_ms", refresh.cpu_ms.Median(), "ms");
    add("driver.refresh_unattributed_ms", refresh.unattributed_ms.Median(),
        "ms");
    add("driver.retries", static_cast<double>(refresh.retries), "count");
    add("validate.validate_ms", validate_ms, "ms");
    add("sched.power_overhead_ms", reads.overhead_ms.Median(), "ms");
    add("sched.power_cpu_ms", reads.batch_cpu_ms.Median(), "ms");
    add("sched.throughput_scaling", qps.Median() / reads.final_qps.Median(),
        "ratio");
    add("trace.overhead_ms", trace_overhead_ms, "ms");
    for (int q = 1; q <= 25; ++q) {
      char name[32];
      std::snprintf(name, sizeof(name), "bi.q%02d_ms", q);
      add(name, reads.per_template_ms[q].Median(), "ms");
    }
    for (int q = 1; q <= 25; ++q) {
      char name[40];
      std::snprintf(name, sizeof(name), "bi.q%02d_rows_decoded", q);
      add(name, scans.per_template_rows[q].Median(), "count");
    }
  }

  context["workload"] = JsonString(w.name);
  context["seed"] = std::to_string(opt.seed);
  context["persons"] =
      std::to_string(opt.persons ? opt.persons : w.persons);
  context["activity_scale"] = Num(w.activity);
  context["scale_factor"] = Num(w.sf);
  context["bindings_per_template"] = std::to_string(w.bindings);
  context["refresh_settings"] = JsonString(
      "wal_sync=kOnCommit compact_deletes=on checkpoint_every_batches=0 "
      "batch_days=1");
  context["power_workers"] = "1";
  context["throughput_streams_workers"] = "2";
  context["refresh_batches_per_round"] = std::to_string(days.size());
  context["cycles"] = std::to_string(cycles);
  context["refresh_batches"] = std::to_string(refresh.batches);
  context["read_samples"] = std::to_string(reads.op_ms.size());
  context["read_p99_samples_beyond"] =
      std::to_string(reads.op_ms.size() -
                     static_cast<size_t>(std::ceil(0.99 * reads.op_ms.size())));
  context["power_batches"] = std::to_string(reads.batch_ms.size());
  context["throughput_runs"] = std::to_string(qps.size());
  context["recover_calls"] = std::to_string(recover_s.size());
  context["setup_reps"] = std::to_string(setups.size());
  context["measure_s"] = Num(measure_s);
  context["run_s"] = Num(MsSince(run_t0) / 1e3);
  context["steal_ticks"] = std::to_string(StealTicks() - steal0);

  if (opt.trace) context["end_to_end_traced"] = MetricsJson(end_to_end);
  if (opt.trace && !opt.trace_out.empty()) tracer.Write(opt.trace_out);

  std::ostringstream out;
  out << "{\"correct\":" << (ledger.failed == 0 ? "true" : "false")
      << ",\"attempted\":" << ledger.attempted
      << ",\"failed\":" << ledger.failed << ",\"failures\":[";
  for (size_t i = 0; i < ledger.failures.size(); ++i) {
    out << (i ? "," : "") << JsonString(ledger.failures[i]);
  }
  out << "],\"metrics\":" << MetricsJson(metrics) << ",\"context\":{";
  bool first = true;
  for (const auto& [k, v] : context) {
    out << (first ? "" : ",") << JsonString(k) << ":" << v;
    first = false;
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace snb::perfbench

int main(int argc, char** argv) {
  return snb::perfbench::Run(snb::perfbench::ParseOptions(argc, argv));
}
