// The workload driver (spec §3.4 load definition, §6.2 run rules).
//
// Executes the Interactive workload against a live graph: update operations
// are replayed at their simulation timestamps; one complex read of type i is
// interleaved every frequency[i] updates (Table 3.1/B.1); each complex read
// is followed by short-read sequences with geometrically decaying
// probability, parameterized from previous results. A Time Compression
// Ratio maps simulation time to wall-clock time; the results log records
// scheduled vs actual start for the §6.2 95 %-on-time audit check.
//
// BI read streams — power and throughput runs — go through
// sched::RunStreams, and refresh batches through RunBatchedRefresh
// (driver/refresh.h); this driver runs only the Interactive workload.

#ifndef SNB_DRIVER_DRIVER_H_
#define SNB_DRIVER_DRIVER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/scale_factors.h"
#include "datagen/datagen.h"
#include "params/parameter_curation.h"
#include "sched/histogram.h"
#include "storage/graph.h"
#include "util/status.h"

namespace snb::driver {

struct DriverConfig {
  /// Scale-factor name used to look up the complex-read frequencies.
  std::string sf_name = "1";

  /// Simulation-milliseconds executed per wall-clock millisecond. The
  /// spec's Time Compression Ratio "squeezes" the workload; large values
  /// approximate as-fast-as-possible.
  double acceleration = 1e6;

  /// When true, never sleeps (throughput mode); scheduled times are still
  /// tracked for the on-time metric.
  bool as_fast_as_possible = true;

  /// Caps the number of update operations consumed (0 = all).
  size_t max_updates = 0;

  /// Initial probability of issuing a short-read sequence after a complex
  /// read, halving per issued sequence (spec §3.4).
  double short_read_probability = 0.5;

  uint64_t seed = 42;
};

struct OperationStats {
  size_t count = 0;
  double total_ms = 0;
  double max_ms = 0;
  /// Bounded-memory latency record (replaces the old unbounded per-sample
  /// vector); percentiles are exact within one histogram bucket ratio.
  sched::LatencyHistogram latencies;

  /// Folds one latency sample into count/total/max and the histogram.
  void Record(double latency_ms) {
    ++count;
    total_ms += latency_ms;
    if (latency_ms > max_ms) max_ms = latency_ms;
    latencies.Record(latency_ms);
  }

  double MeanMs() const { return count == 0 ? 0 : total_ms / count; }
  double PercentileMs(double p) const { return latencies.PercentileMs(p); }
};

/// One row of the results log (spec §6.2: scheduled vs actual start per
/// operation feed the 95 %-on-time audit check).
struct ResultsLogEntry {
  std::string operation;
  double scheduled_start_ms = 0;
  double actual_start_ms = 0;
  double duration_ms = 0;
  size_t result_rows = 0;
};

/// Writes the results log as results_log.csv ('|'-separated, with header).
util::Status WriteResultsLog(const std::vector<ResultsLogEntry>& log,
                             const std::string& path);

struct DriverReport {
  size_t total_operations = 0;
  size_t update_operations = 0;
  size_t complex_reads = 0;
  size_t short_reads = 0;
  double wall_seconds = 0;
  double throughput_ops_per_sec = 0;
  /// Fraction of operations with actual_start - scheduled_start < 1 s
  /// (spec §6.2 requires ≥ 95 %). Always 1.0 in as-fast-as-possible mode.
  double on_time_fraction = 1.0;

  /// Per operation type ("IC 1".."IC 14", "IS 1".."IS 7", "IU 1".."IU 8").
  std::map<std::string, OperationStats> per_operation;

  /// Full per-operation log in execution order (results_log.csv content).
  std::vector<ResultsLogEntry> results_log;
};

/// Runs the Interactive workload: replays `updates` into `graph`,
/// interleaving complex and short reads per the SF frequencies.
DriverReport RunInteractiveWorkload(storage::Graph& graph,
                                    const std::vector<datagen::UpdateEvent>& updates,
                                    const params::WorkloadParameters& params,
                                    const DriverConfig& config);

}  // namespace snb::driver

#endif  // SNB_DRIVER_DRIVER_H_
