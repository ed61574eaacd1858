// Concurrent query-stream scheduler (the paper's throughput run, §6).
//
// Runs N independent BI query streams — each a permuted sequence of the 25
// reads with curated substitution parameters — against one shared read-only
// storage::Graph on a fixed worker pool. Three mechanisms keep the run
// well-behaved under load:
//
//   * sequential streams: as in the paper's power and throughput tests, a
//     stream runs its queries one after another — a finished query submits
//     its stream's next op — so streams interleave on the pool without any
//     stream monopolizing it;
//   * cooperative cancellation: each query gets a CancelToken armed with
//     `query_deadline_ms`; BI implementations poll it at loop boundaries
//     (bi/cancel.h) and over-deadline queries unwind and are recorded as
//     cancelled rather than wedging a worker;
//   * bounded accounting: latencies land in fixed-bucket log-scale
//     histograms (sched/histogram.h), per stream and per query template, so
//     memory is O(streams + templates) regardless of run length.
//
// The result feeds sched/score.h, which turns a single-stream run into
// Power@SF and a multi-stream run into Throughput@SF.

#ifndef SNB_SCHED_SCHEDULER_H_
#define SNB_SCHED_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/dispatch.h"
#include "params/parameter_curation.h"
#include "sched/histogram.h"
#include "sched/stream.h"
#include "storage/graph.h"

namespace snb::sched {

/// How power runs pick the slot count of the morsel-partitioned kernels.
enum class DispatchPolicy : uint8_t {
  kSequential,  ///< every query runs on one slot
  kAdaptive,    ///< engine::DispatchModel decides per query from a cost model
};

struct SchedulerConfig {
  /// Number of concurrent query streams (1 = the power run).
  size_t num_streams = 1;

  /// Worker threads executing queries; 0 = hardware concurrency.
  size_t num_workers = 0;

  /// Curated bindings executed per query template per stream (clamped to
  /// the number available).
  size_t bindings_per_query = 1;

  /// Per-query deadline in milliseconds; 0 disables. Over-deadline queries
  /// are cooperatively cancelled and recorded, not retried.
  double query_deadline_ms = 0;

  /// Slot-count policy for power runs. With a single stream and more than
  /// one worker, the otherwise idle workers can execute morsels of the one
  /// running query; with multiple streams the workers are already saturated
  /// running whole queries, so intra-query parallelism is never engaged
  /// there (the pool is never oversubscribed). kAdaptive calibrates an
  /// engine::DispatchModel once per run and refuses fan-out for queries the
  /// cost model predicts would not gain from it.
  DispatchPolicy dispatch = DispatchPolicy::kAdaptive;

  /// Seed for the per-stream permutations.
  uint64_t seed = 42;
};

/// Everything recorded about one stream of a run.
struct StreamResult {
  size_t stream_id = 0;
  /// Outcomes in the stream's (permuted) issue order.
  std::vector<OpOutcome> outcomes;
  /// Latencies of completed (non-cancelled) queries.
  LatencyHistogram latencies;
  size_t completed = 0;
  size_t cancelled = 0;
};

struct ScheduleResult {
  std::vector<StreamResult> streams;
  /// Completed-query latencies per template ("BI 1".."BI 25"), merged over
  /// all streams.
  std::map<std::string, LatencyHistogram> per_query;
  double wall_seconds = 0;
  size_t total_completed = 0;
  size_t total_cancelled = 0;

  /// Every cost-model decision taken (adaptive power runs only), in stream
  /// issue order, plus the tally — the run report logs these so refused
  /// fan-outs are visible rather than silent.
  std::vector<engine::DispatchDecision> dispatch_decisions;
  size_t morsel_chosen = 0;
  size_t morsel_refused = 0;

  /// Completed queries per wall-clock hour across all streams.
  double QueriesPerHour() const {
    return wall_seconds == 0
               ? 0
               : static_cast<double>(total_completed) * 3600.0 / wall_seconds;
  }
};

/// Runs the configured streams to completion and returns the merged
/// accounting. The graph is shared read-only across all workers.
ScheduleResult RunStreams(const storage::Graph& graph,
                          const params::WorkloadParameters& params,
                          const SchedulerConfig& config);

}  // namespace snb::sched

#endif  // SNB_SCHED_SCHEDULER_H_
