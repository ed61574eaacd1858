#include "sched/scheduler.h"

#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "util/check.h"
#include "util/thread_pool.h"

namespace snb::sched {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// One throughput/power run. The graph is shared read-only. Each stream is
/// a chain of ops: a finished op records its outcome in its own stream's
/// StreamResult, then submits the stream's next op. At most one op per
/// stream exists at any time, and the pool's queue orders successive links,
/// so `results_[s]` has one writer at a time and needs no lock.
class StreamScheduler {
 public:
  StreamScheduler(const storage::Graph& graph,
                  const params::WorkloadParameters& params,
                  const SchedulerConfig& config)
      : graph_(graph), params_(params), config_(config) {
    SNB_CHECK(config.num_streams > 0);
    workers_ = config.num_workers > 0
                   ? config.num_workers
                   : std::max<size_t>(1, std::thread::hardware_concurrency());
    streams_.reserve(config.num_streams);
    results_.resize(config.num_streams);
    for (size_t s = 0; s < config.num_streams; ++s) {
      streams_.emplace_back(
          QueryStream(s, params, config.bindings_per_query, config.seed));
      results_[s].stream_id = s;
      results_[s].outcomes.resize(streams_[s].ops().size());
    }
  }

  ScheduleResult Run() {
    util::ThreadPool pool(workers_);
    // Power runs (one stream, several workers) parallelize *within* the one
    // running query: the executing worker participates in the morsel loop
    // and the remaining workers serve as helpers. Throughput runs keep
    // streams-only parallelism — every worker runs a whole query.
    // Adaptive dispatch calibrates the cost model once per run (the graph
    // is immutable for the run's duration — one epoch), then lets it
    // arbitrate every partitioned kernel.
    if (config_.dispatch == DispatchPolicy::kAdaptive &&
        config_.num_streams == 1 && workers_ > 1) {
      intra_pool_ = &pool;
      dispatch_model_.emplace(workers_ - 1,
                              std::thread::hardware_concurrency());
      dispatch_model_->Calibrate(graph_);
    }
    t0_ = Clock::now();
    for (size_t s = 0; s < streams_.size(); ++s) SubmitOp(pool, s, 0);
    pool.Wait();
    return Collect();
  }

 private:
  /// Queues op `index` of stream `s`, if the stream has one.
  void SubmitOp(util::ThreadPool& pool, size_t s, size_t index) {
    if (index >= streams_[s].ops().size()) return;
    pool.Submit([this, &pool, s, index] { RunOne(pool, s, index); });
  }

  /// Executes one op on a pool worker, records its outcome, then submits
  /// the stream's next op.
  void RunOne(util::ThreadPool& pool, size_t s, size_t index) {
    const StreamOp op = streams_[s].ops()[index];
    bi::CancelToken token;
    if (config_.query_deadline_ms > 0) {
      token.SetDeadlineAfterMs(config_.query_deadline_ms);
    }
    const double start_ms = MsSince(t0_);
    OpOutcome outcome =
        ExecuteStreamOp(graph_, params_, op, &token, intra_pool_,
                        dispatch_model_ ? &*dispatch_model_ : nullptr);
    outcome.latency_ms = MsSince(t0_) - start_ms;

    StreamResult& result = results_[s];
    if (outcome.cancelled) {
      ++result.cancelled;
    } else {
      ++result.completed;
      result.latencies.Record(outcome.latency_ms);
    }
    result.outcomes[index] = outcome;
    SubmitOp(pool, s, index + 1);
  }

  /// Merges the per-stream accounting; runs after pool.Wait(), when no
  /// worker can touch results_ anymore.
  ScheduleResult Collect() {
    ScheduleResult result;
    result.wall_seconds = MsSince(t0_) / 1000.0;
    result.streams.reserve(results_.size());
    for (StreamResult& stream : results_) {
      result.total_completed += stream.completed;
      result.total_cancelled += stream.cancelled;
      for (const OpOutcome& o : stream.outcomes) {
        if (!o.cancelled) {
          result.per_query[StreamOpName(o.op)].Record(o.latency_ms);
        }
        if (o.dispatch_considered) {
          result.dispatch_decisions.push_back(o.dispatch);
          if (o.dispatch.choice == engine::DispatchChoice::kMorsel) {
            ++result.morsel_chosen;
          } else {
            ++result.morsel_refused;
          }
        }
      }
      result.streams.push_back(std::move(stream));
    }
    return result;
  }

  const storage::Graph& graph_;
  const params::WorkloadParameters& params_;
  const SchedulerConfig& config_;
  size_t workers_ = 0;
  util::ThreadPool* intra_pool_ = nullptr;
  /// Engaged for adaptive power runs; calibrated once before the first
  /// submit and read-only afterwards, so workers consult it without locking.
  std::optional<engine::DispatchModel> dispatch_model_;
  Clock::time_point t0_;
  /// Immutable after construction.
  std::vector<QueryStream> streams_;
  /// One per stream, written only by that stream's single in-flight op.
  std::vector<StreamResult> results_;
};

}  // namespace

ScheduleResult RunStreams(const storage::Graph& graph,
                          const params::WorkloadParameters& params,
                          const SchedulerConfig& config) {
  return StreamScheduler(graph, params, config).Run();
}

}  // namespace snb::sched
