#include "sched/scheduler.h"

#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "util/check.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace snb::sched {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Mutable per-stream scheduling state: the admission cursor, the in-flight
/// count and the accumulating result. Every field is touched only under the
/// scheduler mutex (annotated on StreamScheduler::progress_); the stream's
/// immutable op list lives separately in StreamScheduler::streams_ so that
/// workers can read ops without locking.
struct StreamProgress {
  size_t next = 0;       // next op index to admit
  size_t in_flight = 0;  // ops currently executing
  StreamResult result;
};

/// One throughput/power run. The graph is shared read-only; `mu_` guards the
/// admission state, and clang's thread-safety analysis verifies that every
/// access to `progress_` holds it.
class StreamScheduler {
 public:
  StreamScheduler(const storage::Graph& graph,
                  const params::WorkloadParameters& params,
                  const SchedulerConfig& config)
      : graph_(graph), params_(params), config_(config) {
    SNB_CHECK(config.num_streams > 0);
    SNB_CHECK(config.max_in_flight_per_stream > 0);
    workers_ = config.num_workers > 0
                   ? config.num_workers
                   : std::max<size_t>(1, std::thread::hardware_concurrency());
    streams_.reserve(config.num_streams);
    progress_.resize(config.num_streams);
    for (size_t s = 0; s < config.num_streams; ++s) {
      streams_.emplace_back(
          QueryStream(s, params, config.bindings_per_query, config.seed));
      progress_[s].result.stream_id = s;
      progress_[s].result.outcomes.resize(streams_[s].ops().size());
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
    {
      util::MutexLock lock(mu_);
      for (size_t s = 0; s < streams_.size(); ++s) Admit(s, pool);
    }
    pool.Wait();
    return Collect();
  }

 private:
  /// Tops stream `s` up to its in-flight bound. A finishing op re-admits its
  /// own stream, so each stream advances as a chain of at most
  /// max_in_flight_per_stream concurrent links.
  void Admit(size_t s, util::ThreadPool& pool) SNB_REQUIRES(mu_) {
    StreamProgress& st = progress_[s];
    while (st.in_flight < config_.max_in_flight_per_stream &&
           st.next < streams_[s].ops().size()) {
      size_t index = st.next++;
      ++st.in_flight;
      pool.Submit([this, &pool, s, index] { RunOne(pool, s, index); });
    }
  }

  /// Executes one admitted op on a pool worker, then records the outcome and
  /// re-admits under the lock.
  void RunOne(util::ThreadPool& pool, size_t s, size_t index)
      SNB_EXCLUDES(mu_) {
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

    util::MutexLock lock(mu_);
    StreamProgress& st = progress_[s];
    if (outcome.cancelled) {
      ++st.result.cancelled;
    } else {
      ++st.result.completed;
      st.result.latencies.Record(outcome.latency_ms);
    }
    st.result.outcomes[index] = outcome;
    --st.in_flight;
    Admit(s, pool);
  }

  /// Merges the per-stream accounting; runs after pool.Wait(), when no
  /// worker can touch progress_ anymore (the lock is still taken so the
  /// analysis can prove the access).
  ScheduleResult Collect() SNB_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    ScheduleResult result;
    result.wall_seconds = MsSince(t0_) / 1000.0;
    result.workers_used = workers_;
    result.streams.reserve(progress_.size());
    for (StreamProgress& st : progress_) {
      result.total_completed += st.result.completed;
      result.total_cancelled += st.result.cancelled;
      for (const OpOutcome& o : st.result.outcomes) {
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
      result.streams.push_back(std::move(st.result));
    }
    return result;
  }

  const storage::Graph& graph_;
  const params::WorkloadParameters& params_;
  const SchedulerConfig& config_;
  // snb-lint-allow(guarded-by): set once in Run() before worker admission
  size_t workers_ = 0;
  // snb-lint-allow(guarded-by): set once before workers start
  util::ThreadPool* intra_pool_ = nullptr;
  /// Engaged for adaptive power runs; calibrated once before admission and
  /// read-only afterwards, so workers consult it without locking.
  // snb-lint-allow(guarded-by): immutable once workers are admitted
  std::optional<engine::DispatchModel> dispatch_model_;
  // snb-lint-allow(guarded-by): stamped once at run start, read-only after
  Clock::time_point t0_;

  /// Immutable after construction; read by workers without the lock.
  // snb-lint-allow(guarded-by): immutable after construction
  std::vector<QueryStream> streams_;

  /// Level 10: held across pool.Submit() in Admit(), i.e. ordered strictly
  /// below the level-20 thread-pool queue lock — the one deliberate
  /// holding-one-while-taking-the-other pattern in the repo, declared so
  /// snb_lint's static lock-order checks treat it as a checked invariant
  /// rather than an incidental edge.
  util::Mutex mu_{SNB_LOCK_LEVEL("sched.stream_mu", 10)};
  std::vector<StreamProgress> progress_ SNB_GUARDED_BY(mu_);
};

}  // namespace

ScheduleResult RunStreams(const storage::Graph& graph,
                          const params::WorkloadParameters& params,
                          const SchedulerConfig& config) {
  return StreamScheduler(graph, params, config).Run();
}

}  // namespace snb::sched
