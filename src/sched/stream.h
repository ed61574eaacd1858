// Query streams: permuted sequences of the 25 BI reads.
//
// The BI workload's throughput run executes several independent query
// streams against the same snapshot; each stream issues every read template
// with curated substitution parameters, in a per-stream permuted order so
// that concurrent streams do not march through the templates in lockstep
// (paper §6: "concurrent query streams ... each executing a permutation of
// the query sequence"). The permutation is a pure function of
// (seed, stream id), so runs are reproducible.
//
// ExecuteStreamOp is the single dispatch point the scheduler uses: it runs
// one (template, binding) pair under an optional cancellation token and
// reduces the typed result rows to (row count, order-sensitive fingerprint)
// so results from concurrent runs can be compared bit-for-bit against a
// sequential reference without retaining the rows.

#ifndef SNB_SCHED_STREAM_H_
#define SNB_SCHED_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bi/cancel.h"
#include "engine/dispatch.h"
#include "params/parameter_curation.h"
#include "storage/graph.h"
#include "util/thread_pool.h"

namespace snb::sched {

/// One unit of stream work: BI template `query` (1-based) with the
/// `binding`-th curated parameter binding.
struct StreamOp {
  int query = 0;       // 1..25
  size_t binding = 0;  // index into the template's curated binding list
};

/// Operation name as reported in driver statistics ("BI 7").
std::string StreamOpName(const StreamOp& op);

/// Number of curated bindings available for BI template `query` (1-based).
size_t BindingCount(const params::WorkloadParameters& params, int query);

/// Outcome of one executed stream operation.
struct OpOutcome {
  StreamOp op;
  size_t rows = 0;
  /// FNV-1a hash over every field of every result row, in result order.
  /// Equal results ⇒ equal fingerprints; used by the determinism tests.
  uint64_t fingerprint = 0;
  double latency_ms = 0;
  bool cancelled = false;
  /// Set when the cost model priced a partitioned kernel (an intra-query
  /// pool and a model were both supplied): the verdict that gave the kernel
  /// the pool (kMorsel) or ran it on one slot (kSequential).
  bool dispatch_considered = false;
  engine::DispatchDecision dispatch;
};

/// Runs one operation against the (shared, read-only) graph. When `token`
/// is non-null it is installed as the ambient cancellation token for the
/// duration of the call; a query abandoned by the token returns
/// cancelled = true with rows = 0. latency_ms is left 0 (the scheduler
/// owns timing).
///
/// The scan-dominated templates (BI 1, 2, 3, 6, 9, 12, 13, 14, 17, 20, 23,
/// 24) are morsel-partitioned kernels. When both `intra_pool` and `dispatch`
/// are non-null, the cost model prices each such query and hands the kernel
/// the pool only when the predicted speedup clears the model's margin
/// (CP-1.2 work sizing); otherwise — and for every other template — the
/// kernel runs on one slot on the calling thread. The scheduler passes the
/// pool only for power runs (a single stream), never for throughput runs;
/// the calling thread participates in the morsel loop, so the pool is
/// never oversubscribed either way.
OpOutcome ExecuteStreamOp(const storage::Graph& graph,
                          const params::WorkloadParameters& params,
                          const StreamOp& op, const bi::CancelToken* token,
                          util::ThreadPool* intra_pool = nullptr,
                          const engine::DispatchModel* dispatch = nullptr);

/// A stream's full op sequence: every template with bindings
/// [0, min(bindings_per_query, available)), Fisher–Yates-permuted by
/// (seed, stream_id).
class QueryStream {
 public:
  QueryStream(size_t stream_id, const params::WorkloadParameters& params,
              size_t bindings_per_query, uint64_t seed);

  size_t stream_id() const { return stream_id_; }
  const std::vector<StreamOp>& ops() const { return ops_; }

 private:
  size_t stream_id_;
  std::vector<StreamOp> ops_;
};

}  // namespace snb::sched

#endif  // SNB_SCHED_STREAM_H_
