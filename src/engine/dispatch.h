// Adaptive sequential-vs-morsel dispatch.
//
// Morsel parallelism was measured *losing* on several BI queries (BI 17
// ≈ 0.2×): fan-out costs two pool handoffs plus a join per helper, and a
// query whose candidate set is a few morsels never amortizes that. This
// model decides per query whether fan-out pays.
//
// The decision is a classic cost model, deliberately tiny:
//
//   work        = elements × ns/element          (elements from zone-map
//                                                 candidate counts — free,
//                                                 the index already knows)
//   t_seq       = work × (kDefaultMorselSize / morsel_size)
//                                                 (smaller morsels mark
//                                                  heavier per-element work)
//   t_par       = t_seq / P + fanout_overhead × helpers
//   speedup     = t_seq / t_par
//
// and the scheduler refuses parallelism when the predicted speedup clears
// no margin, when the machine has no second core, or when the input is
// under the morsel fan-out floor. ns/element is calibrated once per graph
// epoch (one timed walk over the message-date index at Calibrate()); the
// constants are intentionally coarse — the model only has to separate
// "thousands of morsels of real work" from "three morsels of nothing",
// which are orders of magnitude apart.
//
// Every decision is recorded (query, estimate, predicted speedup, choice)
// so scheduler reports (ScheduleResult::dispatch_decisions) can show *why*
// each query ran where it ran.

#ifndef SNB_ENGINE_DISPATCH_H_
#define SNB_ENGINE_DISPATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/graph.h"

namespace snb::engine {

enum class DispatchChoice : uint8_t { kSequential, kMorsel };

struct DispatchDecision {
  int query = 0;                    // BI query number
  size_t elements = 0;              // estimated candidate elements
  size_t num_morsels = 0;           // at the query's morsel size
  double predicted_speedup = 1.0;   // t_seq / t_par under the model
  DispatchChoice choice = DispatchChoice::kSequential;
};

class DispatchModel {
 public:
  /// `workers` = pool helper threads available to a morsel dispatch;
  /// `hardware_threads` = what the machine can actually overlap
  /// (std::thread::hardware_concurrency(); pass explicitly in tests).
  DispatchModel(size_t workers, unsigned hardware_threads);

  /// Calibrates ns/element once per graph epoch: times a bounded sequential
  /// walk over the creation-date index (the exact shape of the scans being
  /// dispatched). Cheap (≤256k entries); the measured value is clamped so
  /// clock jitter can only nudge decisions near the margin, where either
  /// choice is result-identical anyway.
  void Calibrate(const storage::Graph& graph);

  /// Costs one query: `elements` candidate elements scanned at
  /// `morsel_size` per morsel. Never chooses morsel when the machine
  /// cannot overlap (hardware_threads < 2), when no helper exists, when
  /// the input is under the fan-out floor, or when the predicted speedup
  /// misses the margin.
  DispatchDecision Decide(int query, size_t elements,
                          size_t morsel_size) const;

  /// Model constants, exposed for tests.
  static constexpr double kFanoutOverheadNs = 50000.0;  // per helper
  static constexpr double kMinPredictedSpeedup = 1.1;
  static constexpr double kDefaultNsPerElement = 5.0;   // pre-calibration

 private:
  size_t workers_;
  unsigned hardware_threads_;
  double ns_per_element_ = kDefaultNsPerElement;
};

}  // namespace snb::engine

#endif  // SNB_ENGINE_DISPATCH_H_
