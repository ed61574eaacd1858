// Morsel-driven intra-query parallelism (choke point CP-1.2: parallel
// high-cardinality group-by; the framework every partitionable BI kernel is
// written against).
//
// An index range [0, n) is split into cache-friendly morsels that idle
// executors pull off a shared atomic counter — dynamic dispatch, so skewed
// per-element costs (hub vertices, hot tags) still balance. Executors are
// `pool->num_threads()` helper tasks *plus the calling thread*: the caller
// always participates and drains the counter itself if every pool worker is
// busy, so a query already running on a pool worker can morsel-parallelize
// over the same pool without deadlock and without oversubscribing it (the
// scheduler relies on this for power runs). A null pool — or an input under
// the fan-out floor — runs one slot inline on the calling thread: the same
// fold over the same morsels, with no pool handoff and no merge.
//
// Aggregation follows the partial-state + re-aggregation pattern: each
// executor slot lazily builds one private State, morsels fold into it
// lock-free, and after the join the first surviving state (in slot order)
// becomes the result and the others merge into it in ascending slot order.
// The merge order is fixed, and every BI aggregation merges commutative
// content (integer counts/sums, top-k sets under a total order), so results
// are bit-identical at any slot count.
//
// Exceptions thrown by a fold (most importantly bi::QueryCancelled from a
// per-morsel cancellation poll) stop the dispatch: remaining morsels are
// abandoned, every executor joins, and the first captured exception is
// rethrown on the calling thread.

#ifndef SNB_ENGINE_MORSEL_H_
#define SNB_ENGINE_MORSEL_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace snb::engine {

/// Default elements per morsel for flat column scans. Queries whose
/// per-element work is itself a scan (adjacency expansion, triangle probes)
/// should pass something far smaller.
constexpr size_t kDefaultMorselSize = 8192;

/// Minimum-work floor: inputs shorter than this many morsels never fan out
/// (slots collapses to 1 and the caller runs everything inline). Fan-out
/// costs two pool handoffs plus a join per helper; a query with a handful
/// of morsels pays that overhead for no overlap — the measured BI 17
/// regression (≈0.2× at 1200 persons) was exactly this shape.
constexpr size_t kMinMorselsForFanout = 8;

namespace internal {

/// Dispatch knobs, process-global. Tests override them: the TSan morsel
/// suite drops the fan-out floor to 1 and caps the morsel size so tiny
/// fixtures (a few thousand messages, under one default morsel) still split
/// every scan across slots, and the bound-race tests set `shuffle_seed` to
/// permute morsel issue order and hit different bound interleavings.
struct MorselTuning {
  size_t min_morsels_for_fanout = kMinMorselsForFanout;
  uint64_t shuffle_seed = 0;    // 0 = natural order
  size_t morsel_size_cap = 0;   // 0 = the caller's morsel size
};

MorselTuning& GlobalMorselTuning();

/// Runs fn(morsel_index, slot) for every morsel in [0, num_morsels) on
/// `slots` executors: slots-1 pool helpers plus the calling thread (which
/// takes slot slots-1). Blocks until every executor finished; rethrows the
/// first exception any morsel raised.
void RunMorsels(util::ThreadPool& pool, size_t num_morsels, size_t slots,
                const std::function<void(size_t, size_t)>& fn);

/// Executor count for `num_morsels` morsels on `pool`, honouring the
/// minimum-work floor.
inline size_t SlotsFor(util::ThreadPool& pool, size_t num_morsels) {
  if (num_morsels < GlobalMorselTuning().min_morsels_for_fanout) return 1;
  return std::min(pool.num_threads() + 1, num_morsels);
}

}  // namespace internal

/// Parallel reduction over [0, n): `init() -> State` builds one partial
/// state per executor slot (lazily — idle slots never allocate),
/// `fold(state, begin, end)` folds one morsel, and after the join
/// `merge(into, from)` folds each further surviving state into the first,
/// in ascending slot order, on the calling thread. Returns the merged state
/// (a lone state is moved out, never merged); init() when n == 0. A null
/// `pool` runs every morsel inline on the calling thread.
template <typename Init, typename Fold, typename Merge>
std::decay_t<std::invoke_result_t<Init&>> ParallelAggregate(
    util::ThreadPool* pool, size_t n, Init&& init, Fold&& fold, Merge&& merge,
    size_t morsel_size = kDefaultMorselSize) {
  using State = std::decay_t<std::invoke_result_t<Init&>>;
  if (const size_t cap = internal::GlobalMorselTuning().morsel_size_cap) {
    morsel_size = std::min(morsel_size, cap);
  }
  const size_t num_morsels = (n + morsel_size - 1) / morsel_size;
  const size_t slots =
      pool == nullptr ? 1 : internal::SlotsFor(*pool, num_morsels);
  if (slots <= 1) {
    State state = init();
    for (size_t begin = 0; begin < n; begin += morsel_size) {
      fold(state, begin, std::min(n, begin + morsel_size));
    }
    return state;
  }
  std::vector<std::optional<State>> states(slots);
  internal::RunMorsels(*pool, num_morsels, slots,
                       [&](size_t morsel, size_t slot) {
                         std::optional<State>& state = states[slot];
                         if (!state) state.emplace(init());
                         const size_t begin = morsel * morsel_size;
                         fold(*state, begin, std::min(n, begin + morsel_size));
                       });
  std::optional<State> result;
  for (std::optional<State>& state : states) {
    if (!state) continue;
    if (!result) {
      result = std::move(state);
    } else {
      merge(*result, *state);
    }
  }
  return std::move(*result);
}

}  // namespace snb::engine

#endif  // SNB_ENGINE_MORSEL_H_
