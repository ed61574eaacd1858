// Ambient per-thread scan instrumentation for zone-mapped index scans.
//
// The pushdown work (CP-1.3 bound pruning over CP-2.2/2.3 zone maps) is only
// credible with counters proving the pruning fires: perfbench reports rows
// decoded per BI template and blocks skipped per power batch, and
// pushdown_test's PruningGateTest asserts skips are non-zero. Rather than
// widening every scan signature, the sink is ambient — installed per
// thread with a ScopedScanStats guard, exactly like bi::ScopedCancelToken.
// A count with no installed sink is a single thread-local load and a
// branch, so production query paths pay essentially nothing.
//
// Counter semantics:
//   rows_decoded         index entries delivered to a query callback
//   blocks_skipped_date  prune units skipped by creation-date zones (base
//                        1024-blocks, tail 256-blocks, per-person date zones)
//   blocks_skipped_bound prune units skipped by a top-k bound or threshold
//                        against a block's like-count zone max
//   rows_skipped_bound   individual candidates dropped by a bound compare
//                        before any vertex/string dereference
//
// Counters are relaxed atomics so morsel slots on different threads can
// share one sink: the totals are exact (every increment lands), only the
// interleaving is unordered.

#ifndef SNB_STORAGE_SCAN_STATS_H_
#define SNB_STORAGE_SCAN_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace snb::storage {

struct ScanStats {
  std::atomic<uint64_t> rows_decoded{0};
  std::atomic<uint64_t> blocks_skipped_date{0};
  std::atomic<uint64_t> blocks_skipped_bound{0};
  std::atomic<uint64_t> rows_skipped_bound{0};

  void Reset() noexcept {
    rows_decoded.store(0, std::memory_order_relaxed);
    blocks_skipped_date.store(0, std::memory_order_relaxed);
    blocks_skipped_bound.store(0, std::memory_order_relaxed);
    rows_skipped_bound.store(0, std::memory_order_relaxed);
  }
};

namespace internal {
ScanStats*& CurrentScanStatsSlot() noexcept;
}  // namespace internal

/// The sink installed for this thread, or nullptr.
inline ScanStats* CurrentScanStats() noexcept {
  return internal::CurrentScanStatsSlot();
}

inline void CountRowsDecoded(uint64_t n) noexcept {
  if (ScanStats* s = internal::CurrentScanStatsSlot()) {
    s->rows_decoded.fetch_add(n, std::memory_order_relaxed);
  }
}

inline void CountBlocksSkippedDate(uint64_t n) noexcept {
  if (ScanStats* s = internal::CurrentScanStatsSlot()) {
    s->blocks_skipped_date.fetch_add(n, std::memory_order_relaxed);
  }
}

inline void CountBlocksSkippedBound(uint64_t n) noexcept {
  if (ScanStats* s = internal::CurrentScanStatsSlot()) {
    s->blocks_skipped_bound.fetch_add(n, std::memory_order_relaxed);
  }
}

inline void CountRowsSkippedBound(uint64_t n) noexcept {
  if (ScanStats* s = internal::CurrentScanStatsSlot()) {
    s->rows_skipped_bound.fetch_add(n, std::memory_order_relaxed);
  }
}

/// RAII installer: while alive, `stats` is the ambient sink for scans on
/// this thread. Nestable (restores the previous sink). Morsel wrappers
/// re-install the caller's sink on helper threads, so one ScanStats
/// aggregates a whole parallel query.
class ScopedScanStats {
 public:
  explicit ScopedScanStats(ScanStats* stats) noexcept
      : prev_(internal::CurrentScanStatsSlot()) {
    internal::CurrentScanStatsSlot() = stats;
  }
  ~ScopedScanStats() { internal::CurrentScanStatsSlot() = prev_; }

  ScopedScanStats(const ScopedScanStats&) = delete;
  ScopedScanStats& operator=(const ScopedScanStats&) = delete;

 private:
  ScanStats* prev_;
};

}  // namespace snb::storage

#endif  // SNB_STORAGE_SCAN_STATS_H_
