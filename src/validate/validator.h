// Graph-invariant validator: the structural-correctness companion to the
// benchmark driver (spec §6.1.3 asks the test sponsor for "a tool to perform
// arbitrary checks of the data").
//
// Where storage/consistency.h answers "do the forward and reverse indexes
// agree", this subsystem checks the *representation invariants* the engine's
// performance model relies on — the properties that, when silently broken,
// do not crash queries but make them return wrong answers or lose their
// pruning power:
//
//   edge-endpoints       every adjacency target lies inside its entity table
//   message-author       every message's creator/container references exist
//   adjacency-sorted     every CSR base span is sorted by target
//   adjacency-dedup      no relation lists the same neighbour twice
//   message-index-order  the date index base is sorted by (date, ref) and
//                        base+tail cover every message exactly once
//   zone-map-coverage    every tail zone map bounds its block's dates
//   dictionary-code-in-range
//                        every dictionary code column stays below the
//                        shared dictionary's size
//   block-zone-covers-contents
//                        every columnar block's min/max zone metadata
//                        exactly bounds its decoded contents
//   hot-column-endpoints every materialized 2-hop endpoint (comment →
//                        thread forum, root-post language code) equals
//                        the pointer chain it caches
//   like-zone-bounds     every like-count zone max bounds the raw likers
//                        degree of its block's messages, and every message
//                        lies in its creator's message-date zone
//   tombstone-dangling   no live entity references a tombstoned vertex
//                        (dead person → their forums/messages dead, dead
//                        forum → its posts dead, dead message → its reply
//                        subtree dead) — a violation is a torn cascade
//   tombstone-index-agreement
//                        NumLive* counters, the live like-count column,
//                        the LiveReplyCount deltas and the collapsed zones
//                        of dead persons all agree with a from-scratch
//                        census of the bitmaps and live edges
//   tombstone-zone-bounds
//                        like-count zone maxima still upper-bound every
//                        *live* row after deletes/compaction, so bound
//                        pushdown never skips a live top-k candidate
//   unique-id            external ids are unique per entity table
//   cardinality          entity counts match the claimed scale factor
//   store-consistency    the full O(V+E) forward/reverse cross-check
//                        (storage/consistency.h), folded into the report
//
// Each finding names its invariant, so tests can seed a specific corruption
// and assert the *right* check caught it, and CI logs say what class of
// damage occurred rather than just "validation failed".

#ifndef SNB_VALIDATE_VALIDATOR_H_
#define SNB_VALIDATE_VALIDATOR_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/scale_factors.h"
#include "storage/graph.h"

namespace snb::validate {

/// One invariant violation: which invariant, and a human-readable locus.
struct Violation {
  std::string invariant;  // e.g. "edge-endpoints"
  std::string detail;     // e.g. "knows: node 3 → target 9999 ≥ 300 persons"
};

struct ValidationReport {
  std::vector<Violation> violations;
  size_t invariants_checked = 0;  // number of invariant classes run
  size_t suppressed = 0;          // violations dropped by the per-invariant cap

  bool ok() const { return violations.empty(); }

  /// Violations recorded against one invariant name.
  size_t CountFor(const std::string& invariant) const;

  /// True when at least one violation names `invariant`.
  bool Has(const std::string& invariant) const {
    return CountFor(invariant) > 0;
  }

  /// Multi-line human-readable report ("" when ok).
  std::string ToString() const;
};

struct ValidatorOptions {
  /// When set, the `cardinality` invariant checks entity counts against this
  /// scale-factor row (spec Table 2.12); when absent the check is skipped.
  std::optional<core::ScaleFactorInfo> expect_sf;

  /// Cap on recorded violations per invariant; the remainder is counted in
  /// ValidationReport::suppressed so a corrupted bulk load cannot allocate
  /// an unbounded report.
  size_t max_violations_per_invariant = 16;

  /// Also run the O(V+E) forward/reverse cross-check from
  /// storage/consistency.h (invariant name "store-consistency").
  bool run_store_consistency = true;
};

/// Runs every invariant check against the graph. Read-only; safe on a
/// quiesced store of any size (cost is O(V + E log E) due to the dedup
/// sort). Returns a structured per-invariant report.
ValidationReport ValidateGraph(const storage::Graph& graph,
                               const ValidatorOptions& options = {});

}  // namespace snb::validate

#endif  // SNB_VALIDATE_VALIDATOR_H_
