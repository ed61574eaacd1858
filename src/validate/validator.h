// Graph-invariant validator: the structural-correctness companion to the
// benchmark driver (spec §6.1.3 asks the test sponsor for "a tool to perform
// arbitrary checks of the data"), and the check recovery passes before a
// store serves anything (§6.3).
//
// It checks the *representation invariants* the engine's performance model
// relies on — the properties that, when silently broken, do not crash
// queries but make them return wrong answers or lose their pruning power —
// and that the forward and reverse indexes agree:
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
//   unique-id            external ids are unique per entity table: every
//                        row's id maps back to that row in its id table
//   cardinality          entity counts match the claimed scale factor
//   store-consistency    knows is symmetric, forward and reverse relations
//                        hold as many edges, person → posts agrees with
//                        the post creators, every comment's precomputed
//                        root is its parent's, person countries follow the
//                        place hierarchy and country → persons partitions
//                        the persons
//
// ValidateGraph reads each entity table once, walks each relation once and
// walks the message index once. A relation's pass decodes each offset,
// target and date block once, checking its zone as it goes; checks
// endpoints, base-span order and duplicates (neighbours compared in the
// sorted span, the overflow merged against the base); and gathers the
// degrees and edges the cross-checks need. Every check is exact. Each reads
// only rows an earlier check found in range, so the validator is total on
// a corrupt graph.
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

/// Violations recorded per invariant; the rest are counted in
/// ValidationReport::suppressed, so a corrupted bulk load cannot allocate
/// an unbounded report.
inline constexpr size_t kMaxViolationsPerInvariant = 16;

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
};

/// Runs every invariant check against the graph. Read-only; safe on a
/// quiesced store of any size (cost is O(V + E), plus sorting the knows
/// edges and each relation's overflow). Returns a structured
/// per-invariant report.
ValidationReport ValidateGraph(const storage::Graph& graph,
                               const ValidatorOptions& options = {});

}  // namespace snb::validate

#endif  // SNB_VALIDATE_VALIDATOR_H_
