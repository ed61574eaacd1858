// Test-only backdoor into the storage layer.
//
// The validator tests (tests/validate_test.cc) need to *corrupt* a loaded
// graph — dangle an edge, unsort an adjacency span, tamper a zone map — and
// assert that the right invariant catches it. The store's public API
// deliberately cannot express such states, so this header hands tests
// mutable references into the private representation. Production code must
// never include it; scripts/lint.sh enforces that it is only included from
// tests/.

#ifndef SNB_STORAGE_TEST_ACCESS_H_
#define SNB_STORAGE_TEST_ACCESS_H_

#include <cstdint>
#include <vector>

#include "storage/adjacency.h"
#include "storage/graph.h"
#include "storage/message_index.h"
#include "storage/tombstone.h"

namespace snb::storage {

struct TestAccess {
  // ---- Graph tables ---------------------------------------------------------

  static std::vector<core::Id>& PersonId(Graph& g) { return g.person_id_; }
  static std::vector<uint32_t>& PersonGenderCode(Graph& g) {
    return g.person_gender_code_;
  }
  static std::vector<uint32_t>& PostCreator(Graph& g) {
    return g.post_creator_;
  }
  static std::vector<uint32_t>& PostBrowserCode(Graph& g) {
    return g.post_browser_code_;
  }
  static std::vector<uint32_t>& CommentForum(Graph& g) {
    return g.comment_forum_;
  }
  static std::vector<uint32_t>& PostLanguageCode(Graph& g) {
    return g.post_language_code_;
  }
  static std::vector<uint32_t>& CommentRootLanguageCode(Graph& g) {
    return g.comment_root_language_code_;
  }
  static std::vector<core::DateTime>& PersonMsgDateMin(Graph& g) {
    return g.person_msg_date_min_;
  }
  static std::vector<core::DateTime>& PersonMsgDateMax(Graph& g) {
    return g.person_msg_date_max_;
  }
  static AdjacencyList& Knows(Graph& g) { return g.knows_; }
  static MessageDateIndex& MessageIndex(Graph& g) { return g.message_index_; }

  /// Identity of the static segment, read-only: copies of one snapshot
  /// must share it.
  static const void* StaticSegment(const Graph& g) { return g.static_.get(); }

  // ---- Tombstone state ------------------------------------------------------
  // Tests seed torn-cascade states (a dead person whose messages stayed
  // alive, a stale live like count, an uncollapsed zone) that the public
  // Delete* cascade can never produce, then assert the tombstone-* validator
  // invariants catch each one.

  static TombstoneBitmap& PersonDead(Graph& g) { return g.person_dead_; }
  static std::vector<uint32_t>& PostLikeCount(Graph& g) {
    return g.post_like_count_;
  }

  // ---- Adjacency representation --------------------------------------------

  /// The packed base columns. Tests corrupt them through the ZonedColumn /
  /// ColumnBlock *ForTest hooks: SetValueForTest rewrites one packed slot
  /// in place (zone metadata untouched), CorruptZoneForTest tampers a
  /// block's min/max — each the precise damage one invariant exists to
  /// catch.
  static columnar::CompressedCsr& Csr(AdjacencyList& a) { return a.csr_; }

  // ---- Message index representation ----------------------------------------
  // The index holds no lock (published snapshots are immutable); tests
  // mutate only a graph no other thread reads.

  static std::vector<uint32_t>& BaseRefs(MessageDateIndex& idx) {
    return idx.base_refs_;
  }
  static columnar::ZonedColumn& BaseDateColumn(MessageDateIndex& idx) {
    return idx.base_dates_;
  }
  static std::vector<MessageDateIndex::Zone>& TailZones(
      MessageDateIndex& idx) {
    return idx.tail_zones_;
  }
  static std::vector<uint32_t>& BaseLikeMax(MessageDateIndex& idx) {
    return idx.base_like_max_;
  }
};

}  // namespace snb::storage

#endif  // SNB_STORAGE_TEST_ACCESS_H_
