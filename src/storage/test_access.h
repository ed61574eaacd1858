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

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
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
  static std::vector<uint32_t>& CommentReplyOf(Graph& g) {
    return g.comment_reply_of_;
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

  // ---- Shared bases ---------------------------------------------------------

  /// One immutable base that copies of a snapshot share by pointer: its
  /// identity, its heap bytes and a checksum of its contents. A published
  /// snapshot's checksums must never change, whatever later batches do to
  /// copies of it.
  struct SharedBase {
    std::string name;
    const void* identity = nullptr;
    size_t bytes = 0;
    uint64_t checksum = 0;
  };

  /// Every shared base of `g`: the CSR base of each of Graph::Relations(),
  /// the message-date index base, the base of each of
  /// Graph::FrozenStrings() and the static segment (its records, id
  /// tables, structure columns and tag-class CSRs).
  static std::vector<SharedBase> SharedBases(const Graph& g) {
    std::vector<SharedBase> out;
    for (const Graph::NamedRelation& r : Graph::Relations()) {
      const columnar::CompressedCsr& csr = *(g.*r.list).csr_;
      out.push_back({std::string("csr/") + r.name, &csr, csr.ByteSize(),
                     CsrChecksum(kFnvBasis, csr)});
    }

    const MessageDateIndex::Base& index = *g.message_index_.base_;
    out.push_back({"index/message-date-base", &index,
                   g.message_index_.SharedByteSize(),
                   ColumnChecksum(Fnv(kFnvBasis, index.refs), index.dates)});

    for (const Graph::FrozenString& f : Graph::FrozenStrings()) {
      const columnar::StringColumn& col = g.*f.column;
      const auto& base = *col.base_;
      out.push_back({std::string(f.family) + "/" + f.name, &base,
                     col.SharedByteSize(),
                     Fnv(FnvBytes(kFnvBasis, base.chars.data(),
                                  base.chars.size()),
                         base.offsets)});
    }

    const Graph::StaticSegment& st = *g.static_;
    uint64_t h = kFnvBasis;
    auto record = [&h](core::Id id, const std::string& name,
                       const std::string& url, core::Id ref,
                       uint32_t row) {
      h = FnvBytes(h, &id, sizeof(id));
      h = FnvBytes(h, name.data(), name.size() + 1);
      h = FnvBytes(h, url.data(), url.size() + 1);
      h = FnvBytes(h, &ref, sizeof(ref));
      h = FnvBytes(h, &row, sizeof(row));
    };
    for (const core::Place& r : st.places) {
      record(r.id, r.name, r.url, r.part_of, st.place_idx.Find(r.id));
    }
    for (const core::Organisation& r : st.organisations) {
      record(r.id, r.name, r.url, r.place, st.organisation_idx.Find(r.id));
    }
    for (const core::Tag& r : st.tags) {
      record(r.id, r.name, r.url, r.tag_class, st.tag_idx.Find(r.id));
    }
    for (const core::TagClass& r : st.tag_classes) {
      record(r.id, r.name, r.url, r.parent, st.tag_class_idx.Find(r.id));
    }
    for (const std::vector<uint32_t>* column :
         {&st.place_by_name, &st.tag_by_name, &st.tag_class_by_name,
          &st.place_part_of, &st.tag_class_parent, &st.tag_class_of_tag}) {
      h = Fnv(h, *column);
    }
    h = CsrChecksum(h, *st.tag_class_children.csr_);
    h = CsrChecksum(h, *st.tag_class_tags.csr_);
    out.push_back({"static", &st, st.ByteSize(), h});
    return out;
  }

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

  /// The packed base columns, unshared first (see Unshare). Tests corrupt
  /// them through the ZonedColumn / ColumnBlock *ForTest hooks:
  /// SetValueForTest rewrites one packed slot in place (zone metadata
  /// untouched), CorruptZoneForTest tampers a block's min/max — each the
  /// precise damage one invariant exists to catch.
  static columnar::CompressedCsr& Csr(AdjacencyList& a) {
    return Unshare(a.csr_);
  }

  // ---- Message index representation ----------------------------------------
  // The index holds no lock (published snapshots are immutable); tests
  // mutate only a graph no other thread reads. The base hooks, like Csr(),
  // unshare the base first.

  static std::vector<uint32_t>& BaseRefs(MessageDateIndex& idx) {
    return Unshare(idx.base_).refs;
  }
  static columnar::ZonedColumn& BaseDateColumn(MessageDateIndex& idx) {
    return Unshare(idx.base_).dates;
  }
  static std::vector<MessageDateIndex::Zone>& TailZones(
      MessageDateIndex& idx) {
    return idx.tail_zones_;
  }
  static std::vector<uint32_t>& BaseLikeMax(MessageDateIndex& idx) {
    return idx.base_like_max_;
  }

 private:
  /// `*base` for writing. While another snapshot shares it, a private
  /// clone replaces it first, so a test never writes through a shared base
  /// and repeated calls return the same object. Every base is allocated
  /// non-const, so writing through an unshared one is sound.
  template <typename T>
  static T& Unshare(std::shared_ptr<const T>& base) {
    if (base.use_count() > 1) base = std::make_shared<T>(*base);
    return const_cast<T&>(*base);
  }

  // FNV-1a over the bytes of a base, for SharedBases().
  static constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

  static uint64_t FnvBytes(uint64_t h, const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
    return h;
  }
  template <typename T>
  static uint64_t Fnv(uint64_t h, const std::vector<T>& v) {
    return FnvBytes(h, v.data(), v.size() * sizeof(T));
  }
  /// Every block in its serialized form: payload and zone metadata.
  static uint64_t ColumnChecksum(uint64_t h, const columnar::ZonedColumn& c) {
    std::string bytes;
    for (size_t b = 0; b < c.num_blocks(); ++b) c.block(b).SerializeTo(&bytes);
    return FnvBytes(h, bytes.data(), bytes.size());
  }
  static uint64_t CsrChecksum(uint64_t h, const columnar::CompressedCsr& csr) {
    const size_t shape[] = {csr.num_nodes(), csr.num_edges()};
    h = FnvBytes(h, shape, sizeof(shape));
    h = ColumnChecksum(h, csr.offsets());
    h = ColumnChecksum(h, csr.targets());
    return ColumnChecksum(h, csr.dates());
  }
};

}  // namespace snb::storage

#endif  // SNB_STORAGE_TEST_ACCESS_H_
