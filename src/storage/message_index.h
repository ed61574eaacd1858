// Creation-date index over the unified message view (posts ∪ comments).
//
// The BI workload is scan-dominated and most of its scans carry a creation-
// date window (choke points CP-2.2/CP-2.3: scan pruning through sorted data
// and zone maps). This index keeps every *bulk-loaded* message reference in
// one array sorted by (creationDate, ref); the parallel date column is
// delta + bit-packed into zoned column blocks (storage/columnar) — sorted
// dates have tiny deltas, so the 8 B/entry seed column compresses ~8×, and
// a date window reduces to a zone-searched block plus an in-block scan.
// Refs stay a plain uint32 array: the comment bit (bit 31) scatters them
// across the full 32-bit range, so packing would buy nothing, and morsel
// executors scan disjoint position slices of them (ScanWindow).
//
// Messages appended later by the update workload (IU 6/7) land in an
// *unsorted tail* in arrival order — appends never reshuffle the base, so
// an insert costs O(1) instead of a re-sort. The tail carries per-block
// min/max creation-date zone maps; since IU streams arrive in roughly
// chronological order the zone maps prune the tail nearly as well as
// sorting would.
//
// Concurrency: the index is part of a graph snapshot, and published
// snapshots are immutable. The refresh writer applies a batch to a private
// member-wise copy of the graph (so Append and NoteLike only ever run on an
// unpublished copy) and publishes the copy whole, so no reader ever runs
// beside a writer and the index holds no lock. The sorted base (refs and
// date column) is written only by Build and held by shared_ptr<const>, so
// a copy shares it by pointer and copies only the like-count zones and the
// tail.
//
// All ranges are [start, end) over DateTime millis; use kMinMessageDate /
// kMaxMessageDate for open ends.

#ifndef SNB_STORAGE_MESSAGE_INDEX_H_
#define SNB_STORAGE_MESSAGE_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/date_time.h"
#include "storage/columnar/column_block.h"
#include "storage/scan_stats.h"

namespace snb::storage {

constexpr core::DateTime kMinMessageDate =
    std::numeric_limits<core::DateTime>::min();
constexpr core::DateTime kMaxMessageDate =
    std::numeric_limits<core::DateTime>::max();

class MessageDateIndex {
 public:
  /// Tail entries covered by one zone-map block.
  static constexpr size_t kTailBlock = 256;

  /// Min/max creation date of one tail block (validator introspection), plus
  /// the block's like-count zone: an upper bound on the like degree of every
  /// member message, maintained by NoteLike. Top-k bound pushdown (CP-1.3)
  /// skips whole blocks whose max cannot beat the current k-th bound.
  struct Zone {
    core::DateTime min = kMaxMessageDate;
    core::DateTime max = kMinMessageDate;
    uint32_t max_likes = 0;
  };

  /// Order-preserving bijection DateTime → uint64: flip the sign bit so
  /// signed order becomes unsigned order, which is what the delta blocks
  /// sort and zone-search in. Exposed so the validator can interpret the
  /// base-date column's zone metadata.
  static uint64_t DateKey(core::DateTime d) {
    return static_cast<uint64_t>(d) ^ (1ull << 63);
  }
  static core::DateTime DateOfKey(uint64_t key) {
    return static_cast<core::DateTime>(key ^ (1ull << 63));
  }

  /// Builds the sorted base from the hot creation-date columns; entry i of
  /// `post_dates` / `comment_dates` indexes post / comment i. Ties sort by
  /// message ref, so the order is a pure function of the data.
  void Build(const std::vector<core::DateTime>& post_dates,
             const std::vector<core::DateTime>& comment_dates);

  /// Appends one message to the unsorted tail (the IU 6/7 path).
  void Append(uint32_t msg, core::DateTime date);

  /// Builds the per-base-block like-count zones: `like_count_of(ref)` returns
  /// the current like degree of a message reference. Called once at graph
  /// build, after the bulk likes are loaded; the tail is empty at that point
  /// (tail zones start at 0 and are maintained by NoteLike).
  template <typename LikeCountFn>
  void BuildLikeZones(LikeCountFn&& like_count_of) {
    const size_t kBlock = columnar::ColumnBlock::kMaxValues;
    const std::vector<uint32_t>& refs = base_->refs;
    base_like_max_.assign(base_->dates.num_blocks(), 0);
    for (size_t i = 0; i < refs.size(); ++i) {
      uint32_t& m = base_like_max_[i / kBlock];
      m = std::max(m, like_count_of(refs[i]));
    }
  }

  /// Records that message `msg` (creation date `date`) now has `likes`
  /// likes, raising its block's like-count zone max so bound pruning stays
  /// an upper bound (the IU 2/3 path). Degrees only grow, so zones never
  /// need lowering. In the (date, ref)-sorted base, the blocks whose date
  /// zone holds `date` are a binary-searched run of the block zones, and
  /// only their refs are scanned: no date block is decoded. In the tail,
  /// only blocks whose date zone covers `date` are scanned.
  void NoteLike(uint32_t msg, core::DateTime date, uint32_t likes);

  /// Like-count zone max of one base block (validator / test introspection).
  uint32_t BaseBlockMaxLikes(size_t block) const {
    return base_like_max_[block];
  }

  /// Earliest and latest creation date of any indexed message (dead ones
  /// included): the sorted base's two ends and the tail zones. {kMax,
  /// kMin}MessageDate when the index is empty.
  std::pair<core::DateTime, core::DateTime> DateBounds() const;

  size_t base_size() const { return base_->refs.size(); }
  size_t tail_size() const { return tail_refs_.size(); }
  size_t size() const { return base_size() + tail_size(); }

  /// Positions [first, second) of the sorted base whose creation date lies
  /// in [start, end). Zone-searched through the compressed date column.
  std::pair<size_t, size_t> BaseRange(core::DateTime start,
                                      core::DateTime end) const {
    return {base_->dates.LowerBound(DateKey(start)),
            base_->dates.LowerBound(DateKey(end))};
  }

  uint32_t BaseAt(size_t pos) const { return base_->refs[pos]; }

  /// Date of one base entry. Routes through the delta blocks, so a point
  /// probe costs an in-block prefix sum — use ForEachBase for full walks.
  core::DateTime BaseDateAt(size_t pos) const {
    return DateOfKey(base_->dates.At(pos));
  }

  /// Visits every base entry in index order: f(pos, ref, date). Decodes the
  /// date column blockwise (sequential cost, unlike per-entry BaseDateAt).
  template <typename F>
  void ForEachBase(F&& f) const {
    const Base& base = *base_;
    std::vector<uint64_t> keys;
    keys.reserve(columnar::ColumnBlock::kMaxValues);
    size_t pos = 0;
    for (size_t b = 0; b < base.dates.num_blocks(); ++b) {
      keys.clear();
      base.dates.block(b).DecodeAll(&keys);
      for (uint64_t key : keys) {
        f(pos, base.refs[pos], DateOfKey(key));
        ++pos;
      }
    }
  }

  /// The compressed base-date column (block-zone validation, accounting).
  const columnar::ZonedColumn& BaseDateColumn() const { return base_->dates; }

  /// A creation-date window [start, end) resolved against the index: the
  /// sorted-base slice [base_lo, base_hi) followed by every tail entry
  /// present at resolution. Scan positions [0, size()) number the base
  /// slice first, then the tail; ScanWindow over disjoint position slices
  /// visits each in-window message exactly once, so morsel executors and a
  /// sequential caller (one slice, [0, size())) run the same scan loop.
  struct Window {
    core::DateTime start = kMaxMessageDate;
    core::DateTime end = kMinMessageDate;
    size_t base_lo = 0;
    size_t base_hi = 0;
    size_t tail_size = 0;

    size_t size() const { return base_hi - base_lo + tail_size; }
  };

  /// Resolves [start, end) through the zone-searched date column, counting
  /// the base blocks the window never touches as date-skipped (once per
  /// window, however its scan is later partitioned).
  Window ResolveWindow(core::DateTime start, core::DateTime end) const {
    auto [lo, hi] = BaseRange(start, end);
    CountBlocksSkippedDate(base_->dates.num_blocks() - TouchedBlocks(lo, hi));
    return {start, end, lo, hi, tail_size()};
  }

  /// Visits the in-window messages at scan positions [pos_begin, pos_end)
  /// of `w`, one family at a time: on_post(post row) for posts and
  /// on_comment(comment row) for comments. Base entries come in date
  /// order, then tail entries in arrival order; within each decoded block
  /// the block's posts come first, then its comments. Tail blocks whose
  /// date zone misses the window are skipped whole. Before any block is
  /// decoded, `skip(block_max_likes)` is offered its like-count zone max —
  /// a true return prunes the block unseen (CP-1.3 over the CP-2.2/2.3
  /// zones); `skip` must be monotone in its argument (a block max that
  /// fails implies every member fails). A block split across slices counts
  /// its skip once, in the slice holding the block's first position.
  ///
  /// Why per family: the index interleaves posts and comments about 50/50,
  /// so a per-row "post or comment?" branch in a kernel mispredicts half
  /// the time (CP-4.3). Each decoded block is partitioned branch-free into
  /// a post run and a comment run on the stack, and each run is handed to
  /// a callback that knows its family statically.
  template <typename SkipFn, typename PostFn, typename CommentFn>
  void ScanWindow(const Window& w, size_t pos_begin, size_t pos_end,
                  SkipFn&& skip, PostFn&& on_post,
                  CommentFn&& on_comment) const {
    const size_t kBlock = columnar::ColumnBlock::kMaxValues;
    const std::vector<uint32_t>& base_refs = base_->refs;
    FamilyRuns runs;
    const size_t base_n = w.base_hi - w.base_lo;
    size_t i = w.base_lo + std::min(pos_begin, base_n);
    const size_t base_end = w.base_lo + std::min(pos_end, base_n);
    while (i < base_end) {
      const size_t block_end = std::min(base_end, (i / kBlock + 1) * kBlock);
      if (skip(static_cast<int64_t>(base_like_max_[i / kBlock]))) {
        if (i % kBlock == 0 || i == w.base_lo) CountBlocksSkippedBound(1);
        i = block_end;
        continue;
      }
      CountRowsDecoded(block_end - i);
      runs.Clear();
      for (; i < block_end; ++i) runs.Add(base_refs[i], 1);
      runs.Visit(on_post, on_comment);
    }
    size_t t = pos_begin > base_n ? pos_begin - base_n : 0;
    const size_t tail_end =
        pos_end > base_n ? std::min(pos_end - base_n, w.tail_size) : 0;
    while (t < tail_end) {
      const Zone& z = tail_zones_[t / kTailBlock];
      const size_t block_end =
          std::min(tail_end, (t / kTailBlock + 1) * kTailBlock);
      const bool block_first = t % kTailBlock == 0;
      if (z.max < w.start || z.min >= w.end) {
        if (block_first) CountBlocksSkippedDate(1);
        t = block_end;
        continue;
      }
      if (skip(static_cast<int64_t>(z.max_likes))) {
        if (block_first) CountBlocksSkippedBound(1);
        t = block_end;
        continue;
      }
      CountRowsDecoded(block_end - t);
      runs.Clear();
      for (; t < block_end; ++t) {
        const core::DateTime d = tail_dates_[t];
        runs.Add(tail_refs_[t],
                 static_cast<uint32_t>(d >= w.start) & (d < w.end));
      }
      runs.Visit(on_post, on_comment);
    }
  }

  // ---- Tail introspection (validator / tests / bench report) ---------------

  uint32_t TailAt(size_t pos) const { return tail_refs_[pos]; }
  core::DateTime TailDateAt(size_t pos) const { return tail_dates_[pos]; }
  size_t NumTailBlocks() const { return tail_zones_.size(); }
  Zone TailZoneAt(size_t block) const { return tail_zones_[block]; }

  /// Number of index entries a range scan must examine: the base slice plus
  /// every entry of each tail block whose zone map overlaps the window. The
  /// pruning tests and bench report compare this against the full message
  /// count.
  size_t CandidatesInRange(core::DateTime start, core::DateTime end) const {
    auto [lo, hi] = BaseRange(start, end);
    size_t n = hi - lo;
    for (size_t b = 0; b < tail_zones_.size(); ++b) {
      const Zone& z = tail_zones_[b];
      if (z.max < start || z.min >= end) continue;
      n += std::min(b * kTailBlock + kTailBlock, tail_refs_.size()) -
           b * kTailBlock;
    }
    return n;
  }

  /// Heap bytes actually held (memory accounting), the shared base
  /// included.
  size_t ByteSize() const {
    return SharedByteSize() + base_like_max_.capacity() * sizeof(uint32_t) +
           tail_refs_.capacity() * sizeof(uint32_t) +
           tail_dates_.capacity() * sizeof(core::DateTime) +
           tail_zones_.capacity() * sizeof(Zone);
  }

  /// The part of ByteSize() in the sorted base, which copies share.
  size_t SharedByteSize() const {
    return base_->refs.capacity() * sizeof(uint32_t) + base_->dates.ByteSize();
  }

  /// Seed-layout bytes for the same content: 4 B ref + 8 B date per entry
  /// (base and tail) plus the tail zone maps.
  size_t RawByteSize() const {
    return size() * (sizeof(uint32_t) + sizeof(core::DateTime)) +
           tail_zones_.size() * sizeof(Zone);
  }

 private:
  friend struct TestAccess;  // corruption seeding in tests (test_access.h)
  friend struct ImageCodec;  // checkpoint image (checkpoint_image.cc)

  /// One decoded block split by family: every ref is written to both
  /// buffers and only its family's cursor advances (by `keep`, 0 or 1), so
  /// the split has no data-dependent branch. Lives on the scanning thread's
  /// stack: 8 KiB for a full base block.
  struct FamilyRuns {
    static constexpr uint32_t kCommentBit = 0x80000000u;

    uint32_t posts[columnar::ColumnBlock::kMaxValues];
    uint32_t comments[columnar::ColumnBlock::kMaxValues];
    size_t num_posts = 0;
    size_t num_comments = 0;

    void Clear() { num_posts = num_comments = 0; }
    void Add(uint32_t ref, uint32_t keep) {
      const uint32_t is_comment = ref >> 31;
      posts[num_posts] = ref;
      comments[num_comments] = ref & ~kCommentBit;
      num_posts += keep & (is_comment ^ 1u);
      num_comments += keep & is_comment;
    }
    template <typename PostFn, typename CommentFn>
    void Visit(PostFn& on_post, CommentFn& on_comment) const {
      for (size_t k = 0; k < num_posts; ++k) on_post(posts[k]);
      for (size_t k = 0; k < num_comments; ++k) on_comment(comments[k]);
    }
  };

  /// Base-date blocks overlapped by positions [lo, hi).
  static size_t TouchedBlocks(size_t lo, size_t hi) {
    if (lo >= hi) return 0;
    const size_t kBlock = columnar::ColumnBlock::kMaxValues;
    return (hi + kBlock - 1) / kBlock - lo / kBlock;
  }

  // Base: refs sorted by (date, ref); the date column is delta + bit-packed
  // in DateKey space. Written only by Build, which replaces it whole, so
  // copies share it.
  struct Base {
    std::vector<uint32_t> refs;
    columnar::ZonedColumn dates;
  };
  // Allocated non-const, as Build's is (see TestAccess::Unshare).
  std::shared_ptr<const Base> base_ = std::make_shared<Base>();

  // Per-base-block like-count zone maxima (1024-aligned, one per date-column
  // block), written by BuildLikeZones and raised by NoteLike. Degrees only
  // grow, so a zone stays an upper bound on every member's like count.
  std::vector<uint32_t> base_like_max_;

  // Tail: arrival order plus per-kTailBlock zone maps.
  std::vector<uint32_t> tail_refs_;
  std::vector<core::DateTime> tail_dates_;
  std::vector<Zone> tail_zones_;
};

}  // namespace snb::storage

#endif  // SNB_STORAGE_MESSAGE_INDEX_H_
