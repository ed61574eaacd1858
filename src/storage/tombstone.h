// Tombstone bitmaps for deep deletes (DEL 1–8, arXiv 2307.04820).
//
// Deletion over the columnar store is logical: a cascade marks rows dead in
// word-packed bitmaps while the underlying tables, adjacency spans, and zone
// maps stay physically intact. Readers filter through the bitmaps; physical
// reclamation happens only at compaction, when the live rows are gathered
// into a fresh Graph (bumping its compaction epoch). Keeping the
// raw rows in place is what preserves the zone-map safety argument: a zone
// maximum computed over all rows still upper-bounds the live subset.

#ifndef SNB_STORAGE_TOMBSTONE_H_
#define SNB_STORAGE_TOMBSTONE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace snb::storage {

/// Word-packed deletion bitmap over a dense row space. Append-only in size
/// (the bulk build and the IU inserts append rows), monotone in content (a
/// set bit is never cleared — resurrection is not a benchmark operation;
/// compaction rebuilds instead).
class TombstoneBitmap {
 public:
  /// Appends one live row (bulk build and IU inserts alike).
  void Append() {
    if (size_++ % 64 == 0) words_.push_back(0);
  }

  size_t size() const { return size_; }

  /// Number of dead rows.
  size_t count() const { return count_; }

  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  /// Marks row `i` dead; returns true when the bit was newly set. The
  /// return value is what makes cascades idempotent: re-marking a dead row
  /// is a no-op and must not re-trigger downstream cascade work.
  bool Set(size_t i) {
    uint64_t& w = words_[i >> 6];
    const uint64_t bit = uint64_t{1} << (i & 63);
    if (w & bit) return false;
    w |= bit;
    ++count_;
    return true;
  }

  size_t ByteSize() const { return words_.capacity() * sizeof(uint64_t); }

 private:
  std::vector<uint64_t> words_;
  size_t size_ = 0;
  size_t count_ = 0;
};

}  // namespace snb::storage

#endif  // SNB_STORAGE_TOMBSTONE_H_
