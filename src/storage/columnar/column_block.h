// Immutable encoded column blocks with zone metadata.
//
// A ColumnBlock holds up to kMaxValues uint64 values under one of two
// encodings:
//
//   kForPacked    frame-of-reference: store min(values) once, bit-pack
//                 value − min at the canonical width. O(1) random access —
//                 the encoding for columns that must keep the raw-array
//                 access contract (CSR targets/dates/offsets).
//   kDeltaPacked  for non-decreasing columns: store the first value, then
//                 bit-pack consecutive differences. Denser than FOR when
//                 the column is sorted (deltas are small even when the
//                 range is wide); access is a prefix sum, so it suits
//                 columns that are scanned or zone-searched rather than
//                 random-probed (the message-date index base).
//
// Every block carries exact min/max zone metadata, so range pruning à la
// CP-2.2/2.3 falls out of the format: a scan skips whole blocks whose
// [min, max] misses the window before touching packed words.
//
// Blocks also serialize to a self-describing byte format whose decoder is
// total — DecodeColumnBlock returns util::Status on any malformed input and
// never crashes; it is the entry point fuzz/fuzz_column_block drives. The
// decoder is strict: it re-derives the zone metadata and canonical bit
// width from the payload and rejects mismatches as kCorruption, so
// encode → serialize → decode is a fixed point on valid blocks.
//
// ZonedColumn strings blocks into a whole-column view with O(1) routing,
// aggregate byte accounting, and lower-bound search over sorted content.

#ifndef SNB_STORAGE_COLUMNAR_COLUMN_BLOCK_H_
#define SNB_STORAGE_COLUMNAR_COLUMN_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "storage/columnar/bitpack.h"
#include "util/status.h"

namespace snb::storage {
struct ImageCodec;
}  // namespace snb::storage

namespace snb::storage::columnar {

enum class BlockEncoding : uint8_t {
  kForPacked = 1,
  kDeltaPacked = 2,
};

class ColumnBlock {
 public:
  /// Capacity of one block. 1024 × 8B raw = one 8 KiB leaf — large enough
  /// to amortize the 40-byte header, small enough that zone pruning has
  /// useful resolution.
  static constexpr size_t kMaxValues = 1024;

  ColumnBlock() = default;

  /// Frame-of-reference encodes `values` (1..kMaxValues entries).
  static ColumnBlock EncodeFor(std::span<const uint64_t> values);

  /// Delta encodes `values`, which must be non-decreasing (checked).
  static ColumnBlock EncodeDelta(std::span<const uint64_t> values);

  size_t size() const { return count_; }
  BlockEncoding encoding() const { return encoding_; }
  unsigned bits() const { return packed_.bits(); }

  /// Exact zone metadata: min/max of the contained values.
  uint64_t zone_min() const { return min_; }
  uint64_t zone_max() const { return max_; }

  /// Value at `i`. O(1) for kForPacked; O(i) prefix sum for kDeltaPacked —
  /// delta blocks are meant to be scanned via DecodeAll or zone-searched.
  /// Inline: CSR degree and span lookups call it per row.
  uint64_t At(size_t i) const {
    SNB_DCHECK(i < count_);
    if (encoding_ == BlockEncoding::kForPacked) return base_ + packed_.At(i);
    return DeltaAt(i);
  }

  /// Appends all `size()` values to `out` in order (sequential decode).
  void DecodeAll(std::vector<uint64_t>* out) const;

  /// Heap bytes held by the packed payload.
  size_t ByteSize() const { return packed_.ByteSize(); }

  /// Appends the self-describing byte format to `out`.
  void SerializeTo(std::string* out) const;

  /// Test-only: rewrites slot `i` so it decodes to `v`. kForPacked blocks
  /// only; `v` must be representable at the block's width and base.
  void SetValueForTest(size_t i, uint64_t v) {
    SNB_CHECK(encoding_ == BlockEncoding::kForPacked);
    SNB_CHECK_GE(v, base_);
    packed_.Set(i, v - base_);
  }

  /// Test-only: overwrites the zone metadata, leaving the payload intact —
  /// a stale zone map, the other damage class the zone invariant catches.
  void CorruptZoneForTest(uint64_t zone_min, uint64_t zone_max) {
    min_ = zone_min;
    max_ = zone_max;
  }

 private:
  friend util::Status DecodeColumnBlock(std::span<const uint8_t> bytes,
                                        ColumnBlock* out, size_t* consumed);

  /// At() of a kDeltaPacked block: the prefix sum up to `i`.
  uint64_t DeltaAt(size_t i) const;

  BlockEncoding encoding_ = BlockEncoding::kForPacked;
  uint32_t count_ = 0;
  uint64_t base_ = 0;  // FOR reference (== min) / first value for delta
  uint64_t min_ = 0;
  uint64_t max_ = 0;
  PackedArray packed_;
};

/// Parses one serialized block from the front of `bytes`. Total: any input
/// yields either an OK block (with `*consumed` bytes eaten) or a
/// kCorruption/kInvalidArgument Status — never a crash. Strictness contract:
/// the payload must round-trip (zone metadata and bit width are re-derived
/// and compared), so accepted bytes re-serialize to themselves.
SNB_NODISCARD util::Status DecodeColumnBlock(std::span<const uint8_t> bytes,
                               ColumnBlock* out, size_t* consumed);

/// A whole column as a vector of blocks plus routing; built once, immutable.
class ZonedColumn {
 public:
  ZonedColumn() = default;

  /// Encodes `values` into FOR blocks (O(1) At).
  static ZonedColumn BuildFor(std::span<const uint64_t> values);

  /// Encodes non-decreasing `values` into delta blocks (scan/search access).
  static ZonedColumn BuildDelta(std::span<const uint64_t> values);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  uint64_t At(size_t i) const {
    SNB_DCHECK(i < size_);
    return blocks_[i / ColumnBlock::kMaxValues].At(i % ColumnBlock::kMaxValues);
  }

  /// First index whose value is ≥ `v`; size() when none. Requires the
  /// column to be non-decreasing (as built by BuildDelta). Zone metadata
  /// narrows the search to one block, then a sequential decode finds the
  /// in-block position — O(log #blocks + kMaxValues).
  size_t LowerBound(uint64_t v) const;

  size_t num_blocks() const { return blocks_.size(); }
  const ColumnBlock& block(size_t b) const { return blocks_[b]; }
  ColumnBlock& mutable_block(size_t b) { return blocks_[b]; }

  /// Test-only: routes ColumnBlock::SetValueForTest to position `i`.
  void SetValueForTest(size_t i, uint64_t v) {
    blocks_[i / ColumnBlock::kMaxValues].SetValueForTest(
        i % ColumnBlock::kMaxValues, v);
  }

  /// Total heap bytes across blocks (packed words + per-block bookkeeping).
  size_t ByteSize() const;

 private:
  friend struct storage::ImageCodec;  // checkpoint image

  static ZonedColumn Build(std::span<const uint64_t> values, bool delta);

  std::vector<ColumnBlock> blocks_;
  size_t size_ = 0;
};

}  // namespace snb::storage::columnar

#endif  // SNB_STORAGE_COLUMNAR_COLUMN_BLOCK_H_
