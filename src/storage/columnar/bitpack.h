// Fixed-width bit-packing: the primitive under every columnar encoding.
//
// A PackedArray stores n unsigned values of a uniform bit width b (0..64)
// in ceil(n*b/64)+1 words; value i occupies bits [i*b, (i+1)*b) in
// little-endian bit order, so At(i) is two aligned word reads, a shift and
// a mask — O(1) and branch-predictable, which is what lets the compressed
// CSR keep the same random-access contract as the raw uint32 arrays it
// replaces (choke points CP-3.2/3.3 care about scan locality, not about
// giving up point lookups).
//
// The one extra tail word makes the unaligned two-word read always safe
// without a bounds branch in the hot path.

#ifndef SNB_STORAGE_COLUMNAR_BITPACK_H_
#define SNB_STORAGE_COLUMNAR_BITPACK_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/check.h"

namespace snb::storage::columnar {

/// Smallest width that can represent `v` (0 for v == 0 — a run of equal
/// values FOR-encodes to width zero and costs only its block header).
inline unsigned BitWidth(uint64_t v) {
  unsigned bits = 0;
  while (v != 0) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

class PackedArray {
 public:
  PackedArray() = default;

  /// Packs `values` less `base` at width `bits`; every difference must fit
  /// (checked). The words start zeroed and fill in order, so each value is
  /// OR-ed into place.
  PackedArray(std::span<const uint64_t> values, unsigned bits,
              uint64_t base = 0)
      : size_(values.size()), bits_(bits) {
    SNB_CHECK_LE(bits, 64u);
    words_.assign(WordCount(size_, bits), 0);
    if (bits == 0) return;
    for (size_t i = 0; i < values.size(); ++i) {
      const uint64_t v = values[i] - base;
      SNB_DCHECK(BitWidth(v) <= bits_);
      const size_t bit = i * bits;
      const size_t w = bit >> 6;
      const unsigned off = bit & 63;
      words_[w] |= v << off;
      if (off + bits > 64) words_[w + 1] |= v >> (64 - off);
    }
  }

  /// Adopts pre-packed words (the deserialization path). `words` must hold
  /// WordCount(size, bits) entries — validated by the caller, which is what
  /// the Status-returning block decoder is for.
  PackedArray(std::vector<uint64_t> words, size_t size, unsigned bits)
      : words_(std::move(words)), size_(size), bits_(bits) {
    SNB_CHECK_LE(bits, 64u);
    SNB_CHECK_EQ(words_.size(), WordCount(size, bits));
  }

  /// Words needed for `size` values at width `bits` (incl. the safety word).
  static size_t WordCount(size_t size, unsigned bits) {
    if (bits == 0) return 0;
    return (size * bits + 63) / 64 + 1;
  }

  size_t size() const { return size_; }
  unsigned bits() const { return bits_; }
  bool empty() const { return size_ == 0; }

  uint64_t At(size_t i) const {
    SNB_DCHECK(i < size_);
    if (bits_ == 0) return 0;
    const size_t bit = i * bits_;
    const size_t w = bit >> 6;
    const unsigned off = bit & 63;
    uint64_t v = words_[w] >> off;
    if (off + bits_ > 64) v |= words_[w + 1] << (64 - off);
    return v & Mask();
  }

  /// Overwrites slot i; bits of `v` beyond the width are dropped (the
  /// corruption-seeding hook in tests relies on the masked write staying
  /// in-slot, so damage lands exactly where aimed).
  void Set(size_t i, uint64_t v) {
    SNB_DCHECK(i < size_);
    if (bits_ == 0) return;
    v &= Mask();
    const size_t bit = i * bits_;
    const size_t w = bit >> 6;
    const unsigned off = bit & 63;
    words_[w] = (words_[w] & ~(Mask() << off)) | (v << off);
    if (off + bits_ > 64) {
      const unsigned spill = off + bits_ - 64;
      const uint64_t hi_mask = (spill >= 64) ? ~0ull : ((1ull << spill) - 1);
      words_[w + 1] = (words_[w + 1] & ~hi_mask) | (v >> (64 - off));
    }
  }

  /// Heap bytes held (memory-accounting API).
  size_t ByteSize() const { return words_.size() * sizeof(uint64_t); }

  std::span<const uint64_t> words() const { return words_; }

 private:
  uint64_t Mask() const {
    return bits_ >= 64 ? ~0ull : ((1ull << bits_) - 1);
  }

  std::vector<uint64_t> words_;
  size_t size_ = 0;
  unsigned bits_ = 0;
};

}  // namespace snb::storage::columnar

#endif  // SNB_STORAGE_COLUMNAR_BITPACK_H_
