// Flat open-addressing map from external spec ids to dense row indices —
// the store's id → row tables (persons, forums, posts, comments and the
// static reference tables).
//
// One key array and one row array of power-of-two capacity, linear probing
// at a load factor of at most 1/2. The home slot is the low bits of a
// splitmix64 finalizer of the id, so dense or strided ids (datagen assigns
// ids densely per type; CSV loads, recovery and IU inserts may not) spread
// evenly. An empty slot is marked by row kNoRow rather than by a reserved
// key, so every int64 id is storable, negative ids and core::kNoId
// included. There is no erase: deletes tombstone rows and compaction
// rebuilds the table. Both arrays are trivially copyable, so the refresh
// writer's copy of a table is two memcpys.

#ifndef SNB_STORAGE_COLUMNAR_FLAT_ID_TABLE_H_
#define SNB_STORAGE_COLUMNAR_FLAT_ID_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/schema.h"
#include "util/check.h"

namespace snb::storage::columnar {

class FlatIdTable {
 public:
  /// The row of an empty slot, and Find's answer for an absent id.
  static constexpr uint32_t kNoRow = UINT32_MAX;

  /// splitmix64's finalizer: a bijection on 64 bits whose low bits depend
  /// on every input bit.
  static uint64_t Hash(core::Id id) {
    uint64_t x = static_cast<uint64_t>(id);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  /// Row of `id`, or kNoRow when absent.
  uint32_t Find(core::Id id) const {
    if (rows_.empty()) return kNoRow;
    const size_t mask = rows_.size() - 1;
    for (size_t slot = Hash(id) & mask;; slot = (slot + 1) & mask) {
      if (rows_[slot] == kNoRow || keys_[slot] == id) return rows_[slot];
    }
  }

  /// Maps `id` to `row` (which must not be kNoRow); false, with the
  /// entries unchanged, when `id` is already present.
  bool Insert(core::Id id, uint32_t row) {
    SNB_DCHECK(row != kNoRow);
    if (2 * (size_ + 1) > rows_.size()) Rehash(2 * (size_ + 1));
    const size_t mask = rows_.size() - 1;
    size_t slot = Hash(id) & mask;
    for (; rows_[slot] != kNoRow; slot = (slot + 1) & mask) {
      if (keys_[slot] == id) return false;
    }
    keys_[slot] = id;
    rows_[slot] = row;
    ++size_;
    return true;
  }

  /// Sizes the table so that `n` entries in all fit without a rehash.
  void Reserve(size_t n) {
    if (2 * n > rows_.size()) Rehash(2 * n);
  }

  size_t size() const { return size_; }
  /// Slots allocated (a power of two, or 0 before the first insert).
  size_t capacity() const { return rows_.size(); }
  /// Heap bytes held (memory-accounting API).
  size_t ByteSize() const {
    return keys_.capacity() * sizeof(core::Id) +
           rows_.capacity() * sizeof(uint32_t);
  }

  bool operator==(const FlatIdTable&) const = default;

 private:
  /// Reallocates to the least power of two ≥ `min_slots` (at least 16) and
  /// re-inserts every entry.
  void Rehash(size_t min_slots) {
    std::vector<core::Id> keys(std::bit_ceil(std::max<size_t>(min_slots, 16)));
    std::vector<uint32_t> rows(keys.size(), kNoRow);
    const size_t mask = rows.size() - 1;
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (rows_[i] == kNoRow) continue;
      size_t slot = Hash(keys_[i]) & mask;
      while (rows[slot] != kNoRow) slot = (slot + 1) & mask;
      keys[slot] = keys_[i];
      rows[slot] = rows_[i];
    }
    keys_.swap(keys);
    rows_.swap(rows);
  }

  std::vector<core::Id> keys_;
  std::vector<uint32_t> rows_;  // kNoRow marks an empty slot
  size_t size_ = 0;
};

}  // namespace snb::storage::columnar

#endif  // SNB_STORAGE_COLUMNAR_FLAT_ID_TABLE_H_
