// Append-only list-valued column for the 1-to-N person attributes (emails,
// spoken languages, studyAt, workAt): every row's items back to back in one
// values column, row i at [offsets[i], offsets[i + 1]). Items keep their
// stored order. String items live in a StringColumn, so, like the other
// columns, a copy is a few flat memcpys with no per-item heap block.

#ifndef SNB_STORAGE_COLUMNAR_LIST_COLUMN_H_
#define SNB_STORAGE_COLUMNAR_LIST_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "storage/columnar/string_column.h"
#include "util/check.h"

namespace snb::storage {
struct ImageCodec;
}  // namespace snb::storage

namespace snb::storage::columnar {

template <typename T>
class ListColumn {
  static constexpr bool kStrings = std::is_same_v<T, std::string>;

 public:
  /// Row i's items: a view into the values for trivially copyable items, a
  /// decoded vector for strings.
  auto At(size_t i) const {
    SNB_DCHECK(i + 1 < offsets_.size());
    if constexpr (kStrings) {
      std::vector<std::string> items;
      items.reserve(offsets_[i + 1] - offsets_[i]);
      for (uint32_t k = offsets_[i]; k < offsets_[i + 1]; ++k) {
        items.emplace_back(values_.At(k));
      }
      return items;
    } else {
      return std::span<const T>(values_.data() + offsets_[i],
                                offsets_[i + 1] - offsets_[i]);
    }
  }

  void Append(const std::vector<T>& items) {
    for (const T& item : items) {
      if constexpr (kStrings) {
        values_.Append(item);
      } else {
        values_.push_back(item);
      }
    }
    offsets_.push_back(offsets_.back() + static_cast<uint32_t>(items.size()));
  }

  /// Appends a copy of `other`'s row `i`, item by item as Append does, so
  /// the column grows exactly as if the row's items were appended.
  void AppendRow(const ListColumn& other, size_t i) {
    SNB_DCHECK(i + 1 < other.offsets_.size());
    for (uint32_t k = other.offsets_[i]; k < other.offsets_[i + 1]; ++k) {
      if constexpr (kStrings) {
        values_.Append(other.values_.At(k));
      } else {
        values_.push_back(other.values_[k]);
      }
    }
    offsets_.push_back(offsets_.back() + other.offsets_[i + 1] -
                       other.offsets_[i]);
  }

  /// Heap bytes held (memory-accounting API).
  size_t ByteSize() const {
    size_t values = 0;
    if constexpr (kStrings) {
      values = values_.ByteSize();
    } else {
      values = values_.capacity() * sizeof(T);
    }
    return values + offsets_.capacity() * sizeof(uint32_t);
  }

 private:
  friend struct storage::ImageCodec;  // checkpoint image

  std::conditional_t<kStrings, StringColumn, std::vector<T>> values_;
  std::vector<uint32_t> offsets_{0};
};

}  // namespace snb::storage::columnar

#endif  // SNB_STORAGE_COLUMNAR_LIST_COLUMN_H_
