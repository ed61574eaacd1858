// Append-only string column for free-text attributes (names, titles,
// content, image file, location IP): every row's bytes back to back in one
// char buffer, row i at [offsets[i], offsets[i + 1]). No per-row string
// header or heap block, so the refresh writer's copy is two flat memcpys.

#ifndef SNB_STORAGE_COLUMNAR_STRING_COLUMN_H_
#define SNB_STORAGE_COLUMNAR_STRING_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.h"

namespace snb::storage::columnar {

class StringColumn {
 public:
  std::string_view At(size_t i) const {
    SNB_DCHECK(i + 1 < offsets_.size());
    return {chars_.data() + offsets_[i],
            static_cast<size_t>(offsets_[i + 1] - offsets_[i])};
  }

  void Append(std::string_view value) {
    chars_.append(value);
    offsets_.push_back(chars_.size());
  }

  void Reserve(size_t rows, size_t chars) {
    offsets_.reserve(offsets_.size() + rows);
    chars_.reserve(chars_.size() + chars);
  }

  /// Heap bytes held (memory-accounting API).
  size_t ByteSize() const {
    return chars_.capacity() + offsets_.capacity() * sizeof(uint64_t);
  }

 private:
  std::string chars_;
  std::vector<uint64_t> offsets_{0};
};

}  // namespace snb::storage::columnar

#endif  // SNB_STORAGE_COLUMNAR_STRING_COLUMN_H_
