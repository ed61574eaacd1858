// Append-only string column for free-text attributes (names, titles,
// content, image file, location IP): every row's bytes back to back in one
// char buffer, row i at [offsets[i], offsets[i + 1]). No per-row string
// header or heap block.
//
// The rows present at Freeze() (the bulk build's) move into an immutable
// base held by shared_ptr<const>, which every copy of the column shares;
// rows appended later go to a private tail. So the refresh writer's copy is
// a pointer copy plus two flat memcpys of the tail, and the first append
// after a copy grows only the tail.

#ifndef SNB_STORAGE_COLUMNAR_STRING_COLUMN_H_
#define SNB_STORAGE_COLUMNAR_STRING_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/check.h"

namespace snb::storage {
struct ImageCodec;
struct TestAccess;
}  // namespace snb::storage

namespace snb::storage::columnar {

class StringColumn {
 public:
  std::string_view At(size_t i) const {
    return i < base_rows_ ? base_->At(i) : tail_.At(i - base_rows_);
  }

  void Append(std::string_view value) { tail_.Append(value); }

  void Reserve(size_t rows, size_t chars) { tail_.Reserve(rows, chars); }

  /// Moves every row into the shared base. Called once, by the bulk build,
  /// on a column with no base yet.
  void Freeze() {
    SNB_CHECK(base_ == nullptr);
    base_rows_ = tail_.size();
    base_ = std::make_shared<const Rows>(std::move(tail_));
    tail_ = Rows();
  }

  /// Heap bytes held (memory-accounting API), the shared base included.
  size_t ByteSize() const { return SharedByteSize() + tail_.ByteSize(); }
  /// The part of ByteSize() in the base, which copies share.
  size_t SharedByteSize() const { return base_ ? base_->ByteSize() : 0; }

 private:
  friend struct storage::TestAccess;  // shared-base identity in tests
  friend struct storage::ImageCodec;  // checkpoint image

  struct Rows {
    std::string chars;
    std::vector<uint64_t> offsets{0};

    std::string_view At(size_t i) const {
      SNB_DCHECK(i + 1 < offsets.size());
      return {chars.data() + offsets[i],
              static_cast<size_t>(offsets[i + 1] - offsets[i])};
    }
    size_t size() const { return offsets.size() - 1; }
    void Append(std::string_view value) {
      chars.append(value);
      offsets.push_back(chars.size());
    }
    void Reserve(size_t rows, size_t num_chars) {
      offsets.reserve(offsets.size() + rows);
      chars.reserve(chars.size() + num_chars);
    }
    size_t ByteSize() const {
      return chars.capacity() + offsets.capacity() * sizeof(uint64_t);
    }
  };

  std::shared_ptr<const Rows> base_;
  size_t base_rows_ = 0;
  Rows tail_;
};

}  // namespace snb::storage::columnar

#endif  // SNB_STORAGE_COLUMNAR_STRING_COLUMN_H_
