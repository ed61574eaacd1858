#include "storage/columnar/dictionary.h"

#include "util/check.h"

namespace snb::storage::columnar {

Dictionary::Dictionary(const Dictionary& other) : values_(other.values_) {
  index_.reserve(values_.size());
  for (size_t code = 0; code < values_.size(); ++code) {
    index_.emplace(std::string_view(values_[code]),
                   static_cast<uint32_t>(code));
  }
}

uint32_t Dictionary::GetOrAdd(std::string_view value) {
  auto it = index_.find(value);
  if (it != index_.end()) return it->second;
  const uint32_t code = static_cast<uint32_t>(values_.size());
  SNB_CHECK_LT(code, kNoCode);
  values_.emplace_back(value);
  // The key views the deque-owned string: deque growth never moves
  // elements, so the view stays valid for the dictionary's lifetime.
  index_.emplace(std::string_view(values_.back()), code);
  return code;
}

uint32_t Dictionary::Find(std::string_view value) const {
  auto it = index_.find(value);
  return it == index_.end() ? kNoCode : it->second;
}

const std::string& Dictionary::Decode(uint32_t code) const {
  SNB_CHECK_LT(code, values_.size());
  return values_[code];
}

size_t Dictionary::size() const {
  return values_.size();
}

size_t Dictionary::ByteSize() const {
  size_t bytes = 0;
  for (const std::string& s : values_) {
    bytes += sizeof(std::string) + s.capacity();
  }
  bytes += index_.size() *
           (sizeof(std::string_view) + sizeof(uint32_t) + 2 * sizeof(void*));
  return bytes;
}

}  // namespace snb::storage::columnar
