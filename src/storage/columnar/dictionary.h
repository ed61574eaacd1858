// Shared dictionary encoder for low-cardinality strings.
//
// The store sees the same few dozen distinct strings millions of times:
// the genders and browsers of persons, the browsers and languages of posts
// and comments.
// The dictionary maps each distinct string to a stable dense uint32 code —
// codes are assigned in first-seen order and never change or move, so a
// code column written at load time stays valid across every later append
// (the IU update path only ever adds codes). Decode is O(1): codes index a
// deque whose element addresses are stable under growth, so a
// `const std::string&` stays valid across later GetOrAdd calls.
//
// Concurrency follows the store's snapshot contract: published snapshots
// are immutable, and the refresh writer mutates a private member-wise copy
// of the graph. A dictionary is therefore never written while it is read,
// and holds no lock. Copies are deep: the copy's hash index is re-keyed
// onto the copy's own strings, so it outlives its source.

#ifndef SNB_STORAGE_COLUMNAR_DICTIONARY_H_
#define SNB_STORAGE_COLUMNAR_DICTIONARY_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace snb::storage::columnar {

class Dictionary {
 public:
  static constexpr uint32_t kNoCode = UINT32_MAX;

  Dictionary() = default;
  /// Deep copy: the index keys view `values_`, so the copy rebuilds its
  /// index over its own strings instead of sharing the source's views.
  Dictionary(const Dictionary& other);
  Dictionary& operator=(const Dictionary&) = delete;

  /// Returns the code for `value`, assigning the next dense code on first
  /// sight. Codes are stable for the lifetime of the dictionary.
  uint32_t GetOrAdd(std::string_view value);

  /// Code for `value` if present, kNoCode otherwise (no insertion).
  uint32_t Find(std::string_view value) const;

  /// The string for `code`; the reference is stable (deque storage) and
  /// remains valid across later GetOrAdd calls. `code` must be in range.
  const std::string& Decode(uint32_t code) const;

  /// Number of distinct values == smallest invalid code. The validator's
  /// dictionary-code-in-range invariant checks every code column against
  /// this bound.
  size_t size() const;

  /// Heap bytes held (strings + hash index), for MemoryBreakdown.
  size_t ByteSize() const;

 private:
  std::deque<std::string> values_;
  std::unordered_map<std::string_view, uint32_t> index_;
};

}  // namespace snb::storage::columnar

#endif  // SNB_STORAGE_COLUMNAR_DICTIONARY_H_
