// Claim-once bitmap: exactly-once visits over a scan domain that lists some
// elements more than once.
//
// The concatenated tag→message posting lists BI 9/20/24 walk (CP-2.1) hold
// a message once per tag it carries, so a message with two tags of the
// class sits on two lists — or twice on one, since nothing forbids a
// repeated tag. The walk visits each message once by claiming it here: the
// first Claim(i) returns true and every later one false, whichever morsel
// slot makes it. Sums folded over the claimed elements are therefore exact
// and independent of how the domain was sliced or scheduled.
//
// Thread safety: a claim is one fetch_or, so exactly one of any number of
// racing claims of the same element wins. A bit only decides who visits;
// it guards no other data. Like engine/bound.h, this is a reviewed
// cross-slot atomic for query code, which may not hold raw std::atomic
// itself.

#ifndef SNB_ENGINE_CLAIM_BITMAP_H_
#define SNB_ENGINE_CLAIM_BITMAP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace snb::engine {

class ClaimBitmap {
 public:
  /// `size` elements, none claimed.
  explicit ClaimBitmap(size_t size) : words_((size + 63) / 64) {}

  ClaimBitmap(const ClaimBitmap&) = delete;
  ClaimBitmap& operator=(const ClaimBitmap&) = delete;

  /// Claims element `i`; true when this call is its first claim.
  bool Claim(size_t i) {
    const uint64_t mask = uint64_t{1} << (i % 64);
    // relaxed: fetch_or is atomic at any ordering, so exactly one racing
    // claim sees the bit clear; the bit publishes no other data, and the
    // morsel join orders every claim before the caller reads the result.
    return (words_[i / 64].fetch_or(mask, std::memory_order_relaxed) &
            mask) == 0;
  }

 private:
  std::vector<std::atomic<uint64_t>> words_;
};

}  // namespace snb::engine

#endif  // SNB_ENGINE_CLAIM_BITMAP_H_
