#include "storage/message_index.h"

#include <algorithm>
#include <cstdint>

namespace snb::storage {

namespace {

// Mirrors Graph's message-reference encoding (bit 31 set → comment). Kept
// local to avoid a header cycle with graph.h.
constexpr uint32_t kCommentBit = 0x80000000u;

}  // namespace

void MessageDateIndex::Build(const std::vector<core::DateTime>& post_dates,
                             const std::vector<core::DateTime>& comment_dates) {
  struct Entry {
    uint64_t key;
    uint32_t ref;
  };
  const size_t n = post_dates.size() + comment_dates.size();
  std::vector<Entry> entries(n);
  for (size_t i = 0; i < post_dates.size(); ++i) {
    entries[i] = {DateKey(post_dates[i]), static_cast<uint32_t>(i)};
  }
  for (size_t i = 0; i < comment_dates.size(); ++i) {
    entries[post_dates.size() + i] = {DateKey(comment_dates[i]),
                                      static_cast<uint32_t>(i) | kCommentBit};
  }
  // The entries start in ref order (posts, then comments, each by row), so
  // a stable sort by date key alone orders them by (date, ref): an LSD
  // radix sort over the keys' span above their minimum, kBits per pass.
  uint64_t lo = UINT64_MAX, hi = 0;
  for (const Entry& e : entries) {
    lo = std::min(lo, e.key);
    hi = std::max(hi, e.key);
  }
  constexpr unsigned kBits = 11;
  constexpr uint64_t kMask = (uint64_t{1} << kBits) - 1;
  std::vector<Entry> sorted(n);
  std::vector<size_t> next(kMask + 2);
  for (unsigned shift = 0; shift < 64 && n > 0 && ((hi - lo) >> shift) != 0;
       shift += kBits) {
    auto digit = [lo, shift](const Entry& e) {
      return ((e.key - lo) >> shift) & kMask;
    };
    std::fill(next.begin(), next.end(), 0);
    for (const Entry& e : entries) ++next[digit(e) + 1];
    for (size_t d = 1; d < next.size(); ++d) next[d] += next[d - 1];
    for (const Entry& e : entries) sorted[next[digit(e)]++] = e;
    entries.swap(sorted);
  }
  auto base = std::make_shared<Base>();
  base->refs.resize(n);
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) {
    base->refs[i] = entries[i].ref;
    keys[i] = entries[i].key;
  }
  base->dates = columnar::ZonedColumn::BuildDelta(keys);
  base_ = std::move(base);
}

void MessageDateIndex::Append(uint32_t msg, core::DateTime date) {
  if (tail_refs_.size() % kTailBlock == 0) tail_zones_.emplace_back();
  tail_refs_.push_back(msg);
  tail_dates_.push_back(date);
  Zone& z = tail_zones_.back();
  z.min = std::min(z.min, date);
  z.max = std::max(z.max, date);
}

std::pair<core::DateTime, core::DateTime> MessageDateIndex::DateBounds()
    const {
  core::DateTime lo = kMaxMessageDate, hi = kMinMessageDate;
  if (base_size() > 0) {
    lo = BaseDateAt(0);
    hi = BaseDateAt(base_size() - 1);
  }
  for (const Zone& z : tail_zones_) {
    lo = std::min(lo, z.min);
    hi = std::max(hi, z.max);
  }
  return {lo, hi};
}

void MessageDateIndex::NoteLike(uint32_t msg, core::DateTime date,
                                uint32_t likes) {
  // Base lookup: the column is sorted, so the blocks whose date zone holds
  // `date` are one run: from the first block whose max reaches it to the
  // last whose min does not pass it. A run of equal dates can straddle a
  // block boundary, so every block of the run is a candidate; the refs are
  // unique, so a match anywhere in the run is the message's position.
  const columnar::ZonedColumn& dates = base_->dates;
  const std::vector<uint32_t>& refs = base_->refs;
  const uint64_t key = DateKey(date);
  size_t lo = 0, hi = dates.num_blocks();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (dates.block(mid).zone_max() < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const size_t kBlock = columnar::ColumnBlock::kMaxValues;
  for (size_t b = lo; b < dates.num_blocks(); ++b) {
    if (dates.block(b).zone_min() > key) break;
    const uint32_t* first = refs.data() + b * kBlock;
    const uint32_t* last = refs.data() + std::min(refs.size(), (b + 1) * kBlock);
    if (std::find(first, last, msg) != last) {
      base_like_max_[b] = std::max(base_like_max_[b], likes);
      return;
    }
  }
  // Not bulk-loaded → it lives in the update tail, in a block whose date
  // zone covers `date`. IU streams arrive roughly in date order, so few
  // blocks qualify.
  for (size_t b = 0; b < tail_zones_.size(); ++b) {
    Zone& z = tail_zones_[b];
    if (date < z.min || date > z.max) continue;
    const size_t end = std::min(tail_refs_.size(), (b + 1) * kTailBlock);
    for (size_t i = b * kTailBlock; i < end; ++i) {
      if (tail_refs_[i] == msg) {
        z.max_likes = std::max(z.max_likes, likes);
        return;
      }
    }
  }
}

}  // namespace snb::storage
