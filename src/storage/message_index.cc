#include "storage/message_index.h"

#include <numeric>

namespace snb::storage {

namespace {

// Mirrors Graph's message-reference encoding (bit 31 set → comment). Kept
// local to avoid a header cycle with graph.h.
constexpr uint32_t kCommentBit = 0x80000000u;

}  // namespace

void MessageDateIndex::Build(const std::vector<core::DateTime>& post_dates,
                             const std::vector<core::DateTime>& comment_dates) {
  const size_t n = post_dates.size() + comment_dates.size();
  base_refs_.resize(n);
  std::iota(base_refs_.begin(), base_refs_.begin() + post_dates.size(), 0u);
  for (size_t i = 0; i < comment_dates.size(); ++i) {
    base_refs_[post_dates.size() + i] =
        static_cast<uint32_t>(i) | kCommentBit;
  }
  auto date_of = [&](uint32_t ref) {
    return (ref & kCommentBit) == 0 ? post_dates[ref]
                                    : comment_dates[ref & ~kCommentBit];
  };
  std::sort(base_refs_.begin(), base_refs_.end(),
            [&](uint32_t a, uint32_t b) {
              core::DateTime da = date_of(a), db = date_of(b);
              if (da != db) return da < db;
              return a < b;
            });
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = DateKey(date_of(base_refs_[i]));
  base_dates_ = columnar::ZonedColumn::BuildDelta(keys);
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
  if (!base_refs_.empty()) {
    lo = BaseDateAt(0);
    hi = BaseDateAt(base_refs_.size() - 1);
  }
  for (const Zone& z : tail_zones_) {
    lo = std::min(lo, z.min);
    hi = std::max(hi, z.max);
  }
  return {lo, hi};
}

void MessageDateIndex::NoteLike(uint32_t msg, core::DateTime date,
                                uint32_t likes) {
  // Base lookup: entries with one creation date form a contiguous run sorted
  // by ref (Build's tie-break), so the position is two binary searches.
  auto [lo, hi] = BaseRange(date, date + 1);
  auto first = base_refs_.begin() + static_cast<ptrdiff_t>(lo);
  auto last = base_refs_.begin() + static_cast<ptrdiff_t>(hi);
  auto it = std::lower_bound(first, last, msg);
  if (it != last && *it == msg) {
    const size_t block = static_cast<size_t>(it - base_refs_.begin()) /
                         columnar::ColumnBlock::kMaxValues;
    base_like_max_[block] = std::max(base_like_max_[block], likes);
    return;
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
