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
  auto base = std::make_shared<Base>();
  std::vector<uint32_t>& refs = base->refs;
  refs.resize(n);
  std::iota(refs.begin(), refs.begin() + post_dates.size(), 0u);
  for (size_t i = 0; i < comment_dates.size(); ++i) {
    refs[post_dates.size() + i] = static_cast<uint32_t>(i) | kCommentBit;
  }
  auto date_of = [&](uint32_t ref) {
    return (ref & kCommentBit) == 0 ? post_dates[ref]
                                    : comment_dates[ref & ~kCommentBit];
  };
  std::sort(refs.begin(), refs.end(), [&](uint32_t a, uint32_t b) {
    core::DateTime da = date_of(a), db = date_of(b);
    if (da != db) return da < db;
    return a < b;
  });
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = DateKey(date_of(refs[i]));
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
