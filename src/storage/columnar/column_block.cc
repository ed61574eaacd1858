#include "storage/columnar/column_block.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"

namespace snb::storage::columnar {

namespace {

// Serialized layout (little-endian, 40-byte header + packed words):
//   [0]      magic 0xCB
//   [1]      format version (1)
//   [2]      encoding (BlockEncoding)
//   [3]      bit width (0..64)
//   [4..5]   value count (1..kMaxValues)
//   [6..7]   reserved, must be zero
//   [8..15]  base  (FOR reference / first delta value)
//   [16..23] zone min
//   [24..31] zone max
//   [32..39] packed word count
//   [40..]   packed words, 8 bytes each
constexpr uint8_t kMagic = 0xCB;
constexpr uint8_t kVersion = 1;
constexpr size_t kHeaderBytes = 40;

void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0]) | static_cast<uint16_t>(p[1]) << 8;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

ColumnBlock ColumnBlock::EncodeFor(std::span<const uint64_t> values) {
  SNB_CHECK(!values.empty());
  SNB_CHECK_LE(values.size(), kMaxValues);
  ColumnBlock block;
  block.encoding_ = BlockEncoding::kForPacked;
  block.count_ = static_cast<uint32_t>(values.size());
  const auto [min, max] = std::minmax_element(values.begin(), values.end());
  block.min_ = *min;
  block.max_ = *max;
  block.base_ = block.min_;
  block.packed_ =
      PackedArray(values, BitWidth(block.max_ - block.min_), block.base_);
  return block;
}

ColumnBlock ColumnBlock::EncodeDelta(std::span<const uint64_t> values) {
  SNB_CHECK(!values.empty());
  SNB_CHECK_LE(values.size(), kMaxValues);
  ColumnBlock block;
  block.encoding_ = BlockEncoding::kDeltaPacked;
  block.count_ = static_cast<uint32_t>(values.size());
  block.base_ = values.front();
  block.min_ = values.front();
  block.max_ = values.back();
  std::vector<uint64_t> deltas(values.size() - 1);
  uint64_t widest = 0;
  for (size_t i = 1; i < values.size(); ++i) {
    SNB_CHECK_MSG(values[i] >= values[i - 1],
                  "EncodeDelta requires a non-decreasing column");
    deltas[i - 1] = values[i] - values[i - 1];
    widest = std::max(widest, deltas[i - 1]);
  }
  block.packed_ = PackedArray(deltas, BitWidth(widest));
  return block;
}

uint64_t ColumnBlock::DeltaAt(size_t i) const {
  uint64_t v = base_;
  for (size_t k = 0; k < i; ++k) v += packed_.At(k);
  return v;
}

void ColumnBlock::DecodeAll(std::vector<uint64_t>* out) const {
  if (encoding_ == BlockEncoding::kForPacked) {
    for (size_t i = 0; i < count_; ++i) out->push_back(base_ + packed_.At(i));
    return;
  }
  uint64_t v = base_;
  out->push_back(v);
  for (size_t k = 0; k + 1 < count_; ++k) {
    v += packed_.At(k);
    out->push_back(v);
  }
}

void ColumnBlock::SerializeTo(std::string* out) const {
  out->push_back(static_cast<char>(kMagic));
  out->push_back(static_cast<char>(kVersion));
  out->push_back(static_cast<char>(encoding_));
  out->push_back(static_cast<char>(packed_.bits()));
  PutU16(out, static_cast<uint16_t>(count_));
  PutU16(out, 0);  // reserved
  PutU64(out, base_);
  PutU64(out, min_);
  PutU64(out, max_);
  PutU64(out, packed_.words().size());
  for (uint64_t w : packed_.words()) PutU64(out, w);
}

util::Status DecodeColumnBlock(std::span<const uint8_t> bytes,
                               ColumnBlock* out, size_t* consumed) {
  if (bytes.size() < kHeaderBytes) {
    return util::Status::Corruption("column block: truncated header");
  }
  if (bytes[0] != kMagic || bytes[1] != kVersion) {
    return util::Status::Corruption("column block: bad magic/version");
  }
  const uint8_t enc_raw = bytes[2];
  if (enc_raw != static_cast<uint8_t>(BlockEncoding::kForPacked) &&
      enc_raw != static_cast<uint8_t>(BlockEncoding::kDeltaPacked)) {
    return util::Status::Corruption("column block: unknown encoding");
  }
  const BlockEncoding enc = static_cast<BlockEncoding>(enc_raw);
  const unsigned bits = bytes[3];
  if (bits > 64) {
    return util::Status::Corruption("column block: bit width > 64");
  }
  const uint32_t count = GetU16(bytes.data() + 4);
  if (count == 0 || count > ColumnBlock::kMaxValues) {
    return util::Status::Corruption("column block: count out of range");
  }
  if (GetU16(bytes.data() + 6) != 0) {
    return util::Status::Corruption("column block: reserved bytes set");
  }
  const uint64_t base = GetU64(bytes.data() + 8);
  const uint64_t min = GetU64(bytes.data() + 16);
  const uint64_t max = GetU64(bytes.data() + 24);
  if (min > max) {
    return util::Status::Corruption("column block: zone min > max");
  }
  const size_t packed_count =
      enc == BlockEncoding::kForPacked ? count : count - 1;
  const uint64_t want_words = PackedArray::WordCount(packed_count, bits);
  const uint64_t nwords = GetU64(bytes.data() + 32);
  if (nwords != want_words) {
    return util::Status::Corruption("column block: word count mismatch");
  }
  if (bytes.size() - kHeaderBytes < nwords * 8) {
    return util::Status::Corruption("column block: truncated payload");
  }
  std::vector<uint64_t> words(nwords);
  for (size_t i = 0; i < nwords; ++i) {
    words[i] = GetU64(bytes.data() + kHeaderBytes + 8 * i);
  }
  PackedArray packed(std::move(words), packed_count, bits);

  // Semantic validation: re-derive the zone metadata and canonical width
  // from the payload. Rejecting any mismatch as corruption is what makes
  // decode a fixed point of encode — accepted bytes are exactly the bytes
  // the encoder would produce for the decoded values.
  if (enc == BlockEncoding::kForPacked) {
    if (base != min) {
      return util::Status::Corruption("column block: FOR base != zone min");
    }
    if (bits != BitWidth(max - min)) {
      return util::Status::Corruption("column block: non-canonical FOR width");
    }
    uint64_t seen_min = UINT64_MAX, seen_max = 0;
    for (size_t i = 0; i < packed_count; ++i) {
      const uint64_t off = packed.At(i);
      if (off > max - min) {
        return util::Status::Corruption("column block: value above zone max");
      }
      seen_min = std::min(seen_min, off);
      seen_max = std::max(seen_max, off);
    }
    if (seen_min != 0 || base + seen_max != max) {
      return util::Status::Corruption("column block: stale FOR zone metadata");
    }
  } else {
    if (base != min) {
      return util::Status::Corruption("column block: delta first != zone min");
    }
    uint64_t widest = 0;
    uint64_t v = base;
    for (size_t i = 0; i < packed_count; ++i) {
      const uint64_t d = packed.At(i);
      widest = std::max(widest, d);
      const uint64_t next = v + d;
      if (next < v) {
        return util::Status::Corruption("column block: delta sum overflow");
      }
      v = next;
    }
    if (v != max) {
      return util::Status::Corruption("column block: stale delta zone max");
    }
    if (bits != BitWidth(widest)) {
      return util::Status::Corruption(
          "column block: non-canonical delta width");
    }
  }

  out->encoding_ = enc;
  out->count_ = count;
  out->base_ = base;
  out->min_ = min;
  out->max_ = max;
  out->packed_ = std::move(packed);
  if (consumed != nullptr) *consumed = kHeaderBytes + nwords * 8;
  return util::Status::Ok();
}

ZonedColumn ZonedColumn::Build(std::span<const uint64_t> values, bool delta) {
  ZonedColumn col;
  col.size_ = values.size();
  col.blocks_.reserve(
      (values.size() + ColumnBlock::kMaxValues - 1) / ColumnBlock::kMaxValues);
  for (size_t i = 0; i < values.size(); i += ColumnBlock::kMaxValues) {
    const size_t n = std::min(ColumnBlock::kMaxValues, values.size() - i);
    auto chunk = values.subspan(i, n);
    col.blocks_.push_back(delta ? ColumnBlock::EncodeDelta(chunk)
                                : ColumnBlock::EncodeFor(chunk));
  }
  return col;
}

ZonedColumn ZonedColumn::BuildFor(std::span<const uint64_t> values) {
  return Build(values, /*delta=*/false);
}

ZonedColumn ZonedColumn::BuildDelta(std::span<const uint64_t> values) {
  return Build(values, /*delta=*/true);
}

size_t ZonedColumn::LowerBound(uint64_t v) const {
  // Zone search: first block whose max is ≥ v holds the answer (the column
  // is globally non-decreasing, so earlier blocks are entirely < v).
  size_t lo = 0, hi = blocks_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (blocks_[mid].zone_max() < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == blocks_.size()) return size_;
  std::vector<uint64_t> decoded;
  decoded.reserve(blocks_[lo].size());
  blocks_[lo].DecodeAll(&decoded);
  const size_t in_block = static_cast<size_t>(
      std::lower_bound(decoded.begin(), decoded.end(), v) - decoded.begin());
  return lo * ColumnBlock::kMaxValues + in_block;
}

size_t ZonedColumn::ByteSize() const {
  size_t bytes = blocks_.capacity() * sizeof(ColumnBlock);
  for (const ColumnBlock& b : blocks_) bytes += b.ByteSize();
  return bytes;
}

}  // namespace snb::storage::columnar
