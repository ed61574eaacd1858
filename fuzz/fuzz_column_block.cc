// Fuzz harness: serialized column-block decoding (DecodeColumnBlock).
//
// Encoded blocks cross a durability boundary — checkpoints hand the
// decoder whatever bytes the disk returns — so the decoder must be total
// over arbitrary input.
//
// Contract: DecodeColumnBlock never crashes; it returns a failure Status or
// an OK block that is a serialization fixed point (accepted bytes
// re-serialize to themselves) and whose zone metadata exactly covers the
// decoded values. Any ASan/UBSan signal or SNB_CHECK is a finding.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "storage/columnar/column_block.h"
#include "util/check.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using snb::storage::columnar::ColumnBlock;
  using snb::storage::columnar::DecodeColumnBlock;

  ColumnBlock block;
  size_t consumed = 0;
  snb::util::Status status =
      DecodeColumnBlock({data, size}, &block, &consumed);
  if (!status.ok()) return 0;

  SNB_CHECK_LE(consumed, size);
  SNB_CHECK_GT(block.size(), 0u);
  SNB_CHECK_LE(block.size(), ColumnBlock::kMaxValues);
  SNB_CHECK_LE(block.zone_min(), block.zone_max());

  // The strict decoder re-derives zone metadata, so every decoded value
  // must fall inside the advertised zone.
  std::vector<uint64_t> values;
  block.DecodeAll(&values);
  SNB_CHECK_EQ(values.size(), block.size());
  for (uint64_t v : values) {
    SNB_CHECK_GE(v, block.zone_min());
    SNB_CHECK_LE(v, block.zone_max());
  }

  // Fixed point: accepted bytes re-serialize to exactly the consumed
  // prefix, and decoding the re-serialization yields the same values.
  std::string reserialized;
  block.SerializeTo(&reserialized);
  SNB_CHECK_EQ(reserialized.size(), consumed);
  SNB_CHECK(std::memcmp(reserialized.data(), data, consumed) == 0);

  ColumnBlock again;
  size_t again_consumed = 0;
  SNB_CHECK_OK(DecodeColumnBlock(
      {reinterpret_cast<const uint8_t*>(reserialized.data()),
       reserialized.size()},
      &again, &again_consumed));
  SNB_CHECK_EQ(again_consumed, consumed);
  SNB_CHECK_EQ(again.size(), block.size());
  return 0;
}
