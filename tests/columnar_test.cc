// Unit tests for the columnar storage subsystem: bit-packing, the shared
// dictionary (including deep copies), encoded column blocks (round-trip,
// zone metadata, the strict Status-returning decoder), zoned columns, the
// compressed CSR, the flat id table (against std::unordered_map, with
// adversarial keys), and the Graph memory-accounting API.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "datagen/datagen.h"
#include "storage/adjacency.h"
#include "storage/columnar/bitpack.h"
#include "storage/columnar/column_block.h"
#include "storage/columnar/csr.h"
#include "storage/columnar/dictionary.h"
#include "storage/columnar/flat_id_table.h"
#include "storage/graph.h"

namespace snb::storage::columnar {
namespace {

TEST(BitpackTest, BitWidth) {
  EXPECT_EQ(BitWidth(0), 0u);
  EXPECT_EQ(BitWidth(1), 1u);
  EXPECT_EQ(BitWidth(2), 2u);
  EXPECT_EQ(BitWidth(255), 8u);
  EXPECT_EQ(BitWidth(256), 9u);
  EXPECT_EQ(BitWidth(UINT64_MAX), 64u);
}

TEST(BitpackTest, RoundTripAllWidths) {
  std::mt19937_64 rng(7);
  for (unsigned bits = 0; bits <= 64; ++bits) {
    const uint64_t mask = bits >= 64 ? ~0ull : ((1ull << bits) - 1);
    std::vector<uint64_t> values(137);
    for (uint64_t& v : values) v = rng() & mask;
    PackedArray packed(values, bits);
    ASSERT_EQ(packed.size(), values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(packed.At(i), values[i]) << "bits=" << bits << " i=" << i;
    }
  }
}

TEST(BitpackTest, SetRewritesOneSlot) {
  std::vector<uint64_t> values = {3, 5, 7, 1, 6};
  PackedArray packed(values, 3);
  packed.Set(2, 0);
  EXPECT_EQ(packed.At(1), 5u);
  EXPECT_EQ(packed.At(2), 0u);
  EXPECT_EQ(packed.At(3), 1u);
}

TEST(DictionaryTest, StableDenseCodes) {
  Dictionary dict;
  const uint32_t female = dict.GetOrAdd("female");
  const uint32_t male = dict.GetOrAdd("male");
  EXPECT_EQ(female, 0u);
  EXPECT_EQ(male, 1u);
  EXPECT_EQ(dict.GetOrAdd("female"), female);  // idempotent
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Decode(female), "female");
  EXPECT_EQ(dict.Decode(male), "male");
  EXPECT_EQ(dict.Find("male"), male);
  EXPECT_EQ(dict.Find("absent"), Dictionary::kNoCode);
}

TEST(DictionaryTest, DecodedReferenceStaysValidAcrossGrowth) {
  Dictionary dict;
  const uint32_t code = dict.GetOrAdd("Chrome");
  const std::string& ref = dict.Decode(code);
  for (int i = 0; i < 1000; ++i) dict.GetOrAdd("browser" + std::to_string(i));
  EXPECT_EQ(ref, "Chrome");  // deque storage: no reallocation moves
}

// The hash index keys are string_views into the dictionary's own strings. A
// copy that kept the source's keys would dangle once the source is gone, so
// the copy must outlive its source with every operation intact.
TEST(DictionaryTest, CopyOutlivesItsSource) {
  // Longer than any small-string buffer, so every value owns a heap block.
  auto value = [](int i) {
    return "dictionary-copy-value-" + std::to_string(i) +
           "-padded-past-the-small-string-buffer";
  };
  constexpr int kValues = 200;
  auto source = std::make_unique<Dictionary>();
  for (int i = 0; i < kValues; ++i) source->GetOrAdd(value(i));
  Dictionary copy(*source);
  source.reset();
  // Recycle the freed blocks with different bytes of the same sizes, so a
  // dangling key would now compare against garbage.
  Dictionary scribble;
  for (int i = 0; i < kValues; ++i) {
    std::string junk = value(i);
    std::fill(junk.begin(), junk.end(), 'x');
    junk += std::to_string(i);
    junk.resize(value(i).size());
    scribble.GetOrAdd(junk);
  }

  ASSERT_EQ(copy.size(), static_cast<size_t>(kValues));
  for (int i = 0; i < kValues; ++i) {
    EXPECT_EQ(copy.Find(value(i)), static_cast<uint32_t>(i)) << i;
    EXPECT_EQ(copy.Decode(static_cast<uint32_t>(i)), value(i)) << i;
    EXPECT_EQ(copy.GetOrAdd(value(i)), static_cast<uint32_t>(i)) << i;
  }
  EXPECT_EQ(copy.size(), static_cast<size_t>(kValues));
  EXPECT_EQ(copy.GetOrAdd("fresh"), static_cast<uint32_t>(kValues));
  EXPECT_EQ(copy.Find("fresh"), static_cast<uint32_t>(kValues));
  EXPECT_EQ(copy.Decode(kValues), "fresh");
}

TEST(DictionaryTest, CopiesGrowIndependently) {
  Dictionary source;
  source.GetOrAdd("female");
  Dictionary copy(source);
  EXPECT_EQ(copy.GetOrAdd("male"), 1u);
  EXPECT_EQ(source.Find("male"), Dictionary::kNoCode);
  EXPECT_EQ(source.size(), 1u);
  EXPECT_EQ(source.GetOrAdd("other"), 1u);
  EXPECT_EQ(copy.Decode(1), "male");
  EXPECT_EQ(copy.Find("other"), Dictionary::kNoCode);
}

std::vector<uint64_t> RandomSorted(size_t n, uint64_t base, uint64_t step,
                                   uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<uint64_t> v(n);
  uint64_t cur = base;
  for (size_t i = 0; i < n; ++i) {
    cur += rng() % step;
    v[i] = cur;
  }
  return v;
}

TEST(ColumnBlockTest, ForRoundTripAndZones) {
  std::mt19937_64 rng(11);
  std::vector<uint64_t> values(500);
  for (uint64_t& v : values) v = 1'000'000 + rng() % 5000;
  ColumnBlock block = ColumnBlock::EncodeFor(values);
  ASSERT_EQ(block.size(), values.size());
  uint64_t mn = UINT64_MAX, mx = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(block.At(i), values[i]);
    mn = std::min(mn, values[i]);
    mx = std::max(mx, values[i]);
  }
  EXPECT_EQ(block.zone_min(), mn);
  EXPECT_EQ(block.zone_max(), mx);
  EXPECT_LE(block.bits(), 13u);  // range 5000 → ≤ 13 bits, not 64
}

TEST(ColumnBlockTest, DeltaRoundTrip) {
  auto values = RandomSorted(777, 1'288'834'974'657ull, 90'000, 13);
  ColumnBlock block = ColumnBlock::EncodeDelta(values);
  std::vector<uint64_t> decoded;
  block.DecodeAll(&decoded);
  EXPECT_EQ(decoded, values);
  EXPECT_EQ(block.zone_min(), values.front());
  EXPECT_EQ(block.zone_max(), values.back());
  EXPECT_LE(block.bits(), 17u);  // deltas < 90'000, not 41-bit absolutes
}

TEST(ColumnBlockTest, SerializeDecodeFixedPoint) {
  for (bool delta : {false, true}) {
    auto values = RandomSorted(300, 500, 1000, delta ? 2 : 3);
    ColumnBlock block = delta ? ColumnBlock::EncodeDelta(values)
                              : ColumnBlock::EncodeFor(values);
    std::string bytes;
    block.SerializeTo(&bytes);
    ColumnBlock back;
    size_t consumed = 0;
    util::Status s = DecodeColumnBlock(
        {reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()}, &back,
        &consumed);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(consumed, bytes.size());
    std::vector<uint64_t> decoded;
    back.DecodeAll(&decoded);
    EXPECT_EQ(decoded, values);
    // Fixed point: re-serializing the decoded block yields the same bytes.
    std::string again;
    back.SerializeTo(&again);
    EXPECT_EQ(again, bytes);
  }
}

TEST(ColumnBlockTest, DecoderRejectsDamageWithStatus) {
  auto values = RandomSorted(64, 10, 50, 5);
  ColumnBlock block = ColumnBlock::EncodeDelta(values);
  std::string bytes;
  block.SerializeTo(&bytes);
  // Truncations at every length must fail cleanly.
  for (size_t len = 0; len < bytes.size(); ++len) {
    ColumnBlock out;
    util::Status s = DecodeColumnBlock(
        {reinterpret_cast<const uint8_t*>(bytes.data()), len}, &out, nullptr);
    EXPECT_FALSE(s.ok()) << "truncation to " << len << " accepted";
  }
  // Single-byte flips must either fail or decode to the identical block
  // (flips in the padding bits of the last word can be unreachable).
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string damaged = bytes;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x40);
    ColumnBlock out;
    util::Status s = DecodeColumnBlock(
        {reinterpret_cast<const uint8_t*>(damaged.data()), damaged.size()},
        &out, nullptr);
    if (s.ok()) {
      std::string round;
      out.SerializeTo(&round);
      EXPECT_EQ(round, damaged) << "byte " << i
                                << ": accepted bytes that do not round-trip";
    }
  }
}

TEST(ZonedColumnTest, AtAcrossBlocks) {
  std::mt19937_64 rng(17);
  std::vector<uint64_t> values(3 * ColumnBlock::kMaxValues + 321);
  for (uint64_t& v : values) v = rng() % 100'000;
  ZonedColumn col = ZonedColumn::BuildFor(values);
  ASSERT_EQ(col.size(), values.size());
  for (size_t i = 0; i < values.size(); i += 7) {
    ASSERT_EQ(col.At(i), values[i]);
  }
  EXPECT_EQ(col.num_blocks(), 4u);
}

TEST(ZonedColumnTest, LowerBoundMatchesStdLowerBound) {
  auto values = RandomSorted(5 * ColumnBlock::kMaxValues + 11, 0, 37, 23);
  ZonedColumn col = ZonedColumn::BuildDelta(values);
  std::mt19937_64 rng(29);
  for (int trial = 0; trial < 500; ++trial) {
    const uint64_t probe = rng() % (values.back() + 100);
    const size_t want = static_cast<size_t>(
        std::lower_bound(values.begin(), values.end(), probe) -
        values.begin());
    ASSERT_EQ(col.LowerBound(probe), want) << "probe=" << probe;
  }
  EXPECT_EQ(col.LowerBound(values.back() + 1), values.size());
  EXPECT_EQ(col.LowerBound(0), 0u);
}

TEST(CompressedCsrTest, MatchesReferenceAdjacency) {
  std::mt19937_64 rng(31);
  const size_t nodes = 300;
  std::vector<EdgeInput> edges;
  for (int i = 0; i < 5000; ++i) {
    edges.push_back({static_cast<uint32_t>(rng() % nodes),
                     static_cast<uint32_t>(rng() % nodes),
                     static_cast<core::DateTime>(1'000'000 + rng() % 99'999)});
  }
  // Reference: sort the same way and bucket per node.
  auto ref_edges = edges;
  std::sort(ref_edges.begin(), ref_edges.end(),
            [](const EdgeInput& a, const EdgeInput& b) {
              if (a.src != b.src) return a.src < b.src;
              if (a.dst != b.dst) return a.dst < b.dst;
              return a.date < b.date;
            });
  CompressedCsr csr;
  csr.Build(nodes, edges, /*with_dates=*/true);
  ASSERT_EQ(csr.num_edges(), ref_edges.size());
  size_t k = 0;
  for (uint32_t n = 0; n < nodes; ++n) {
    for (uint64_t e = csr.EdgeBegin(n); e < csr.EdgeEnd(n); ++e, ++k) {
      ASSERT_EQ(ref_edges[k].src, n);
      ASSERT_EQ(csr.TargetAt(e), ref_edges[k].dst);
      ASSERT_EQ(csr.DateAt(e), ref_edges[k].date);
    }
  }
  EXPECT_EQ(k, ref_edges.size());
  EXPECT_LT(csr.ByteSize(), csr.RawByteSize());
}

TEST(AdjacencyTest, OverflowArenaPreservesAppendOrder) {
  AdjacencyList adj;
  adj.Build(4, {{0, 3, 10}, {0, 1, 11}, {2, 2, 12}}, /*with_dates=*/true);
  adj.Append(0, 9, 100);
  adj.Append(2, 8, 101);
  adj.Append(0, 7, 102);
  adj.AddNodes(1);  // node 4 exists only post-load
  adj.Append(4, 6, 103);
  EXPECT_EQ(adj.num_nodes(), 5u);
  EXPECT_EQ(adj.num_edges(), 7u);
  EXPECT_EQ(adj.Degree(0), 4u);
  EXPECT_EQ(adj.Degree(4), 1u);
  std::vector<std::pair<uint32_t, core::DateTime>> seen;
  adj.ForEachDated(0, [&](uint32_t t, core::DateTime d) {
    seen.push_back({t, d});
  });
  // Base sorted by target, then overflow in append order.
  const std::vector<std::pair<uint32_t, core::DateTime>> want = {
      {1, 11}, {3, 10}, {9, 100}, {7, 102}};
  EXPECT_EQ(seen, want);
  EXPECT_TRUE(adj.Contains(4, 6));
  EXPECT_FALSE(adj.Contains(1, 6));
}

/// Inserts every key of `keys` (duplicates included) into a FlatIdTable
/// and a std::unordered_map reference, with the row the arrival index, and
/// checks that both agree on every insert and afterwards on every key and
/// on `absent`.
void ExpectTableMatchesReference(const std::vector<core::Id>& keys,
                                 const std::vector<core::Id>& absent) {
  FlatIdTable table;
  std::unordered_map<core::Id, uint32_t> ref;
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint32_t row = static_cast<uint32_t>(i);
    const bool fresh = ref.emplace(keys[i], row).second;
    ASSERT_EQ(table.Insert(keys[i], row), fresh) << "key " << keys[i];
    ASSERT_EQ(table.size(), ref.size());
    ASSERT_LE(2 * table.size(), table.capacity());  // load factor ≤ 1/2
  }
  for (const auto& [key, row] : ref) ASSERT_EQ(table.Find(key), row);
  for (core::Id key : absent) {
    if (!ref.contains(key)) {
      EXPECT_EQ(table.Find(key), FlatIdTable::kNoRow);
    }
  }
}

TEST(FlatIdTableTest, EmptyTableFindsNothing) {
  const FlatIdTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_EQ(table.Find(0), FlatIdTable::kNoRow);
  EXPECT_EQ(table.Find(core::kNoId), FlatIdTable::kNoRow);
}

TEST(FlatIdTableTest, SeededRandomSequencesMatchUnorderedMap) {
  for (uint32_t seed = 1; seed <= 5; ++seed) {
    std::mt19937_64 rng(seed);
    // A narrow key range forces duplicates; a full-width one probes the
    // whole 64-bit space.
    std::uniform_int_distribution<core::Id> narrow(-500, 500);
    std::uniform_int_distribution<core::Id> wide(
        std::numeric_limits<core::Id>::min(),
        std::numeric_limits<core::Id>::max());
    std::vector<core::Id> keys, absent;
    for (int i = 0; i < 3000; ++i) {
      keys.push_back(i % 3 == 0 ? wide(rng) : narrow(rng));
      absent.push_back(i % 2 == 0 ? wide(rng) : narrow(rng) + 1000);
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectTableMatchesReference(keys, absent);
  }
}

TEST(FlatIdTableTest, AdversarialKeysMatchUnorderedMap) {
  const core::Id kMin = std::numeric_limits<core::Id>::min();
  const core::Id kMax = std::numeric_limits<core::Id>::max();
  std::vector<core::Id> keys;
  for (core::Id i = 0; i < 5000; ++i) keys.push_back(i);  // dense
  for (int k = 1; k < 62; k += 6) {                         // strides of 2^k
    for (core::Id i = 0; i < 300; ++i) keys.push_back(i << k);
  }
  for (core::Id i = 1; i <= 1000; ++i) keys.push_back(-i);  // negatives
  for (core::Id edge : {core::kNoId, kMin, kMin + 1, kMax, kMax - 1,
                        core::Id{0}}) {
    keys.push_back(edge);
    keys.push_back(edge);  // a duplicate of each is rejected
  }
  ExpectTableMatchesReference(keys, {kMin + 2, kMax - 2, 5000, -1001,
                                     core::Id{1} << 62});
}

TEST(FlatIdTableTest, OneProbeRunResolvesEveryKey) {
  // Keys that all hash to slot 0 at capacity 64: they form one run of
  // linear probes, which also wraps from the last slot to the first.
  FlatIdTable table;
  table.Reserve(32);
  ASSERT_EQ(table.capacity(), 64u);
  std::vector<core::Id> run;
  for (core::Id k = 0; run.size() < 24; ++k) {
    if ((FlatIdTable::Hash(k) & 63) == 0) run.push_back(k);
  }
  std::vector<core::Id> tail;  // home slot 63: wraps into the run
  for (core::Id k = -1; tail.size() < 4; --k) {
    if ((FlatIdTable::Hash(k) & 63) == 63) tail.push_back(k);
  }
  for (size_t i = 0; i < tail.size(); ++i) {
    ASSERT_TRUE(table.Insert(tail[i], static_cast<uint32_t>(100 + i)));
  }
  for (size_t i = 0; i < run.size(); ++i) {
    ASSERT_TRUE(table.Insert(run[i], static_cast<uint32_t>(i)));
    ASSERT_FALSE(table.Insert(run[i], 999));
  }
  ASSERT_EQ(table.capacity(), 64u);  // 28 entries: no rehash yet
  for (size_t i = 0; i < run.size(); ++i) EXPECT_EQ(table.Find(run[i]), i);
  for (size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(table.Find(tail[i]), 100 + i);
  }
  // An absent key homed in the run walks all of it and stops at a gap.
  for (core::Id k = run.back() + 1;; ++k) {
    if ((FlatIdTable::Hash(k) & 63) == 0) {
      EXPECT_EQ(table.Find(k), FlatIdTable::kNoRow);
      break;
    }
  }
}

TEST(FlatIdTableTest, GrowsThroughRehashesAndCopiesEqual) {
  FlatIdTable table;
  size_t rehashes = 0;
  size_t capacity = table.capacity();
  for (uint32_t i = 0; i < 20000; ++i) {
    // Strided, negative-interleaved ids far outside any dense range.
    const core::Id id = (i % 2 == 0 ? 1 : -1) * ((core::Id{1} << 40) + i * 97);
    ASSERT_TRUE(table.Insert(id, i));
    if (table.capacity() != capacity) {
      ++rehashes;
      capacity = table.capacity();
    }
  }
  EXPECT_GE(rehashes, 5u);
  EXPECT_FALSE(table.Insert((core::Id{1} << 40), 7));  // i = 0 again
  const FlatIdTable copy(table);
  EXPECT_EQ(copy, table);
  EXPECT_EQ(copy.size(), 20000u);
  EXPECT_EQ(copy.ByteSize(), table.ByteSize());
  for (uint32_t i = 0; i < 20000; ++i) {
    const core::Id id = (i % 2 == 0 ? 1 : -1) * ((core::Id{1} << 40) + i * 97);
    ASSERT_EQ(copy.Find(id), i);
  }
  // The copy grows on its own; the source is untouched.
  FlatIdTable grown(copy);
  ASSERT_TRUE(grown.Insert(42, 20000));
  EXPECT_EQ(table.Find(42), FlatIdTable::kNoRow);
  EXPECT_FALSE(grown == table);
}

TEST(GraphMemoryTest, CompressedStoreBeatsSeedLayout) {
  datagen::DatagenConfig cfg;
  cfg.num_persons = 300;
  Graph graph(std::move(datagen::Generate(cfg).network));
  const MemoryBreakdown mb = graph.Memory();
  ASSERT_GT(mb.num_edges, 0u);
  ASSERT_GT(mb.num_messages, 0u);
  EXPECT_GT(mb.BytesPerEdge(), 0.0);
  // The headline claim perfbench's storage.bytes_per_edge tracks: packed
  // columns beat the raw arrays. check.sh's scale smoke holds a larger
  // store to a bytes/edge ceiling; here we require a strict win even at a
  // tiny SF.
  EXPECT_LT(mb.BytesPerEdge(), mb.RawBytesPerEdge());
  EXPECT_LT(mb.BytesPerMessage(), mb.RawBytesPerMessage());
  EXPECT_FALSE(mb.ToString().empty());
  // Dictionary holds the shared low-cardinality families.
  EXPECT_GT(graph.Dict().size(), 0u);
  EXPECT_LT(graph.Dict().size(), 2000u);
}

}  // namespace
}  // namespace snb::storage::columnar
