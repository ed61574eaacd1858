// The compaction oracle shared by the write-path tests: Graph::Compact()
// must lay a graph out exactly as a bulk build of its export,
// Graph(ExportNetwork(g), epoch), does. The check is the strongest one the
// store offers: both write byte-identical checkpoint images, report the
// same Memory() per family (so every column is sized alike), carry the same
// epochs, and the compaction passes ValidateGraph.

#ifndef SNB_TESTS_COMPACT_ORACLE_H_
#define SNB_TESTS_COMPACT_ORACLE_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "storage/checkpoint_image.h"
#include "storage/columnar/memory.h"
#include "storage/export.h"
#include "storage/graph.h"
#include "validate/validator.h"

namespace snb::testfixture {

/// The checkpoint image `graph` writes, as bytes. The scratch file is
/// named per process: test binaries share the temp directory under ctest -j.
inline std::string ImageBytes(const storage::Graph& graph,
                              const std::string& name) {
  const std::string path = ::testing::TempDir() + "/snb_compact_oracle_" +
                           std::to_string(::getpid()) + "_" + name + ".img";
  const util::Status st = storage::WriteGraphImage(graph, path);
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  return bytes;
}

/// Expects `g.Compact()` to be the oracle's twin (see the file comment),
/// and returns it. `what` names the graph state in failure messages.
inline std::unique_ptr<storage::Graph> ExpectCompactsLikeRebuild(
    const storage::Graph& g, const std::string& what) {
  SCOPED_TRACE("compaction of the " + what + " graph");
  std::unique_ptr<storage::Graph> compacted = g.Compact();
  const uint32_t epoch = g.CompactionEpoch() + (g.HasTombstones() ? 1 : 0);
  const storage::Graph oracle(storage::ExportNetwork(g), epoch);

  EXPECT_EQ(compacted->CompactionEpoch(), epoch);
  EXPECT_EQ(compacted->TombstoneEpoch(), 0u);
  EXPECT_FALSE(compacted->HasTombstones());

  const std::string got = ImageBytes(*compacted, "compacted");
  const std::string want = ImageBytes(oracle, "oracle");
  size_t first_diff = 0;
  while (first_diff < got.size() && first_diff < want.size() &&
         got[first_diff] == want[first_diff]) {
    ++first_diff;
  }
  EXPECT_TRUE(got == want) << "images differ: " << got.size() << " vs "
                           << want.size() << " bytes, first at byte "
                           << first_diff;

  const storage::columnar::MemoryBreakdown mine = compacted->Memory();
  const storage::columnar::MemoryBreakdown theirs = oracle.Memory();
  EXPECT_EQ(mine.families.size(), theirs.families.size());
  for (size_t i = 0; i < mine.families.size() && i < theirs.families.size();
       ++i) {
    const storage::columnar::MemoryFamily& a = mine.families[i];
    const storage::columnar::MemoryFamily& b = theirs.families[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.bytes, b.bytes) << a.name;
    EXPECT_EQ(a.raw_bytes, b.raw_bytes) << a.name;
    EXPECT_EQ(a.items, b.items) << a.name;
    EXPECT_EQ(a.shared_bytes, b.shared_bytes) << a.name;
  }

  const validate::ValidationReport report = validate::ValidateGraph(*compacted);
  EXPECT_TRUE(report.ok()) << report.ToString();
  return compacted;
}

}  // namespace snb::testfixture

#endif  // SNB_TESTS_COMPACT_ORACLE_H_
