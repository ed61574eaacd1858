// The binary checkpoint image (storage/checkpoint_image.h):
//
//   - decode oracle: the image of a fresh, an inserted, a tombstoned and a
//     compacted graph decodes to a graph observationally equal to
//     Graph(ExportNetwork(g)): the same export, the same results for every
//     BI 1–25 and IC 1–14 binding, and a clean ValidateGraph;
//   - corruption: a flipped byte in any section, a truncation at any
//     section boundary, a wrong magic or version and trailing bytes each
//     return kCorruption; payload damage behind a resealed CRC returns a
//     Status too, never a crash;
//   - size: the image is no larger than the CsvBasic dataset of the same
//     graph, which the checkpoint used to hold.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "compact_oracle.h"
#include "datagen/datagen.h"
#include "datagen/delete_stream.h"
#include "datagen/serializer.h"
#include "interactive/interactive.h"
#include "interactive/updates.h"
#include "params/parameter_curation.h"
#include "sched/stream.h"
#include "storage/checkpoint_image.h"
#include "storage/export.h"
#include "storage/graph.h"
#include "storage/test_access.h"
#include "util/check.h"
#include "util/crc32c.h"
#include "validate/validator.h"

namespace snb::storage {
namespace {

namespace fs = std::filesystem;

struct SharedData {
  core::SocialNetwork network;
  std::vector<datagen::UpdateEvent> inserts;
  std::vector<datagen::UpdateEvent> deletes;
};

const SharedData& Fixture() {
  static SharedData* data = [] {
    datagen::DatagenConfig cfg;
    cfg.num_persons = 150;
    cfg.activity_scale = 0.4;
    datagen::GeneratedData gen = datagen::Generate(cfg);
    auto* d = new SharedData();
    d->network = std::move(gen.network);
    const size_t n = std::min<size_t>(gen.updates.size(), 600);
    d->inserts.assign(gen.updates.begin(), gen.updates.begin() + n);
    datagen::DeleteStreamOptions options;
    options.seed = 11;
    d->deletes = datagen::DeriveDeleteStream(d->network, options);
    SNB_CHECK(!d->deletes.empty());
    return d;
  }();
  return *data;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/snb_image_" + name;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void Apply(Graph& g, const std::vector<datagen::UpdateEvent>& events) {
  for (const datagen::UpdateEvent& e : events) {
    SNB_CHECK_OK(interactive::ApplyUpdate(g, e));
  }
}

std::unique_ptr<Graph> RoundTrip(const Graph& g, const std::string& name) {
  const std::string path = TempPath(name);
  SNB_CHECK_OK(WriteGraphImage(g, path));
  std::unique_ptr<Graph> decoded;
  util::Status st = DecodeGraphImage(path, &decoded);
  EXPECT_TRUE(st.ok()) << st.ToString();
  fs::remove(path);
  return decoded;
}

/// The CsvBasic files of `net`, by relative path: exports compare equal
/// exactly when their datasets are byte-identical.
std::vector<std::pair<std::string, std::string>> CsvFiles(
    const core::SocialNetwork& net, const std::string& name) {
  const std::string dir = TempPath("csv_" + name);
  fs::remove_all(dir);
  SNB_CHECK_OK(datagen::WriteCsvBasic(net, dir));
  std::vector<std::pair<std::string, std::string>> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    files.emplace_back(fs::relative(entry.path(), dir).string(),
                       ReadBytes(entry.path().string()));
  }
  std::sort(files.begin(), files.end());
  fs::remove_all(dir);
  return files;
}

/// Row count and fingerprint of every curated binding of BI 1–25.
std::vector<std::pair<size_t, uint64_t>> BiResults(
    const Graph& g, const params::WorkloadParameters& params) {
  std::vector<std::pair<size_t, uint64_t>> out;
  for (int q = 1; q <= 25; ++q) {
    for (size_t b = 0; b < sched::BindingCount(params, q); ++b) {
      const sched::OpOutcome o =
          sched::ExecuteStreamOp(g, params, {q, b}, nullptr);
      out.emplace_back(o.rows, o.fingerprint);
    }
  }
  return out;
}

void ExpectSameIcResults(const Graph& a, const Graph& b,
                         const params::WorkloadParameters& p) {
#define SNB_IC_SAME(N)                                           \
  for (const auto& binding : p.ic##N) {                          \
    EXPECT_TRUE(interactive::RunIc##N(a, binding) ==             \
                interactive::RunIc##N(b, binding))               \
        << "IC " #N;                                             \
  }
  SNB_IC_SAME(1) SNB_IC_SAME(2) SNB_IC_SAME(3) SNB_IC_SAME(4)
  SNB_IC_SAME(5) SNB_IC_SAME(6) SNB_IC_SAME(7) SNB_IC_SAME(8)
  SNB_IC_SAME(9) SNB_IC_SAME(10) SNB_IC_SAME(11) SNB_IC_SAME(12)
  SNB_IC_SAME(13) SNB_IC_SAME(14)
#undef SNB_IC_SAME
}

/// The decode oracle: `g`'s image decodes to a graph observationally equal
/// to the compaction of `g`.
void ExpectDecodesLikeRebuild(const Graph& g, const std::string& name) {
  std::unique_ptr<Graph> decoded = RoundTrip(g, name);
  ASSERT_NE(decoded, nullptr);
  const uint32_t epoch = g.CompactionEpoch() + (g.HasTombstones() ? 1 : 0);
  const Graph rebuilt(ExportNetwork(g), epoch);

  EXPECT_EQ(decoded->CompactionEpoch(), epoch);
  EXPECT_EQ(decoded->TombstoneEpoch(), 0u);
  EXPECT_FALSE(decoded->HasTombstones());
  EXPECT_TRUE(CsvFiles(ExportNetwork(*decoded), name + "_decoded") ==
              CsvFiles(ExportNetwork(rebuilt), name + "_rebuilt"))
      << "export of the decoded graph differs from the rebuild's";

  params::CurationConfig pc;
  pc.per_query = 3;
  const params::WorkloadParameters params =
      params::CurateParameters(rebuilt, pc);
  EXPECT_EQ(BiResults(*decoded, params), BiResults(rebuilt, params));
  ExpectSameIcResults(*decoded, rebuilt, params);

  validate::ValidationReport report = validate::ValidateGraph(*decoded);
  EXPECT_TRUE(report.ok()) << report.ToString();

  // The image came from Graph::Compact(), which must write the rebuild's
  // image byte for byte.
  testfixture::ExpectCompactsLikeRebuild(g, name);
}

TEST(CheckpointImageTest, FreshGraphDecodesLikeItsRebuild) {
  const Graph g{core::SocialNetwork(Fixture().network)};
  ExpectDecodesLikeRebuild(g, "fresh");
}

TEST(CheckpointImageTest, InsertedGraphDecodesLikeItsRebuild) {
  Graph g{core::SocialNetwork(Fixture().network)};
  Apply(g, Fixture().inserts);
  ExpectDecodesLikeRebuild(g, "inserted");
}

TEST(CheckpointImageTest, TombstonedGraphDecodesLikeItsCompaction) {
  Graph g{core::SocialNetwork(Fixture().network)};
  Apply(g, Fixture().inserts);
  Apply(g, Fixture().deletes);
  ASSERT_TRUE(g.HasTombstones());
  ExpectDecodesLikeRebuild(g, "tombstoned");
}

TEST(CheckpointImageTest, CompactedGraphDecodesLikeItsRebuild) {
  Graph tombstoned{core::SocialNetwork(Fixture().network)};
  Apply(tombstoned, Fixture().deletes);
  ExpectDecodesLikeRebuild(*tombstoned.Compact(), "compacted");
}

TEST(CheckpointImageTest, DecodedGraphAcceptsReplayLikeABuiltOne) {
  // Inserts and deletes replayed on a decoded image land as on the graph
  // the image came from.
  const Graph g{core::SocialNetwork(Fixture().network)};
  std::unique_ptr<Graph> decoded = RoundTrip(g, "replay");
  ASSERT_NE(decoded, nullptr);
  Graph built(g);
  for (Graph* target : {decoded.get(), &built}) {
    Apply(*target, Fixture().inserts);
    Apply(*target, Fixture().deletes);
  }
  EXPECT_TRUE(CsvFiles(ExportNetwork(*decoded), "replay_decoded") ==
              CsvFiles(ExportNetwork(built), "replay_built"));
  validate::ValidationReport report = validate::ValidateGraph(*decoded);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(CheckpointImageTest, ImageIsNoLargerThanTheCsvDataset) {
  const Graph g{core::SocialNetwork(Fixture().network)};
  const std::string path = TempPath("size");
  ASSERT_TRUE(WriteGraphImage(g, path).ok());
  const uintmax_t image = fs::file_size(path);
  fs::remove(path);
  uintmax_t csv = 0;
  for (const auto& [name, bytes] : CsvFiles(ExportNetwork(g), "size")) {
    csv += bytes.size();
  }
  EXPECT_LE(image, csv);
}

// ---------------------------------------------------------------------------
// Corruption
// ---------------------------------------------------------------------------

/// A valid image of the fixture graph and the offset of every section
/// header within it (the last entry is the file size).
struct Image {
  std::string bytes;
  std::vector<size_t> sections;
};

const Image& ValidImage() {
  static Image* image = [] {
    const Graph g{core::SocialNetwork(Fixture().network)};
    const std::string path = TempPath("valid");
    SNB_CHECK_OK(WriteGraphImage(g, path));
    auto* im = new Image{ReadBytes(path), {}};
    fs::remove(path);
    size_t at = kImageHeaderBytes;
    while (at < im->bytes.size()) {
      im->sections.push_back(at);
      uint64_t len = 0;
      std::memcpy(&len, im->bytes.data() + at + 8, sizeof(len));
      at += kImageSectionHeaderBytes + len;
    }
    SNB_CHECK_EQ(at, im->bytes.size());
    im->sections.push_back(at);
    return im;
  }();
  return *image;
}

util::Status DecodeBytes(const std::string& bytes, const std::string& name,
                         std::unique_ptr<Graph>* out) {
  const std::string path = TempPath(name);
  WriteBytes(path, bytes);
  util::Status st = DecodeGraphImage(path, out);
  fs::remove(path);
  return st;
}

void ExpectCorruption(const std::string& bytes, const std::string& what) {
  std::unique_ptr<Graph> out;
  util::Status st = DecodeBytes(bytes, "corrupt", &out);
  EXPECT_TRUE(st.IsCorruption()) << what << ": " << st.ToString();
  EXPECT_EQ(out, nullptr) << what;
}

TEST(CheckpointImageTest, ValidImageHasEverySection) {
  const Image& im = ValidImage();
  std::unique_ptr<Graph> out;
  ASSERT_TRUE(DecodeBytes(im.bytes, "valid_copy", &out).ok());
  uint32_t count = 0;
  std::memcpy(&count, im.bytes.data() + 12, sizeof(count));
  EXPECT_EQ(im.sections.size() - 1, count);
}

TEST(CheckpointImageTest, FlippedByteInAnySectionIsCorruption) {
  const Image& im = ValidImage();
  for (size_t s = 0; s + 1 < im.sections.size(); ++s) {
    const size_t begin = im.sections[s], end = im.sections[s + 1];
    // The header's kind and CRC, then the payload's first, middle and
    // last byte.
    for (size_t at : {begin, begin + 4, begin + kImageSectionHeaderBytes,
                      (begin + kImageSectionHeaderBytes + end) / 2, end - 1}) {
      if (at >= end) continue;
      std::string bytes = im.bytes;
      bytes[at] ^= 0x5a;
      ExpectCorruption(bytes, "section " + std::to_string(s) + " byte " +
                                  std::to_string(at - begin));
    }
  }
}

TEST(CheckpointImageTest, TruncationAtAnySectionBoundaryIsCorruption) {
  const Image& im = ValidImage();
  for (size_t s = 0; s + 1 < im.sections.size(); ++s) {
    ExpectCorruption(im.bytes.substr(0, im.sections[s]),
                     "cut before section " + std::to_string(s));
    // Mid-header and mid-payload too.
    ExpectCorruption(im.bytes.substr(0, im.sections[s] + 5),
                     "cut in header " + std::to_string(s));
    ExpectCorruption(
        im.bytes.substr(0, (im.sections[s] + im.sections[s + 1]) / 2 + 1),
        "cut in payload " + std::to_string(s));
  }
  ExpectCorruption(im.bytes.substr(0, 3), "cut in the file header");
  ExpectCorruption("", "empty file");
}

TEST(CheckpointImageTest, WrongMagicVersionOrTrailingBytesIsCorruption) {
  const Image& im = ValidImage();
  std::string bytes = im.bytes;
  bytes[8] = static_cast<char>(kImageVersion + 1);
  ExpectCorruption(bytes, "version");
  bytes = im.bytes;
  bytes[0] = 'X';
  ExpectCorruption(bytes, "magic");
  bytes = im.bytes;
  bytes[12] ^= 1;
  ExpectCorruption(bytes, "section count");
  ExpectCorruption(im.bytes + '\0', "trailing byte");
}

TEST(CheckpointImageTest, MissingFileIsIoError) {
  std::unique_ptr<Graph> out;
  util::Status st = DecodeGraphImage(TempPath("does_not_exist"), &out);
  EXPECT_EQ(st.code(), util::StatusCode::kIoError) << st.ToString();
}

TEST(CheckpointImageTest, StructuralDamageBehindValidCrcsIsCorruption) {
  // The writer writes a frozen graph as it is, so a graph damaged through
  // TestAccess yields an image whose CRCs all hold: only the decoder's
  // structural checks stand between the damage and the store.
  struct Damage {
    const char* what;
    const char* reported;
    void (*apply)(Graph&);
  };
  const Damage damages[] = {
      {"post creator out of range", "post column out of range",
       [](Graph& g) {
         TestAccess::PostCreator(g)[0] = static_cast<uint32_t>(g.NumPersons());
       }},
      {"gender code past the dictionary", "person column out of range",
       [](Graph& g) {
         TestAccess::PersonGenderCode(g)[0] =
             static_cast<uint32_t>(g.Dict().size());
       }},
      {"reply to a later comment (a reply cycle)", "replies to no message",
       [](Graph& g) {
         TestAccess::CommentReplyOf(g)[0] = Graph::MessageOfComment(1);
       }},
      {"index ref past the comments", "invalid message reference",
       [](Graph& g) {
         TestAccess::BaseRefs(TestAccess::MessageIndex(g))[0] =
             Graph::MessageOfComment(static_cast<uint32_t>(g.NumComments()));
       }},
      {"repeated person id", "duplicate entity id",
       [](Graph& g) {
         TestAccess::PersonId(g)[1] = TestAccess::PersonId(g)[0];
       }},
  };
  const Graph base{core::SocialNetwork(Fixture().network)};
  ASSERT_GE(base.NumComments(), 2u);
  for (const Damage& d : damages) {
    Graph g(base);
    d.apply(g);
    const std::string path = TempPath("damaged");
    ASSERT_TRUE(WriteGraphImage(g, path).ok()) << d.what;
    std::unique_ptr<Graph> out;
    util::Status st = DecodeGraphImage(path, &out);
    fs::remove(path);
    EXPECT_TRUE(st.IsCorruption()) << d.what << ": " << st.ToString();
    EXPECT_NE(st.message().find(d.reported), std::string::npos)
        << d.what << ": " << st.ToString();
  }
}

TEST(CheckpointImageTest, ResealedPayloadDamageNeverCrashes) {
  // Flip payload bytes and recompute the section CRC, so the damage
  // reaches the structural checks behind the checksum. Every outcome must
  // be a Status; an accepted graph must be safe to validate.
  const Image& im = ValidImage();
  uint64_t x = 0x2545F4914F6CDD1Dull;
  size_t rejected = 0, total = 0;
  for (size_t s = 0; s + 1 < im.sections.size(); ++s) {
    const size_t payload = im.sections[s] + kImageSectionHeaderBytes;
    const size_t len = im.sections[s + 1] - payload;
    if (len == 0) continue;
    for (int trial = 0; trial < 6; ++trial) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::string bytes = im.bytes;
      bytes[payload + x % len] ^= static_cast<char>(1 + (x >> 40) % 255);
      const uint32_t crc = util::Crc32c(bytes.data() + payload, len);
      std::memcpy(bytes.data() + im.sections[s] + 4, &crc, sizeof(crc));
      std::unique_ptr<Graph> out;
      util::Status st = DecodeBytes(bytes, "resealed", &out);
      ++total;
      if (!st.ok()) {
        EXPECT_TRUE(st.IsCorruption()) << st.ToString();
        ++rejected;
        continue;
      }
      (void)validate::ValidateGraph(*out);
    }
  }
  // Most single-byte damage breaks a length, an offset or a reference.
  EXPECT_GT(rejected, total / 4);
}

}  // namespace
}  // namespace snb::storage
