// Fuzz harness: checkpoint image decoding (storage::DecodeGraphImage).
//
// Recovery decodes the newest committed checkpoint image into the graph it
// serves, so the decoder reads whatever bytes the disk returns. Every
// input is decoded twice: as given, which mostly exercises the framing
// (magic, version, section table, CRCs), and with each complete section's
// CRC recomputed, so mutations also reach the payload parsers and the
// structural checks behind the checksum. The resealing walks the framing
// documented in storage/checkpoint_image.h.
//
// Contract: DecodeGraphImage never crashes; it returns a failure Status or
// a graph on which validate::ValidateGraph runs to completion (it may
// report violations: the decoder guarantees the graph is safe to read,
// the validator judges whether it is right). Any ASan/UBSan signal or
// SNB_CHECK is a finding.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "fuzz_io.h"
#include "storage/checkpoint_image.h"
#include "storage/graph.h"
#include "util/crc32c.h"
#include "validate/validator.h"

namespace {

uint64_t GetLe(const std::string& bytes, size_t at, int width) {
  uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[at + i])) << (8 * i);
  }
  return v;
}

/// Recomputes the CRC of every section whose payload lies in the input.
std::string Reseal(std::string bytes) {
  size_t at = snb::storage::kImageHeaderBytes;
  while (at + snb::storage::kImageSectionHeaderBytes <= bytes.size()) {
    const uint64_t len = GetLe(bytes, at + 8, 8);
    const size_t payload = at + snb::storage::kImageSectionHeaderBytes;
    if (len > bytes.size() - payload) break;
    const uint32_t crc = snb::util::Crc32c(bytes.data() + payload, len);
    for (int i = 0; i < 4; ++i) {
      bytes[at + 4 + i] = static_cast<char>(crc >> (8 * i));
    }
    at = payload + len;
  }
  return bytes;
}

void Decode(const std::string& path, const std::string& bytes) {
  if (!snb::fuzz::WriteInput(path, nullptr, 0,
                             reinterpret_cast<const uint8_t*>(bytes.data()),
                             bytes.size())) {
    return;
  }
  std::unique_ptr<snb::storage::Graph> graph;
  if (!snb::storage::DecodeGraphImage(path, &graph).ok()) return;
  (void)snb::validate::ValidateGraph(*graph);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static const std::string path = snb::fuzz::ScratchPath("image");
  const std::string input(reinterpret_cast<const char*>(data), size);
  Decode(path, input);
  const std::string resealed = Reseal(input);
  if (resealed != input) Decode(path, resealed);
  return 0;
}
