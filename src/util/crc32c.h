// CRC-32C (Castagnoli polynomial, the iSCSI/ext4 checksum) — the WAL's
// record checksum and the checkpoint image's section checksum.
// Table-driven software implementation, slicing-by-8: eight 256-entry
// tables fold eight input bytes per step, several times faster than one
// byte at a time on the multi-MiB image sections and identical in value.
// The tables are built at compile time, so there is no init-order
// dependency and no runtime setup.

#ifndef SNB_UTIL_CRC32C_H_
#define SNB_UTIL_CRC32C_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace snb::util {

namespace internal {

/// entries[0] is the classic byte-at-a-time table; entries[k][b] is the
/// CRC contribution of byte b followed by k zero bytes.
struct Crc32cTables {
  uint32_t entries[8][256];
  constexpr Crc32cTables() : entries{} {
    constexpr uint32_t kReflectedPoly = 0x82F63B78u;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kReflectedPoly : 0u);
      }
      entries[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        const uint32_t prev = entries[k - 1][i];
        entries[k][i] = (prev >> 8) ^ entries[0][prev & 0xFFu];
      }
    }
  }
};

inline constexpr Crc32cTables kCrc32cTables{};

}  // namespace internal

/// CRC-32C of `n` bytes. Pass a previous result as `seed` to checksum data
/// arriving in chunks; 0 for a fresh computation.
inline uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0) {
  const auto& t = internal::kCrc32cTables.entries;
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; p += 8, n -= 8) {
      uint64_t v;
      std::memcpy(&v, p, sizeof(v));
      v ^= crc;
      crc = t[7][v & 0xFFu] ^ t[6][(v >> 8) & 0xFFu] ^
            t[5][(v >> 16) & 0xFFu] ^ t[4][(v >> 24) & 0xFFu] ^
            t[3][(v >> 32) & 0xFFu] ^ t[2][(v >> 40) & 0xFFu] ^
            t[1][(v >> 48) & 0xFFu] ^ t[0][v >> 56];
    }
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

}  // namespace snb::util

#endif  // SNB_UTIL_CRC32C_H_
