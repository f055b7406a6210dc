// SPDX-License-Identifier: MIT
//
// CRC-32 (IEEE 802.3 polynomial, reflected; Crc32("123456789", 9) ==
// 0xCBF43926). It frames write-ahead journal records, seals deployment
// snapshots and checksums every wire frame header and payload, so a flipped
// or torn byte is detected at load time instead of surfacing as silent
// state corruption after a restart.
//
// Slice-by-8: eight compile-time tables fold eight input bytes per step
// with independent lookups; the tail (< 8 bytes) goes byte by byte through
// table 0. Words are assembled little-endian, so every host agrees.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace scec::recovery {
namespace internal {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  // t[k][i]: the CRC of byte i followed by k zero bytes.
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace internal

inline uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0) {
  const internal::Crc32Tables& t = internal::kCrc32Tables;
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= 8; len -= 8, bytes += 8) {
    const uint32_t lo = internal::LoadLe32(bytes) ^ c;
    const uint32_t hi = internal::LoadLe32(bytes + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; --len, ++bytes) {
    c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace scec::recovery
