// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte spans.
//
// Every chunk payload and the footer index of a .pmt trace file carry a
// CRC so bit rot, truncation mid-payload, and hand-edited files are caught
// before any decoded value is trusted. The reader checks every chunk it
// enters, so the CRC is on the ingest path: one byte per step took 17% of
// profiled ingest time. Slice-by-8 folds eight bytes per step through eight
// derived tables; the polynomial and the values are unchanged, so files stay
// byte-identical. tests/test_trace_format.cpp checks it against a
// bit-at-a-time reference.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace paramount::trace {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// tables[0] is the classic bytewise table; tables[k][b] is tables[0][b]
// carried through k more zero bytes: the contribution of a byte k positions
// before the end of an 8-byte block.
constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

// Little-endian load, independent of the host's byte order.
inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace detail

// One-shot CRC of `len` bytes (chunks and the index are CRCed whole).
inline std::uint32_t crc32(const void* data, std::size_t len) {
  const detail::Crc32Tables& t = detail::kCrc32Tables;
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t lo = c ^ detail::load_le32(p);
    const std::uint32_t hi = detail::load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; --len, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace paramount::trace
