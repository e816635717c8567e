// LEB128-style unsigned varints, the integer encoding of the .pmt trace
// format (src/trace/format.hpp).
//
// Seven payload bits per byte, low group first, high bit = continuation.
// Event records are dominated by small clock deltas (component gaps and
// increments of 1), which fit one byte — the reason a varint-encoded chunk
// is typically 4-6x smaller than fixed u32 clocks even before chunking.
//
// The decoder is total: it never reads past `end`, rejects encodings longer
// than 10 bytes, and rejects non-canonical zero-padded tails that would
// overflow u64 — so a hostile chunk cannot make it loop or overflow.
#pragma once

#include <cstdint>
#include <vector>

namespace paramount::trace {

inline constexpr std::size_t kMaxVarintBytes = 10;  // ceil(64 / 7)

inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80u);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

// Reads one varint from [*p, end). On success advances *p and returns true;
// on truncation or overflow leaves *p unspecified and returns false.
inline bool get_varint(const std::uint8_t** p, const std::uint8_t* end,
                       std::uint64_t* out) {
  const std::uint8_t* q = *p;
  // One byte, the common case: clock deltas are mostly below 128.
  if (q != end && *q < 0x80u) {
    *out = *q;
    *p = q + 1;
    return true;
  }
  std::uint64_t value = 0;
  unsigned shift = 0;
  while (q != end && shift < 64) {
    const std::uint8_t byte = *q++;
    const std::uint64_t group = byte & 0x7Fu;
    // The 10th byte may only carry the top bit of a u64 (shift 63).
    if (shift == 63 && group > 1) return false;
    value |= group << shift;
    if ((byte & 0x80u) == 0) {
      *p = q;
      *out = value;
      return true;
    }
    shift += 7;
  }
  return false;  // ran off the end or continuation past 10 bytes
}

}  // namespace paramount::trace
