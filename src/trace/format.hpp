// The .pmt on-disk trace format: shared constants, record types, and typed
// errors for TraceWriter (trace_writer.hpp) and TraceReader
// (trace_reader.hpp).
//
// Layout (all integers little-endian; "varint" = trace/varint.hpp):
//
//   ┌────────────────────────────────────────────────────────────┐
//   │ FileHeader (24 B):  u64 magic "PMTRACE1"                   │
//   │                     u32 version   u32 num_threads          │
//   │                     u64 flags (reserved, 0)                │
//   ├────────────────────────────────────────────────────────────┤
//   │ Chunk 0:  ChunkHeader (16 B): u32 magic "PMTC"             │
//   │                               u32 payload_bytes            │
//   │                               u32 event_count              │
//   │                               u32 payload_crc32            │
//   │           payload: event_count × EventRecord               │
//   ├────────────────────────────────────────────────────────────┤
//   │ Chunk 1 … Chunk k-1                                        │
//   ├────────────────────────────────────────────────────────────┤
//   │ Footer index: per chunk                                    │
//   │   varint file_offset      (of the chunk header)            │
//   │   varint first_event_seq  (0-based, in file order)         │
//   │   varint event_count                                       │
//   │   num_threads × varint    (events published per thread     │
//   │                            BEFORE this chunk — the seek    │
//   │                            base for ClockValidator)        │
//   ├────────────────────────────────────────────────────────────┤
//   │ FileTrailer (40 B): u64 total_events                       │
//   │                     u32 num_chunks   u32 index_crc32       │
//   │                     u64 index_offset u64 index_bytes       │
//   │                     u64 magic "PMTFOOT1"                   │
//   └────────────────────────────────────────────────────────────┘
//
// EventRecord (inside a chunk payload):
//
//   varint tid
//   u8     kind   (OpKind, must be <= kCollection)
//   u8     flags  (bit 0 kAbsoluteClock, bit 1 kHasAccesses)
//   varint object
//   varint clock component count, then per component (ascending):
//     varint component gap  (first: component index; later: gap-1 from
//                            the previous component)
//     varint value          (absolute records: the component's value;
//                            delta records: the increment over the
//                            thread's previous event, >= 1)
//   [flags & kHasAccesses] varint access count, then per access:
//     varint var
//     u8     flags (bit 0 is_write, bit 1 is_init)
//
// Chunks are self-contained: the first record of each thread WITHIN a chunk
// is written with an absolute clock, later records of the thread as deltas.
// Together with the footer's published-per-thread base vectors this gives
// O(1) seek to any chunk boundary (TraceReader::cursor_at_chunk) without
// replaying the prefix — the ltsmin archive/stream layering, specialized to
// vector-clock streams.
//
// Readers trust nothing: magic/version up front, every chunk CRCed, every
// varint bounds-checked, every clock re-validated through the shared
// ClockValidator (poset/clock_validator.hpp) — the exact checks paramountd
// applies to wire input. Hostile bytes yield a TraceError, never an abort.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "poset/event.hpp"
#include "poset/vector_clock.hpp"
#include "runtime/access.hpp"

namespace paramount::trace {

inline constexpr std::uint64_t kFileMagic = 0x3145434152544D50ULL;  // "PMTRACE1"
inline constexpr std::uint64_t kFooterMagic = 0x31544F4F46544D50ULL;  // "PMTFOOT1"
inline constexpr std::uint32_t kChunkMagic = 0x43544D50u;  // "PMTC"
inline constexpr std::uint32_t kFormatVersion = 1;

inline constexpr std::size_t kFileHeaderBytes = 24;
inline constexpr std::size_t kChunkHeaderBytes = 16;
inline constexpr std::size_t kFileTrailerBytes = 40;

// Hard ceilings a hostile header cannot talk the reader out of: no
// allocation is ever sized from an unvalidated on-disk count.
inline constexpr std::uint32_t kMaxThreads = 1u << 16;
inline constexpr std::uint32_t kMaxChunkPayload = 1u << 26;  // 64 MiB
inline constexpr std::uint32_t kMaxChunks = 1u << 24;

// Record flag bits.
inline constexpr std::uint8_t kAbsoluteClock = 0x01;
inline constexpr std::uint8_t kHasAccesses = 0x02;
inline constexpr std::uint8_t kKnownRecordFlags = kAbsoluteClock | kHasAccesses;
inline constexpr std::uint8_t kAccessIsWrite = 0x01;
inline constexpr std::uint8_t kAccessIsInit = 0x02;
inline constexpr std::uint8_t kKnownAccessFlags = kAccessIsWrite | kAccessIsInit;

// One replayable event: what a TraceSink sees, plus the raw access list for
// kCollection events (the reader hands them back so a replaying session can
// rebuild its own AccessTable, exactly like the wire path).
struct TraceAccess {
  VarId var = 0;
  bool is_write = false;
  bool is_init = false;

  friend bool operator==(const TraceAccess&, const TraceAccess&) = default;
};

struct TraceEvent {
  ThreadId tid = 0;
  OpKind kind = OpKind::kInternal;
  std::uint32_t object = 0;
  VectorClock clock;
  std::vector<TraceAccess> accesses;  // only meaningful for kCollection
};

enum class TraceErrorCode : std::uint8_t {
  kIoError = 1,       // open/map/stat/write failed (OS error)
  kBadMagic = 2,      // file or chunk magic mismatch
  kBadVersion = 3,    // format version this reader does not speak
  kBadHeader = 4,     // header fields out of range (threads, sizes)
  kTruncated = 5,     // file ends mid-structure
  kBadCrc = 6,        // chunk payload or footer index CRC mismatch
  kBadFooter = 7,     // trailer/index inconsistent with the file
  kBadChunk = 8,      // chunk framing inconsistent (count, bounds, magic)
  kBadEvent = 9,      // undecodable or out-of-range event record
  kBadThread = 10,    // record names a thread >= num_threads
  kClockRegression = 11,  // clock fails the ClockValidator invariants
  kStorageFull = 12,  // a thread's online-poset storage is full
  kClockNotClosed = 13,  // a clock is not transitively closed (found when
                         // a replay builds a Poset, after the cursor)
};

const char* to_string(TraceErrorCode code);

struct TraceError {
  TraceErrorCode code = TraceErrorCode::kIoError;
  std::string message;

  std::string to_string() const;
};

}  // namespace paramount::trace
