// TraceReader / TraceCursor: mmap-backed zero-copy replay of .pmt traces.
//
// open() maps the file read-only and validates the fixed-size framing up
// front: file header (magic, version, thread count), trailer, and the
// varint footer index (CRC + internal consistency). Chunk payloads are NOT
// touched at open — `info` on a multi-gigabyte trace reads a few pages.
//
// A TraceCursor then decodes events chunk by chunk, verifying each chunk's
// CRC on entry and every clock through the shared ClockValidator
// (poset/clock_validator.hpp) — the same checks paramountd applies to wire
// input. Any defect yields a typed TraceError and pins the cursor in the
// error state; hostile bytes can never abort the process or index out of
// the mapping. cursor_at_chunk(i) seeks in O(1) using the footer's
// per-thread published bases (chunks are self-contained, see format.hpp).
// Events decode into buffers the cursor owns and are copy-assigned into the
// caller's TraceEvent, so a caller that reuses one TraceEvent decodes with
// no allocation once the buffers have grown to the trace's widths.
//
// The raw mmap/munmap calls live here by design: the invariant linter's
// raw-mmap rule keeps them from leaking outside src/trace/.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "poset/clock_validator.hpp"
#include "trace/format.hpp"

namespace paramount::trace {

class TraceReader;

// Forward iteration over the events of a reader, from the start or from a
// chunk boundary. Cheap to copy before use; obtain via TraceReader::cursor().
class TraceCursor {
 public:
  enum class Status : std::uint8_t {
    kOk,     // *out holds the next event
    kEnd,    // clean end of trace
    kError,  // *error holds the defect; subsequent calls repeat it
  };

  // Decodes the next event into *out. On kError the same error is returned
  // on every later call (sticky): a defective trace has no valid suffix,
  // and *out is left as it was.
  Status next(TraceEvent* out, TraceError* error);

  // 0-based sequence number (in file order) of the next event.
  std::uint64_t next_sequence() const { return sequence_; }

 private:
  friend class TraceReader;
  TraceCursor(const TraceReader* reader, std::size_t start_chunk);

  bool begin_chunk(TraceError* error);
  bool decode_event(TraceEvent* out, TraceError* error);
  Status fail(TraceError* error, TraceErrorCode code, std::string message);

  const TraceReader* reader_ = nullptr;
  std::size_t chunk_ = 0;          // chunk the cursor will read next/from
  const std::uint8_t* p_ = nullptr;
  const std::uint8_t* end_ = nullptr;
  std::uint32_t remaining_ = 0;    // undecoded events in the open chunk
  std::uint64_t sequence_ = 0;
  ClockValidator validator_{0};
  std::vector<char> seen_in_chunk_;
  // Decode scratch, reused across events (see the file comment).
  VectorClock clock_;
  std::vector<TraceAccess> accesses_;
  bool failed_ = false;
  TraceError sticky_;
};

class TraceReader {
 public:
  // Footer index entry, decoded and validated at open().
  struct ChunkInfo {
    std::uint64_t offset = 0;       // file offset of the chunk header
    std::uint64_t first_event = 0;  // sequence number of its first event
    std::uint32_t event_count = 0;
    std::vector<EventIndex> published_base;  // per-thread, before the chunk
  };

  TraceReader() = default;
  ~TraceReader();

  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;
  TraceReader(TraceReader&& other) noexcept;
  TraceReader& operator=(TraceReader&& other) noexcept;

  // Maps `path` and validates header, trailer, and footer index. On failure
  // returns false with a typed *error and leaves the reader closed.
  bool open(const std::string& path, TraceError* error);
  void close();

  bool is_open() const { return data_ != nullptr; }
  std::size_t num_threads() const { return num_threads_; }
  std::uint64_t total_events() const { return total_events_; }
  std::size_t num_chunks() const { return chunks_.size(); }
  const ChunkInfo& chunk(std::size_t i) const { return chunks_[i]; }
  std::uint64_t file_size() const { return size_; }

  // Cursor over the whole trace, or starting at chunk `i`'s first event.
  TraceCursor cursor() const { return TraceCursor(this, 0); }
  TraceCursor cursor_at_chunk(std::size_t i) const {
    PM_CHECK(i <= chunks_.size());
    return TraceCursor(this, i);
  }

 private:
  friend class TraceCursor;

  const std::uint8_t* data_ = nullptr;  // mmap base, read-only
  std::size_t size_ = 0;                // mapped length == file size
  std::size_t num_threads_ = 0;
  std::uint64_t total_events_ = 0;
  std::uint64_t index_offset_ = 0;      // chunk region is [24, index_offset_)
  std::vector<ChunkInfo> chunks_;
};

}  // namespace paramount::trace
