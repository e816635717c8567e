// TraceWriter: records an event stream into a .pmt file (see format.hpp).
//
// Events are buffered into chunks (varint+delta-encoded vector clocks, the
// first record of each thread per chunk absolute so chunks stay
// self-contained), each chunk is framed with a CRC32 header, and finish()
// appends the footer index that gives readers O(1) seek and O(1) info.
//
// The writer validates every appended clock through the same ClockValidator
// the readers use — with PM_CHECK, not typed errors: writer inputs come from
// in-process recorders (TraceFileSink, the scenario generators), where a bad
// clock is a programming error, not hostile input. A .pmt produced by this
// class therefore passes the reader's checks by construction; those do not
// include transitive closure (see clock_validator.hpp).
//
// Not thread-safe; wrap with a mutex to record from concurrent threads
// (runtime/trace_file_sink.hpp does exactly that).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "poset/clock_validator.hpp"
#include "trace/format.hpp"

namespace paramount::trace {

class TraceWriter {
 public:
  struct Options {
    // Events per chunk: the seek granularity / failure-isolation unit.
    // Chunks also flush early if the encoded payload reaches 1 MiB.
    std::uint32_t events_per_chunk = 4096;
  };

  TraceWriter() = default;
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  // Creates/truncates `path` and writes the file header. False + *error on
  // I/O failure.
  bool open(const std::string& path, std::size_t num_threads, Options options,
            TraceError* error);

  bool is_open() const { return file_ != nullptr; }
  std::size_t num_threads() const { return validator_.num_threads(); }

  // Appends one event. PM_CHECKs the ClockValidator invariants (see file
  // comment); `accesses` may only be non-empty for kCollection events.
  void append(const TraceEvent& event);
  void append(ThreadId tid, OpKind kind, std::uint32_t object,
              const VectorClock& clock) {
    TraceEvent ev;
    ev.tid = tid;
    ev.kind = kind;
    ev.object = object;
    ev.clock = clock;
    append(ev);
  }

  // Flushes the last chunk, writes the footer, and closes. False + *error if
  // any write (including earlier buffered ones) failed; the file is closed
  // either way. Idempotent once closed.
  bool finish(TraceError* error);

  std::uint64_t events_written() const { return events_written_; }
  std::uint64_t chunks_written() const { return chunk_index_.size(); }
  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  struct ChunkEntry {
    std::uint64_t offset = 0;
    std::uint64_t first_event = 0;
    std::uint32_t event_count = 0;
    std::vector<EventIndex> published_base;  // per-thread, before the chunk
  };

  void flush_chunk();
  void write_bytes(const void* data, std::size_t len);

  std::FILE* file_ = nullptr;
  Options options_;
  ClockValidator validator_{0};
  bool io_error_ = false;

  std::vector<std::uint8_t> payload_;     // encoded records of the open chunk
  std::uint32_t chunk_events_ = 0;
  std::vector<char> seen_in_chunk_;       // per thread: has a record already
  std::vector<EventIndex> chunk_base_;    // published counts at chunk start

  std::vector<ChunkEntry> chunk_index_;
  std::uint64_t events_written_ = 0;
  std::uint64_t bytes_written_ = 0;
};

}  // namespace paramount::trace
