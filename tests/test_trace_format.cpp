// The .pmt trace format: round-trips, hostile files, and the replay oracle.
//
// Three layers of guarantees, mirroring the format's contract
// (src/trace/format.hpp):
//   1. Fidelity — what TraceWriter writes, TraceReader returns bit-exactly,
//      including access lists, across every scenario shape and across chunk
//      boundaries; the footer index seeks to the same events a sequential
//      scan reaches.
//   2. Robustness — a hostile file (every truncation point, surgically
//      corrupted fields, hand-assembled malformed records, random garbage,
//      random mutations) yields the documented typed TraceError. Never an
//      abort: these tests run the decoder in-process under the sanitizer
//      build, where any overread or crash fails the suite.
//   3. Oracle — replaying a trace through the offline, streaming, and
//      online drivers and through an in-process paramountd yields state
//      counts bit-identical to enumerating the same events directly from
//      memory, for every scenario and for a traced-program recording.
// .pmt is also the one file format for posets: write_poset_trace and
// replay_to_poset round-trip them (the PosetIo suite).
#include "trace/format.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/paramount.hpp"
#include "poset/lattice.hpp"
#include "poset/poset_builder.hpp"
#include "runtime/recording_sink.hpp"
#include "runtime/trace_file_sink.hpp"
#include "runtime/tracer.hpp"
#include "service/epoll_server.hpp"
#include "service/frame.hpp"
#include "test_helpers.hpp"
#include "trace/crc32.hpp"
#include "trace/replay.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"
#include "trace/varint.hpp"
#include "util/rng.hpp"
#include "workloads/scenarios/scenarios.hpp"
#include "workloads/traced_programs.hpp"

namespace paramount::trace {
namespace {

std::string unique_path(const std::string& tag) {
  static std::atomic<int> counter{0};
  return "/tmp/pm_trace_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + "_" + tag + ".pmt";
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<std::uint8_t> bytes;
  if (f != nullptr) {
    std::uint8_t buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.insert(bytes.end(), buf, buf + n);
    }
    std::fclose(f);
  }
  return bytes;
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  if (!b.empty()) {
    ASSERT_EQ(std::fwrite(b.data(), 1, b.size(), f), b.size());
  }
  std::fclose(f);
}

// Temp file that cleans up after itself.
class TempTrace {
 public:
  explicit TempTrace(const std::string& tag) : path_(unique_path(tag)) {}
  ~TempTrace() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<TraceEvent> scenario_events(const std::string& name,
                                        const ScenarioParams& params) {
  std::unique_ptr<ScenarioStream> scenario = make_scenario(name, params);
  EXPECT_NE(scenario, nullptr) << name;
  std::vector<TraceEvent> events;
  TraceEvent event;
  while (scenario != nullptr && scenario->next(&event)) {
    events.push_back(event);
  }
  return events;
}

void write_trace(const std::string& path, std::size_t num_threads,
                 const std::vector<TraceEvent>& events,
                 std::uint32_t events_per_chunk = 4096) {
  TraceWriter writer;
  TraceWriter::Options options;
  options.events_per_chunk = events_per_chunk;
  TraceError error;
  ASSERT_TRUE(writer.open(path, num_threads, options, &error))
      << error.to_string();
  for (const TraceEvent& event : events) writer.append(event);
  ASSERT_TRUE(writer.finish(&error)) << error.to_string();
}

// Ground truth: enumerate the events straight from memory, no file involved.
std::uint64_t direct_states(std::size_t num_threads,
                            const std::vector<TraceEvent>& events) {
  PosetBuilder builder(num_threads);
  for (const TraceEvent& event : events) {
    builder.add_event_with_clock(event.tid, event.kind, event.object,
                                 event.clock);
  }
  const Poset poset = std::move(builder).build();
  ParamountOptions options;
  options.num_workers = 2;
  return enumerate_paramount(poset, options, [](const Frontier&) {}).states;
}

// Scans the whole trace; returns the terminal status and count via *error.
TraceCursor::Status scan_all(const TraceReader& reader, std::uint64_t* count,
                             TraceError* error) {
  TraceCursor cursor = reader.cursor();
  TraceEvent event;
  *count = 0;
  for (;;) {
    const TraceCursor::Status status = cursor.next(&event, error);
    if (status != TraceCursor::Status::kOk) return status;
    ++*count;
  }
}

// ---- fidelity ----

class RoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTrip, AllEventsIdentical) {
  ScenarioParams params;
  params.num_threads = 5;
  params.num_events = 1000;
  params.seed = 7;
  const std::vector<TraceEvent> original =
      scenario_events(GetParam(), params);
  ASSERT_EQ(original.size(), params.num_events);

  TempTrace file(GetParam());
  // Small chunks: the round-trip must survive many absolute/delta resets.
  write_trace(file.path(), params.num_threads, original, 128);

  TraceReader reader;
  TraceError error;
  ASSERT_TRUE(reader.open(file.path(), &error)) << error.to_string();
  EXPECT_EQ(reader.num_threads(), params.num_threads);
  EXPECT_EQ(reader.total_events(), original.size());
  EXPECT_GT(reader.num_chunks(), 1u);

  TraceCursor cursor = reader.cursor();
  TraceEvent event;
  for (std::size_t i = 0; i < original.size(); ++i) {
    ASSERT_EQ(cursor.next(&event, &error), TraceCursor::Status::kOk)
        << error.to_string();
    EXPECT_EQ(event.tid, original[i].tid) << "event " << i;
    EXPECT_EQ(event.kind, original[i].kind) << "event " << i;
    EXPECT_EQ(event.object, original[i].object) << "event " << i;
    EXPECT_EQ(event.clock, original[i].clock) << "event " << i;
    EXPECT_EQ(event.accesses, original[i].accesses) << "event " << i;
  }
  EXPECT_EQ(cursor.next(&event, &error), TraceCursor::Status::kEnd);
}

INSTANTIATE_TEST_SUITE_P(Scenarios, RoundTrip,
                         ::testing::Values("lock-convoy", "barrier-phase",
                                           "fanin-queue", "fork-join",
                                           "hot-var"));

// A wide variant is a base name plus exactly one width suffix, and the
// suffix sets the thread count; any other name makes no scenario.
TEST(Scenarios, WideVariantRegistry) {
  EXPECT_EQ(wide_scenario_names().size(), 3 * scenario_names().size());
  ScenarioParams params;
  params.num_events = 10;
  for (const std::string& name : wide_scenario_names()) {
    auto scenario = make_scenario(name, params);
    ASSERT_NE(scenario, nullptr) << name;
    const auto dash = name.find_last_of('-');
    EXPECT_EQ(scenario->num_threads(),
              static_cast<std::size_t>(std::stoul(name.substr(dash + 1))))
        << name;
  }
  for (const char* name :
       {"lock-convoy-999", "lock-convoy-64-128", "hot-var-256-64-64"}) {
    EXPECT_EQ(make_scenario(name, params), nullptr) << name;
  }
}

TEST(TraceSeek, FooterIndexMatchesSequentialScan) {
  ScenarioParams params;
  params.num_threads = 4;
  params.num_events = 1000;
  params.seed = 3;
  const std::vector<TraceEvent> original =
      scenario_events("lock-convoy", params);
  TempTrace file("seek");
  write_trace(file.path(), params.num_threads, original, 64);

  TraceReader reader;
  TraceError error;
  ASSERT_TRUE(reader.open(file.path(), &error)) << error.to_string();
  ASSERT_GT(reader.num_chunks(), 4u);

  for (std::size_t c = 0; c <= reader.num_chunks(); ++c) {
    TraceCursor cursor = reader.cursor_at_chunk(c);
    const std::uint64_t first =
        c < reader.num_chunks() ? reader.chunk(c).first_event
                                : reader.total_events();
    EXPECT_EQ(cursor.next_sequence(), first);
    TraceEvent event;
    for (std::uint64_t i = first; i < original.size(); ++i) {
      ASSERT_EQ(cursor.next(&event, &error), TraceCursor::Status::kOk)
          << "chunk " << c << ": " << error.to_string();
      ASSERT_EQ(event.clock, original[i].clock)
          << "chunk " << c << ", event " << i;
    }
    EXPECT_EQ(cursor.next(&event, &error), TraceCursor::Status::kEnd);
  }
}

// A chain over `width` threads in which each thread emits two events in a
// row: every event's clock covers every earlier event. With a chunk size
// that does not divide 2, some pairs straddle a chunk boundary, so the
// trace mixes absolute records (each thread's first in a chunk) with delta
// records (its second).
std::vector<TraceEvent> paired_chain(std::size_t width, std::size_t count) {
  std::vector<TraceEvent> events;
  VectorClock clock(width);
  for (std::size_t i = 0; i < count; ++i) {
    TraceEvent event;
    event.tid = static_cast<ThreadId>((i / 2) % width);
    event.kind = OpKind::kInternal;
    event.object = static_cast<std::uint32_t>(i);
    clock[event.tid] += 1;
    event.clock = clock;
    events.push_back(std::move(event));
  }
  return events;
}

TEST(TraceCursorReuse, AbsoluteAndDeltaRecordsAcrossChunksAtEveryWidth) {
  // 16 is the last clock width that fits VectorClock's inline storage, 17
  // the first that spills, 64 the convoy benchmark's.
  for (const std::size_t width : {1u, 16u, 17u, 64u}) {
    const std::vector<TraceEvent> original = paired_chain(width, 4 * width + 9);
    TempTrace file("chain" + std::to_string(width));
    write_trace(file.path(), width, original, 5);

    TraceReader reader;
    TraceError error;
    ASSERT_TRUE(reader.open(file.path(), &error)) << error.to_string();
    ASSERT_GT(reader.num_chunks(), 1u);
    TraceCursor cursor = reader.cursor();
    TraceEvent event;  // one event reused for the whole scan
    for (std::size_t i = 0; i < original.size(); ++i) {
      ASSERT_EQ(cursor.next(&event, &error), TraceCursor::Status::kOk)
          << "width " << width << ", event " << i << ": "
          << error.to_string();
      EXPECT_EQ(event.tid, original[i].tid) << "width " << width;
      EXPECT_EQ(event.object, original[i].object) << "width " << width;
      ASSERT_EQ(event.clock, original[i].clock)
          << "width " << width << ", event " << i;
    }
    EXPECT_EQ(cursor.next(&event, &error), TraceCursor::Status::kEnd);
  }
}

TEST(TraceCursorReuse, EventWithoutAccessesClearsTheReusedList) {
  std::vector<TraceEvent> events(3);
  events[0].tid = 0;
  events[0].kind = OpKind::kCollection;
  events[0].clock = VectorClock{1, 0};
  events[0].accesses = {{7, true, false}, {9, false, false}};
  events[1].tid = 1;
  events[1].kind = OpKind::kAcquire;
  events[1].object = 4;
  events[1].clock = VectorClock{1, 1};
  events[2].tid = 0;
  events[2].kind = OpKind::kCollection;
  events[2].object = 1;
  events[2].clock = VectorClock{2, 1};
  events[2].accesses = {{3, false, true}};
  TempTrace file("reuse");
  write_trace(file.path(), 2, events);

  TraceReader reader;
  TraceError error;
  ASSERT_TRUE(reader.open(file.path(), &error)) << error.to_string();
  TraceCursor cursor = reader.cursor();
  TraceEvent event;
  for (const TraceEvent& expected : events) {
    ASSERT_EQ(cursor.next(&event, &error), TraceCursor::Status::kOk)
        << error.to_string();
    EXPECT_EQ(event.kind, expected.kind);
    EXPECT_EQ(event.clock, expected.clock);
    EXPECT_EQ(event.accesses, expected.accesses);
  }
  EXPECT_EQ(cursor.next(&event, &error), TraceCursor::Status::kEnd);
}

// Bit-at-a-time CRC-32 with no tables: the reference the slice-by-8
// implementation must reproduce byte for byte.
std::uint32_t crc32_bitwise(const std::uint8_t* p, std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(TraceCrc32, CheckValue) {
  // The standard CRC-32/ISO-HDLC check value.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
}

TEST(TraceCrc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  Rng rng(0x5eed);
  std::vector<std::uint8_t> bytes(1024 + 8);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const std::uint8_t* p = bytes.data() + offset;
      ASSERT_EQ(crc32(p, len), crc32_bitwise(p, len))
          << "offset " << offset << ", length " << len;
    }
  }
}

// ---- robustness ----

TEST(TraceHostile, EveryTruncationPointRejected) {
  ScenarioParams params;
  params.num_threads = 3;
  params.num_events = 200;
  params.seed = 11;
  TempTrace full("trunc_src");
  write_trace(full.path(), params.num_threads,
              scenario_events("hot-var", params), 64);
  const std::vector<std::uint8_t> bytes = read_file(full.path());
  ASSERT_GT(bytes.size(), 64u);

  TempTrace cut("trunc");
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    write_file(cut.path(),
               std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + len));
    TraceReader reader;
    TraceError error;
    if (!reader.open(cut.path(), &error)) {
      EXPECT_NE(error.message, "") << "len " << len;
      continue;
    }
    // Open can only succeed if the trailer survived, which a strict prefix
    // never preserves.
    ADD_FAILURE() << "truncated to " << len << " of " << bytes.size()
                  << " bytes but open() accepted it";
  }
}

// Builds format-valid framing (header, one chunk, footer index, trailer)
// around an arbitrary — possibly malformed — chunk payload, so each test
// below exercises exactly one decoder check.
class FileBuilder {
 public:
  explicit FileBuilder(std::uint32_t num_threads)
      : num_threads_(num_threads) {}

  std::vector<std::uint8_t> build(const std::vector<std::uint8_t>& payload,
                                  std::uint32_t event_count) const {
    std::vector<std::uint8_t> out;
    put_u64(out, kFileMagic);
    put_u32(out, kFormatVersion);
    put_u32(out, num_threads_);
    put_u64(out, 0);  // reserved flags

    const std::uint64_t chunk_offset = out.size();
    put_u32(out, kChunkMagic);
    put_u32(out, static_cast<std::uint32_t>(payload.size()));
    put_u32(out, event_count);
    put_u32(out, crc32(payload.data(), payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());

    std::vector<std::uint8_t> index;
    put_varint(index, chunk_offset);
    put_varint(index, 0);  // first_event
    put_varint(index, event_count);
    for (std::uint32_t t = 0; t < num_threads_; ++t) put_varint(index, 0);

    const std::uint64_t index_offset = out.size();
    out.insert(out.end(), index.begin(), index.end());
    put_u64(out, event_count);  // total_events
    put_u32(out, 1);            // num_chunks
    put_u32(out, crc32(index.data(), index.size()));
    put_u64(out, index_offset);
    put_u64(out, index.size());
    put_u64(out, kFooterMagic);
    return out;
  }

 private:
  static void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xFF);
  }
  static void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xFF);
  }

  std::uint32_t num_threads_;
};

// One event record; `comps` are raw (gap, value) pairs exactly as encoded.
void put_record(std::vector<std::uint8_t>& p, std::uint32_t tid,
                std::uint8_t kind, std::uint8_t flags, std::uint32_t object,
                const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                    comps) {
  put_varint(p, tid);
  p.push_back(kind);
  p.push_back(flags);
  put_varint(p, object);
  put_varint(p, comps.size());
  for (const auto& [gap, value] : comps) {
    put_varint(p, gap);
    put_varint(p, value);
  }
}

// Writes `bytes` to a temp file and asserts both the open-or-scan failure
// and the exact error code.
void expect_rejected(const std::vector<std::uint8_t>& bytes,
                     TraceErrorCode code, const std::string& tag) {
  TempTrace file(tag);
  write_file(file.path(), bytes);
  TraceReader reader;
  TraceError error;
  if (!reader.open(file.path(), &error)) {
    EXPECT_EQ(error.code, code) << tag << ": " << error.to_string();
    return;
  }
  std::uint64_t count = 0;
  const TraceCursor::Status status = scan_all(reader, &count, &error);
  ASSERT_EQ(status, TraceCursor::Status::kError)
      << tag << " decoded cleanly (" << count << " events)";
  EXPECT_EQ(error.code, code) << tag << ": " << error.to_string();
}

std::vector<std::uint8_t> valid_two_thread_file() {
  // tid1 publishes {0,1}, then tid0 joins it with {1,1}.
  std::vector<std::uint8_t> payload;
  put_record(payload, 1, 0, kAbsoluteClock, 0, {{1, 1}});
  put_record(payload, 0, 0, kAbsoluteClock, 0, {{0, 1}, {0, 1}});
  return FileBuilder(2).build(payload, 2);
}

TEST(TraceHostile, HandAssembledBaselineDecodes) {
  // Sanity-check the builder itself: the baseline must decode cleanly, so
  // every expect_rejected below fails on its injected defect, not on the
  // framing.
  TempTrace file("baseline");
  write_file(file.path(), valid_two_thread_file());
  TraceReader reader;
  TraceError error;
  ASSERT_TRUE(reader.open(file.path(), &error)) << error.to_string();
  std::uint64_t count = 0;
  EXPECT_EQ(scan_all(reader, &count, &error), TraceCursor::Status::kEnd)
      << error.to_string();
  EXPECT_EQ(count, 2u);
}

TEST(TraceHostile, CorruptedFields) {
  const std::vector<std::uint8_t> good = valid_two_thread_file();

  auto mutate = [&](std::size_t offset, std::uint8_t value) {
    std::vector<std::uint8_t> bytes = good;
    bytes[offset] = value;
    return bytes;
  };

  expect_rejected(mutate(0, 'X'), TraceErrorCode::kBadMagic, "file_magic");
  expect_rejected(mutate(8, 99), TraceErrorCode::kBadVersion, "version");
  // num_threads = 0 (u32 at offset 12).
  {
    std::vector<std::uint8_t> bytes = good;
    for (int i = 0; i < 4; ++i) bytes[12 + i] = 0;
    expect_rejected(bytes, TraceErrorCode::kBadHeader, "zero_threads");
  }
  expect_rejected(mutate(16, 1), TraceErrorCode::kBadHeader,
                  "reserved_flags");
  // Chunk magic (offset 24) and a payload byte (CRC-covered).
  expect_rejected(mutate(24, 'X'), TraceErrorCode::kBadMagic, "chunk_magic");
  expect_rejected(
      mutate(kFileHeaderBytes + kChunkHeaderBytes + 2, 0x7F),
      TraceErrorCode::kBadCrc, "payload_byte");
  expect_rejected(mutate(good.size() - 1, 'X'), TraceErrorCode::kBadFooter,
                  "footer_magic");
  // A byte inside the footer index breaks the index CRC.
  expect_rejected(mutate(good.size() - kFileTrailerBytes - 1, 0x7F),
                  TraceErrorCode::kBadCrc, "index_byte");
}

TEST(TraceHostile, MalformedRecords) {
  struct Case {
    const char* tag;
    TraceErrorCode code;
    std::vector<std::uint8_t> payload;
    std::uint32_t events;
  };
  std::vector<Case> cases;

  {
    Case c{"tid_out_of_range", TraceErrorCode::kBadThread, {}, 1};
    put_record(c.payload, 5, 0, kAbsoluteClock, 0, {{0, 1}});
    cases.push_back(std::move(c));
  }
  {
    // Valid {0,1}/{1,1} prelude, then tid0 drops the component it already
    // observed from tid1: {2,0} regresses against {1,1}.
    Case c{"clock_regression", TraceErrorCode::kClockRegression, {}, 3};
    put_record(c.payload, 1, 0, kAbsoluteClock, 0, {{1, 1}});
    put_record(c.payload, 0, 0, kAbsoluteClock, 0, {{0, 1}, {0, 1}});
    put_record(c.payload, 0, 0, kAbsoluteClock, 0, {{0, 2}});
    cases.push_back(std::move(c));
  }
  {
    // tid0's first event claims to have seen tid1's first — which is not
    // published yet.
    Case c{"unpublished_reference", TraceErrorCode::kBadEvent, {}, 1};
    put_record(c.payload, 0, 0, kAbsoluteClock, 0, {{0, 1}, {0, 1}});
    cases.push_back(std::move(c));
  }
  {
    Case c{"zero_delta_increment", TraceErrorCode::kBadEvent, {}, 2};
    put_record(c.payload, 0, 0, kAbsoluteClock, 0, {{0, 1}});
    put_record(c.payload, 0, 0, 0, 0, {{0, 0}});
    cases.push_back(std::move(c));
  }
  {
    // A delta record with no in-chunk absolute base for its thread.
    Case c{"delta_without_base", TraceErrorCode::kBadEvent, {}, 1};
    put_record(c.payload, 0, 0, 0, 0, {{0, 1}});
    cases.push_back(std::move(c));
  }
  {
    Case c{"unknown_record_flags", TraceErrorCode::kBadEvent, {}, 1};
    put_record(c.payload, 0, 0, 0x80 | kAbsoluteClock, 0, {{0, 1}});
    cases.push_back(std::move(c));
  }
  {
    Case c{"kind_out_of_range", TraceErrorCode::kBadEvent, {}, 1};
    put_record(c.payload, 0, 200, kAbsoluteClock, 0, {{0, 1}});
    cases.push_back(std::move(c));
  }
  {
    Case c{"accesses_on_internal_event", TraceErrorCode::kBadEvent, {}, 1};
    put_record(c.payload, 0, 0, kAbsoluteClock | kHasAccesses, 0, {{0, 1}});
    put_varint(c.payload, 1);  // one access
    put_varint(c.payload, 0);
    c.payload.push_back(kAccessIsWrite);
    cases.push_back(std::move(c));
  }
  {
    // Component index beyond the clock width.
    Case c{"component_out_of_range", TraceErrorCode::kBadEvent, {}, 1};
    put_record(c.payload, 0, 0, kAbsoluteClock, 0, {{7, 1}});
    cases.push_back(std::move(c));
  }
  {
    // More components than threads.
    Case c{"too_many_components", TraceErrorCode::kBadEvent, {}, 1};
    put_record(c.payload, 0, 0, kAbsoluteClock, 0,
               {{0, 1}, {0, 1}, {0, 1}});
    cases.push_back(std::move(c));
  }
  {
    Case c{"trailing_chunk_bytes", TraceErrorCode::kBadChunk, {}, 1};
    put_record(c.payload, 0, 0, kAbsoluteClock, 0, {{0, 1}});
    c.payload.push_back(0x00);
    cases.push_back(std::move(c));
  }
  {
    // Record cut off mid-varint at the end of the payload.
    Case c{"record_cut_mid_varint", TraceErrorCode::kBadEvent, {}, 1};
    c.payload.push_back(0x80);
    cases.push_back(std::move(c));
  }
  {
    // A count no payload of this size can hold: open() must refuse it
    // before a replay reserves room for 2^32 - 1 events.
    Case c{"count_beyond_payload", TraceErrorCode::kBadChunk, {},
           0xFFFFFFFFu};
    put_record(c.payload, 0, 0, kAbsoluteClock, 0, {{0, 1}});
    cases.push_back(std::move(c));
  }

  for (const Case& c : cases) {
    expect_rejected(FileBuilder(2).build(c.payload, c.events), c.code, c.tag);
  }
}

TEST(TraceHostile, MutationFuzzNeverAborts) {
  ScenarioParams params;
  params.num_threads = 4;
  params.num_events = 300;
  params.seed = 13;
  TempTrace src("fuzz_src");
  write_trace(src.path(), params.num_threads,
              scenario_events("hot-var", params), 64);
  const std::vector<std::uint8_t> good = read_file(src.path());

  Rng rng(99);
  TempTrace mutated("fuzz");
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<std::uint8_t> bytes = good;
    const int flips = 1 + static_cast<int>(rng.next_below(4));
    for (int i = 0; i < flips; ++i) {
      const std::size_t at = rng.next_below(bytes.size());
      bytes[at] = static_cast<std::uint8_t>(rng.next_below(256));
    }
    write_file(mutated.path(), bytes);
    TraceReader reader;
    TraceError error;
    if (!reader.open(mutated.path(), &error)) continue;
    // The mutation may have missed every live byte (or restored one);
    // success is fine — the decoder just must not trip the sanitizer.
    std::uint64_t count = 0;
    if (scan_all(reader, &count, &error) != TraceCursor::Status::kEnd) {
      continue;
    }
    // A mutant that decodes can still break a rule only a built poset
    // checks; that must come back as an error too.
    Poset poset{0};
    replay_to_poset(reader, &poset, nullptr, &error);
  }
}

TEST(TraceHostile, GarbageFilesNeverAbort) {
  Rng rng(7);
  TempTrace garbage("garbage");
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<std::uint8_t> bytes(rng.next_below(300));
    for (std::uint8_t& b : bytes) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    write_file(garbage.path(), bytes);
    TraceReader reader;
    TraceError error;
    EXPECT_FALSE(reader.open(garbage.path(), &error)) << "iter " << iter;
  }
}

TEST(TraceHostile, MissingFileIsIoError) {
  TraceReader reader;
  TraceError error;
  EXPECT_FALSE(reader.open("/nonexistent/definitely_missing.pmt", &error));
  EXPECT_EQ(error.code, TraceErrorCode::kIoError);
}

TraceEvent internal_event(ThreadId tid, VectorClock clock) {
  TraceEvent event;
  event.tid = tid;
  event.clock = std::move(clock);
  return event;
}

// e2[1] names e1[1] but not e0[1], which e1[1] follows. Each clock names
// only published events and counts its own thread right, so the writer and
// the cursor accept all three, but they are not transitively closed: no
// poset has these clocks.
TEST(TraceHostile, UnclosedClockFailsEveryPosetReplay) {
  TempTrace file("unclosed");
  write_trace(file.path(), 3,
              {internal_event(0, VectorClock{1, 0, 0}),
               internal_event(1, VectorClock{1, 1, 0}),
               internal_event(2, VectorClock{0, 1, 1})});
  TraceReader reader;
  TraceError error;
  ASSERT_TRUE(reader.open(file.path(), &error)) << error.to_string();
  std::uint64_t count = 0;
  EXPECT_EQ(scan_all(reader, &count, &error), TraceCursor::Status::kEnd)
      << error.to_string();
  EXPECT_EQ(count, 3u);

  Poset poset{0};
  error = TraceError{};
  EXPECT_FALSE(replay_to_poset(reader, &poset, nullptr, &error));
  EXPECT_EQ(error.code, TraceErrorCode::kClockNotClosed) << error.to_string();
  EXPECT_NE(error.message.find("e2[1]"), std::string::npos) << error.message;

  ParamountOptions options;
  options.num_workers = 2;
  std::uint64_t states = 0;
  error = TraceError{};
  EXPECT_FALSE(replay_count_offline(reader, options, &states, &error));
  EXPECT_EQ(error.code, TraceErrorCode::kClockNotClosed) << error.to_string();
  error = TraceError{};
  EXPECT_FALSE(replay_count_streaming(reader, options, &states, &error));
  EXPECT_EQ(error.code, TraceErrorCode::kClockNotClosed) << error.to_string();
}

// ---- posets through .pmt ----

using testing::expect_posets_equal;

// Writes `poset` with write_poset_trace and reads it back.
Poset round_trip(const Poset& poset) {
  TempTrace file("poset");
  TraceError error;
  EXPECT_TRUE(write_poset_trace(poset, file.path(), &error))
      << error.to_string();
  TraceReader reader;
  EXPECT_TRUE(reader.open(file.path(), &error)) << error.to_string();
  Poset reloaded{0};
  EXPECT_TRUE(replay_to_poset(reader, &reloaded, nullptr, &error))
      << error.to_string();
  return reloaded;
}

TEST(PosetIo, RoundTripFigure4) {
  const Poset original = testing::make_figure4_poset();
  expect_posets_equal(original, round_trip(original));
}

TEST(PosetIo, RoundTripRandomPosets) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Poset original = testing::make_random(5, 50, 0.5, seed);
    const Poset reloaded = round_trip(original);
    expect_posets_equal(original, reloaded);
    EXPECT_EQ(count_ideals(original), count_ideals(reloaded));
  }
}

TEST(PosetIo, RoundTripEmptyPoset) {
  PosetBuilder builder(3);
  const Poset reloaded = round_trip(std::move(builder).build());
  EXPECT_EQ(reloaded.num_threads(), 3u);
  EXPECT_EQ(reloaded.total_events(), 0u);
}

// Figure 4 in the interleave order e0[1], e1[1], e0[2], e1[2], byte for
// byte: one chunk, each thread's first record absolute and its second a
// delta, framed by the test's own FileBuilder.
TEST(PosetIo, FormatIsStable) {
  std::vector<std::uint8_t> payload;
  put_record(payload, 0, 0, kAbsoluteClock, 0, {{0, 1}});
  put_record(payload, 1, 0, kAbsoluteClock, 0, {{1, 1}});
  put_record(payload, 0, 0, 0, 0, {{0, 1}, {0, 1}});
  put_record(payload, 1, 0, 0, 0, {{0, 1}, {0, 1}});
  TempTrace file("figure4");
  TraceError error;
  ASSERT_TRUE(
      write_poset_trace(testing::make_figure4_poset(), file.path(), &error))
      << error.to_string();
  EXPECT_EQ(read_file(file.path()), FileBuilder(2).build(payload, 4));
}

TEST(PosetIo, PreservesKindsAndObjects) {
  PosetBuilder builder(2);
  builder.add_event(0, OpKind::kAcquire, {}, 42);
  builder.add_event(1, OpKind::kCollection, {}, 7);
  const Poset reloaded = round_trip(std::move(builder).build());
  EXPECT_EQ(reloaded.event(0, 1).kind, OpKind::kAcquire);
  EXPECT_EQ(reloaded.event(0, 1).object, 42u);
  EXPECT_EQ(reloaded.event(1, 1).kind, OpKind::kCollection);
  EXPECT_EQ(reloaded.event(1, 1).object, 7u);
}

// A saved poset loads back equal; a path that cannot be written and a poset
// wider than the format are typed errors, not aborts.
TEST(PosetIo, SaveAndLoadFile) {
  const Poset original = testing::make_random(4, 30, 0.5, 11);
  expect_posets_equal(original, round_trip(original));

  TraceError error;
  EXPECT_FALSE(
      write_poset_trace(original, "/nonexistent/dir/poset.pmt", &error));
  EXPECT_EQ(error.code, TraceErrorCode::kIoError) << error.to_string();
  TempTrace file("too_wide");
  EXPECT_FALSE(
      write_poset_trace(Poset{kMaxThreads + 1}, file.path(), &error));
  EXPECT_EQ(error.code, TraceErrorCode::kBadHeader) << error.to_string();
}

// ---- replay oracle ----

// Streams a trace into an in-process paramountd exactly like
// `paramount-client --trace-file` and returns the Goodbye state count.
std::uint64_t service_states(const TraceReader& reader) {
  using namespace paramount::service;
  const std::string socket_path = unique_path("svc") + ".sock";
  EpollServer::Options server_options;
  server_options.endpoint.path = socket_path;
  EpollServer server(std::move(server_options));
  std::string start_error;
  EXPECT_TRUE(server.start(&start_error)) << start_error;

  std::string error;
  FrameChannel channel(connect_unix(socket_path, &error));
  EXPECT_GE(channel.fd(), 0) << error;

  auto read_reply = [&](Op op) {
    std::vector<std::uint8_t> payload;
    EXPECT_EQ(channel.read_frame(&payload), ReadStatus::kFrame);
    DecodedFrame frame;
    const auto err = decode_frame(payload, &frame);
    EXPECT_FALSE(err.has_value()) << (err ? err->message : "");
    EXPECT_EQ(frame.op, op) << to_string(frame.op);
    return frame;
  };

  HelloBody hello;
  hello.num_threads = static_cast<std::uint32_t>(reader.num_threads());
  EXPECT_TRUE(channel.write_frame(encode_hello(hello)));
  read_reply(Op::kHelloAck);

  std::vector<VectorClock> prev(reader.num_threads(),
                                VectorClock(reader.num_threads()));
  TraceCursor cursor = reader.cursor();
  TraceEvent event;
  TraceError trace_error;
  for (;;) {
    const TraceCursor::Status status = cursor.next(&event, &trace_error);
    EXPECT_NE(status, TraceCursor::Status::kError) << trace_error.to_string();
    if (status != TraceCursor::Status::kOk) break;
    EventBody body;
    body.tid = event.tid;
    body.kind = event.kind;
    body.object = event.object;
    for (std::size_t j = 0; j < event.clock.size(); ++j) {
      if (event.clock[j] != prev[event.tid][j]) {
        body.delta.push_back({static_cast<std::uint32_t>(j), event.clock[j]});
      }
    }
    prev[event.tid] = event.clock;
    for (const TraceAccess& a : event.accesses) {
      body.accesses.push_back(AccessRecord{a.var, a.is_write, a.is_init});
    }
    EXPECT_TRUE(channel.write_frame(encode_event(body)));
  }
  EXPECT_TRUE(channel.write_frame(encode_shutdown()));
  const DecodedFrame goodbye = read_reply(Op::kGoodbye);
  EXPECT_EQ(goodbye.counts.events, reader.total_events());
  return goodbye.counts.states;
}

class ReplayOracle : public ::testing::TestWithParam<const char*> {};

TEST_P(ReplayOracle, AllModesMatchDirectEnumeration) {
  ScenarioParams params;
  params.num_threads = 4;
  params.num_events = 800;
  params.seed = 42;
  const std::vector<TraceEvent> events =
      scenario_events(GetParam(), params);
  const std::uint64_t expected = direct_states(params.num_threads, events);

  TempTrace file(GetParam());
  write_trace(file.path(), params.num_threads, events, 256);
  TraceReader reader;
  TraceError error;
  ASSERT_TRUE(reader.open(file.path(), &error)) << error.to_string();

  ParamountOptions options;
  options.num_workers = 2;
  std::uint64_t states = 0;
  ASSERT_TRUE(replay_count_offline(reader, options, &states, &error))
      << error.to_string();
  EXPECT_EQ(states, expected) << "offline";
  ASSERT_TRUE(replay_count_streaming(reader, options, &states, &error))
      << error.to_string();
  EXPECT_EQ(states, expected) << "streaming";

  OnlineParamount::Options online;
  online.async_workers = 2;
  ASSERT_TRUE(replay_count_online(reader, online, &states, &error))
      << error.to_string();
  EXPECT_EQ(states, expected) << "online";

  EXPECT_EQ(service_states(reader), expected) << "service";
}

INSTANTIATE_TEST_SUITE_P(Scenarios, ReplayOracle,
                         ::testing::Values("lock-convoy", "barrier-phase",
                                           "fanin-queue", "fork-join",
                                           "hot-var"));

TEST(TraceFileSinkTest, RecordedProgramMatchesInMemoryRecording) {
  // Trace the same execution into RecordingSink (in-memory poset) and
  // TraceFileSink (.pmt) simultaneously; both must enumerate to the same
  // count.
  const TracedProgramSpec& spec = traced_program("banking");
  TempTrace file("banking");

  RecordingSink recording(spec.num_threads);
  TraceFileSink file_sink(file.path(), spec.num_threads);
  ASSERT_TRUE(file_sink.ok()) << file_sink.error().to_string();
  TeeSink tee({&recording, &file_sink});

  TraceRuntime::Options options;
  options.num_threads = spec.num_threads;
  options.record_sync_events = true;
  TraceRuntime runtime(options, tee);
  file_sink.set_access_table(&runtime.access_table());
  spec.run(runtime, /*scale=*/1);
  runtime.finish();
  ASSERT_TRUE(file_sink.finish()) << file_sink.error().to_string();

  const Poset poset = std::move(recording).build();
  ParamountOptions enum_options;
  enum_options.num_workers = 2;
  const std::uint64_t expected =
      enumerate_paramount(poset, enum_options, [](const Frontier&) {}).states;

  TraceReader reader;
  TraceError error;
  ASSERT_TRUE(reader.open(file.path(), &error)) << error.to_string();
  EXPECT_EQ(reader.total_events(), poset.total_events());
  std::uint64_t states = 0;
  ASSERT_TRUE(replay_count_offline(reader, enum_options, &states, &error))
      << error.to_string();
  EXPECT_EQ(states, expected);
}

}  // namespace
}  // namespace paramount::trace
