// Allocation counts on the ingest paths that promise to allocate nothing
// once warm: TraceCursor::next into a reused TraceEvent, OnlinePoset::insert
// into a reused Inserted, and inline OnlineParamount::submit of one-state
// intervals, nested submits included. The poset's own storage is the one
// allowance: an insert may open a row segment and, with it, a directory
// leaf.
//
// This binary replaces the global operator new and operator delete with
// counting ones (thread-local tallies over malloc/free). A sanitizer build
// brings its own allocator, so there the replacement is compiled out and
// every test skips.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/online_paramount.hpp"
#include "poset/online_poset.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"
#include "workloads/scenarios/scenarios.hpp"

#ifndef PARAMOUNT_SANITIZED_BUILD

namespace {
thread_local std::uint64_t tl_allocations = 0;
thread_local std::uint64_t tl_deallocations = 0;

void* counted_alloc(std::size_t size, std::size_t alignment) {
  ++tl_allocations;
  if (size == 0) size = 1;
  void* p = alignment <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(alignment,
                                     (size + alignment - 1) / alignment *
                                         alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void counted_free(void* p) {
  if (p == nullptr) return;
  ++tl_deallocations;
  std::free(p);
}
}  // namespace

// libstdc++ routes the array and nothrow forms through these.
void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_alloc(size, static_cast<std::size_t>(alignment));
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

#endif  // PARAMOUNT_SANITIZED_BUILD

namespace paramount {
namespace {

#ifdef PARAMOUNT_SANITIZED_BUILD
constexpr bool kCounting = false;
std::uint64_t allocations() { return 0; }
std::uint64_t deallocations() { return 0; }
#else
constexpr bool kCounting = true;
std::uint64_t allocations() { return tl_allocations; }
std::uint64_t deallocations() { return tl_deallocations; }
#endif

#define SKIP_UNLESS_COUNTING()                                        \
  do {                                                                \
    if (!kCounting) {                                                 \
      GTEST_SKIP() << "sanitizer build: the sanitizer owns operator " \
                      "new, so nothing is counted";                   \
    }                                                                 \
  } while (0)

// Allocations an insert may make for storage: one when it opened a row
// segment (heap_bytes() grew), two when the segment also opened a
// directory leaf (it grew by more than one full segment).
std::uint64_t storage_allowance(std::size_t width, std::size_t grown) {
  const std::size_t full_segment = StableVector<EventIndex>(width + 2)
                                       .segment_rows() *
                                   (width + 2) * sizeof(EventIndex);
  return (grown > 0 ? 1 : 0) + (grown > full_segment ? 1 : 0);
}

// Event k of a round-robin chain over `width` threads: every event follows
// the one inserted before it, so every interval holds one state.
VectorClock chain_clock(std::size_t width, std::uint64_t k) {
  VectorClock vc(width);
  for (ThreadId j = 0; j < width; ++j) {
    vc[j] = j <= k ? static_cast<EventIndex>((k - j) / width + 1) : 0;
  }
  return vc;
}

std::vector<VectorClock> chain_clocks(std::size_t width,
                                      std::uint64_t events) {
  std::vector<VectorClock> clocks;
  clocks.reserve(events);
  for (std::uint64_t k = 0; k < events; ++k) {
    clocks.push_back(chain_clock(width, k));
  }
  return clocks;
}

TEST(AllocationCount, TraceCursorNextIntoReusedEventOnConvoy) {
  SKIP_UNLESS_COUNTING();
  ScenarioParams params;
  params.num_threads = 64;
  params.num_events = 6000;
  params.seed = 42;
  std::unique_ptr<ScenarioStream> scenario =
      make_scenario("lock-convoy-64", params);
  ASSERT_NE(scenario, nullptr);
  static std::atomic<int> counter{0};
  const std::string path = "/tmp/pm_alloc_" + std::to_string(::getpid()) +
                           "_" + std::to_string(counter.fetch_add(1)) +
                           ".pmt";
  {
    trace::TraceWriter writer;
    trace::TraceWriter::Options options;
    options.events_per_chunk = 512;  // many chunk boundaries
    trace::TraceError error;
    ASSERT_TRUE(writer.open(path, scenario->num_threads(), options, &error))
        << error.to_string();
    trace::TraceEvent event;
    while (scenario->next(&event)) writer.append(event);
    ASSERT_TRUE(writer.finish(&error)) << error.to_string();
  }

  trace::TraceReader reader;
  trace::TraceError error;
  ASSERT_TRUE(reader.open(path, &error)) << error.to_string();
  ASSERT_EQ(reader.num_threads(), 64u);
  trace::TraceCursor cursor = reader.cursor();
  trace::TraceEvent event;
  // Warm-up: the first chunk grows the cursor's and the event's buffers to
  // the trace's widths.
  for (int i = 0; i < 512; ++i) {
    ASSERT_EQ(cursor.next(&event, &error), trace::TraceCursor::Status::kOk)
        << error.to_string();
  }
  const std::uint64_t allocs = allocations();
  const std::uint64_t frees = deallocations();
  std::uint64_t decoded = 0;
  trace::TraceCursor::Status status;
  while ((status = cursor.next(&event, &error)) ==
         trace::TraceCursor::Status::kOk) {
    ++decoded;
  }
  const std::uint64_t allocs_after = allocations();
  const std::uint64_t frees_after = deallocations();
  std::remove(path.c_str());
  ASSERT_EQ(status, trace::TraceCursor::Status::kEnd) << error.to_string();
  EXPECT_EQ(decoded, params.num_events - 512);
  EXPECT_EQ(allocs_after - allocs, 0u);
  EXPECT_EQ(frees_after - frees, 0u);
}

TEST(AllocationCount, OnlinePosetInsertAllocatesOnlyStorage) {
  SKIP_UNLESS_COUNTING();
  for (const std::size_t width : {6u, 64u}) {
    const std::uint64_t events = 40 * width + 8;
    const std::vector<VectorClock> clocks = chain_clocks(width, events);
    OnlinePoset poset(width);
    OnlinePoset::Inserted ins;
    // Warm-up: the first insert sizes Gmin and Gbnd, which live on the heap
    // past 16 threads; seeing those allocations shows the count is live.
    const std::uint64_t before_warm_up = allocations();
    poset.insert(0, OpKind::kInternal, 0, clocks[0], false, &ins);
    if (width > 16) EXPECT_GT(allocations(), before_warm_up);
    std::uint64_t storage_opens = 0;
    for (std::uint64_t k = 1; k < events; ++k) {
      const std::size_t bytes = poset.heap_bytes();
      const std::uint64_t allocs = allocations();
      poset.insert(static_cast<ThreadId>(k % width), OpKind::kInternal, 0,
                   clocks[k], false, &ins);
      const std::uint64_t made = allocations() - allocs;
      const std::uint64_t allowed =
          storage_allowance(width, poset.heap_bytes() - bytes);
      ASSERT_LE(made, allowed) << "width " << width << ", event " << k;
      if (allowed > 0) ++storage_opens;
    }
    // Most inserts open nothing, so the bound above is mostly zero.
    EXPECT_LT(storage_opens * 8, events) << "width " << width;
  }
}

TEST(AllocationCount, OnlineParamountOneStateSubmitInlineAndNested) {
  SKIP_UNLESS_COUNTING();
  constexpr std::size_t kWidth = 64;
  constexpr std::uint64_t kEvents = 20 * kWidth;
  const std::vector<VectorClock> clocks = chain_clocks(kWidth, kEvents + 1);
  // The inner driver takes one event per state of the outer one: every
  // outer interval holds one state, and the first also the empty state.
  std::uint64_t inner_next = 0;
  OnlineParamount inner(kWidth, {},
                        [](const OnlinePoset&, EventId, const Frontier&) {});
  OnlineParamount outer(
      kWidth, {}, [&](const OnlinePoset&, EventId, const Frontier&) {
        inner.submit(static_cast<ThreadId>(inner_next % kWidth),
                     OpKind::kInternal, 0, clocks[inner_next]);
        ++inner_next;
      });
  // Warm-up: the first submits size each depth's Inserted.
  for (std::uint64_t k = 0; k < 2; ++k) {
    outer.submit(static_cast<ThreadId>(k % kWidth), OpKind::kInternal, 0,
                 clocks[k]);
  }
  for (std::uint64_t k = 2; k < kEvents; ++k) {
    const std::size_t outer_bytes = outer.poset().heap_bytes();
    const std::size_t inner_bytes = inner.poset().heap_bytes();
    const std::uint64_t allocs = allocations();
    outer.submit(static_cast<ThreadId>(k % kWidth), OpKind::kInternal, 0,
                 clocks[k]);
    const std::uint64_t made = allocations() - allocs;
    const std::uint64_t allowed =
        storage_allowance(kWidth, outer.poset().heap_bytes() - outer_bytes) +
        storage_allowance(kWidth, inner.poset().heap_bytes() - inner_bytes);
    ASSERT_LE(made, allowed) << "event " << k;
  }
  EXPECT_EQ(outer.states_enumerated(), kEvents + 1);
  EXPECT_EQ(inner.states_enumerated(), kEvents + 2);
  EXPECT_EQ(inner_next, kEvents + 1);
}

}  // namespace
}  // namespace paramount
