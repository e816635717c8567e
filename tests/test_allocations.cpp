// Allocation counts on the ingest paths that promise to allocate nothing
// once warm: TraceCursor::next into a reused TraceEvent, OnlinePoset::insert
// into a reused Inserted, inline and pooled OnlineParamount::submit of
// one-state intervals, nested submits and window GC included, SessionCore's
// Event path, and FrameChannel::write_frame on a blocking socket. The
// poset's own storage is the one allowance: an insert may open a row
// segment and, with it, a directory leaf. The offline driver reuses one Gbnd frontier per worker,
// so its own allocations do not grow with the number of events, and the
// lexical kernel allocates nothing per box up to 16 threads. Over inserts
// and a window GC pass, OnlinePoset::heap_bytes() moves with the bytes the
// allocator really holds.
//
// This binary replaces the global operator new and operator delete with
// counting ones (thread-local tallies over malloc/free, live bytes by
// malloc_usable_size included, plus a process-wide allocation count for the
// multi-worker driver). A sanitizer build brings
// its own allocator, so there the replacement is compiled out and every
// test skips.
#include <gtest/gtest.h>
#include <malloc.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/interval.hpp"
#include "core/online_paramount.hpp"
#include "core/paramount.hpp"
#include "poset/online_poset.hpp"
#include "poset/poset_builder.hpp"
#include "service/channel.hpp"
#include "service/frame.hpp"
#include "service/session.hpp"
#include "test_helpers.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"
#include "workloads/scenarios/scenarios.hpp"

#ifndef PARAMOUNT_SANITIZED_BUILD

namespace {
thread_local std::uint64_t tl_allocations = 0;
thread_local std::uint64_t tl_deallocations = 0;
thread_local std::int64_t tl_live_bytes = 0;
std::atomic<std::uint64_t> process_allocations{0};

void* counted_alloc(std::size_t size, std::size_t alignment) {
  ++tl_allocations;
  // relaxed: a tally read after the counting threads joined.
  process_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = alignment <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(alignment,
                                     (size + alignment - 1) / alignment *
                                         alignment);
  if (p == nullptr) throw std::bad_alloc();
  tl_live_bytes += static_cast<std::int64_t>(malloc_usable_size(p));
  return p;
}

void counted_free(void* p) {
  if (p == nullptr) return;
  ++tl_deallocations;
  tl_live_bytes -= static_cast<std::int64_t>(malloc_usable_size(p));
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
std::int64_t live_bytes() { return 0; }
std::uint64_t all_threads_allocations() { return 0; }
#else
constexpr bool kCounting = true;
std::uint64_t allocations() { return tl_allocations; }
std::uint64_t deallocations() { return tl_deallocations; }
// Usable bytes this thread allocated minus those it freed.
std::int64_t live_bytes() { return tl_live_bytes; }
// Every thread's allocations so far; exact once the threads that allocate
// have joined.
std::uint64_t all_threads_allocations() {
  // relaxed: read after the driver joined its workers.
  return process_allocations.load(std::memory_order_relaxed);
}
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
    poset.insert(0, OpKind::kInternal, 0, clocks[0], &ins);
    if (width > 16) {
      EXPECT_GT(allocations(), before_warm_up);
    }
    std::uint64_t storage_opens = 0;
    for (std::uint64_t k = 1; k < events; ++k) {
      const std::size_t bytes = poset.heap_bytes();
      const std::uint64_t allocs = allocations();
      poset.insert(static_cast<ThreadId>(k % width), OpKind::kInternal, 0,
                   clocks[k], &ins);
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

// heap_bytes() drives the window_bytes GC trigger and the memory figures,
// so it must follow what the allocator holds. Each thread takes four full
// segments of rows: its inline ramp and three segments behind a directory
// leaf. Over those inserts, and over a collect() that retires the ramp and
// two segments per thread, the change in heap_bytes() matches the change in
// live bytes to within one segment.
TEST(AllocationCount, OnlinePosetHeapBytesTracksAllocatorLiveBytes) {
  SKIP_UNLESS_COUNTING();
  for (const std::size_t width : {6u, 64u}) {
    const std::size_t rows = StableVector<EventIndex>(width + 2).segment_rows();
    const auto full_segment =
        static_cast<std::int64_t>(rows * (width + 2) * sizeof(EventIndex));
    const std::uint64_t events = 4 * rows * width;
    const std::vector<VectorClock> clocks = chain_clocks(width, events);
    OnlinePoset poset(width);
    OnlinePoset::Inserted ins;
    // Warm-up: the first insert sizes Gmin and Gbnd.
    poset.insert(0, OpKind::kInternal, 0, clocks[0], &ins);

    const std::int64_t live_before = live_bytes();
    const auto heap_before = static_cast<std::int64_t>(poset.heap_bytes());
    for (std::uint64_t k = 1; k < events; ++k) {
      poset.insert(static_cast<ThreadId>(k % width), OpKind::kInternal, 0,
                   clocks[k], &ins);
    }
    const std::int64_t live_grown = live_bytes() - live_before;
    const std::int64_t heap_grown =
        static_cast<std::int64_t>(poset.heap_bytes()) - heap_before;
    EXPECT_GE(heap_grown, 3 * full_segment * static_cast<std::int64_t>(width))
        << "width " << width;
    EXPECT_LE(std::abs(live_grown - heap_grown), full_segment)
        << "width " << width << ": heap_bytes() grew by " << heap_grown
        << ", the allocator's live bytes by " << live_grown;

    const std::int64_t live_full = live_bytes();
    const auto heap_full = static_cast<std::int64_t>(poset.heap_bytes());
    const OnlinePoset::CollectStats stats = poset.collect();
    EXPECT_GT(stats.reclaimed_events, 0u) << "width " << width;
    const std::int64_t live_freed = live_full - live_bytes();
    const std::int64_t heap_freed =
        heap_full - static_cast<std::int64_t>(poset.heap_bytes());
    EXPECT_GE(heap_freed, 2 * full_segment * static_cast<std::int64_t>(width))
        << "width " << width;
    EXPECT_LE(std::abs(live_freed - heap_freed), full_segment)
        << "width " << width << ": heap_bytes() fell by " << heap_freed
        << ", the allocator's live bytes by " << live_freed;
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

// The pooled driver with window GC over one-state intervals at width 64:
// every interval stays on the submitting thread, which visits the
// submitted clock itself and takes no pin (its event is its thread's
// newest until the submit returns). After warm-up a submit, its periodic
// collect() included, allocates on no thread beyond what a twin poset fed
// the same clocks opens (its segments and leaves), and no visit sees a
// pin.
TEST(AllocationCount, PooledOneStateSubmitAllocatesOnlyStorageAndTakesNoPin) {
  SKIP_UNLESS_COUNTING();
  constexpr std::size_t kWidth = 64;
  constexpr std::uint64_t kEvents = 40 * kWidth;
  const std::vector<VectorClock> clocks = chain_clocks(kWidth, kEvents);
  std::uint64_t visits = 0;
  std::uint64_t pins_seen = 0;
  OnlineParamount::Options options;
  options.async_workers = 2;
  options.window_policy.gc_every = 16;
  OnlineParamount driver(
      kWidth, options,
      [&](const OnlinePoset& poset, EventId, const Frontier&) {
        ++visits;
        pins_seen += poset.outstanding_pins();
      });
  OnlinePoset twin(kWidth);
  // Warm-up: the first submit sizes this depth's Inserted and visits the
  // empty state.
  for (std::uint64_t k = 0; k < 2; ++k) {
    twin.insert(static_cast<ThreadId>(k % kWidth), OpKind::kInternal, 0,
                clocks[k]);
    driver.submit(static_cast<ThreadId>(k % kWidth), OpKind::kInternal, 0,
                  clocks[k]);
  }
  std::uint64_t storage_opens = 0;
  for (std::uint64_t k = 2; k < kEvents; ++k) {
    const std::size_t bytes = twin.heap_bytes();
    twin.insert(static_cast<ThreadId>(k % kWidth), OpKind::kInternal, 0,
                clocks[k]);
    const std::uint64_t allowed =
        storage_allowance(kWidth, twin.heap_bytes() - bytes);
    const std::uint64_t allocs = all_threads_allocations();
    driver.submit(static_cast<ThreadId>(k % kWidth), OpKind::kInternal, 0,
                  clocks[k]);
    ASSERT_LE(all_threads_allocations() - allocs, allowed) << "event " << k;
    if (allowed > 0) ++storage_opens;
  }
  driver.drain();
  EXPECT_LT(storage_opens * 8, kEvents);
  EXPECT_EQ(visits, kEvents + 1);
  EXPECT_EQ(pins_seen, 0u);
  EXPECT_EQ(driver.poset().outstanding_pins(), 0u);
  EXPECT_GT(driver.poset().reclaimed_events(), kEvents / 2);
}

// The offline driver over a convoy of one-state intervals: each worker
// copies every Gbnd snapshot into its one frontier, which keeps its
// capacity, so the driver's own allocations, its total minus what
// enumerate_box makes over the same boxes, do not grow with the number of
// events. One worker runs a fixed sequence, so 2,000 and 20,000 events must
// cost exactly the same. At four workers each worker's frontier allocates
// once when it is wider than the inline 16 threads, and the rest (threads,
// the running frontier, the order check) is a fixed allowance.
TEST(AllocationCount, ParamountDriverRecyclesClaims) {
  SKIP_UNLESS_COUNTING();
  constexpr std::uint64_t kFixedAllowance = 64;
  for (const std::size_t width : {6u, 20u}) {
    for (const std::size_t workers : {1u, 4u}) {
      std::vector<std::uint64_t> own;  // per convoy length
      for (const std::uint64_t events : {2000u, 20000u}) {
        const std::vector<VectorClock> clocks = chain_clocks(width, events);
        PosetBuilder builder(width);
        std::vector<EventId> order;
        for (std::uint64_t k = 0; k < events; ++k) {
          order.push_back(builder.add_event_with_clock(
              static_cast<ThreadId>(k % width), OpKind::kInternal, 0,
              clocks[k]));
        }
        const Poset poset = std::move(builder).build();
        const std::vector<Interval> intervals = compute_intervals(poset, order);
        const Frontier empty = poset.empty_frontier();
        auto noop = [](const Frontier&) {};

        std::uint64_t before = all_threads_allocations();
        std::uint64_t box_states =
            enumerate_box(EnumAlgorithm::kLexical, poset, empty, empty, noop)
                .states;
        for (const Interval& iv : intervals) {
          box_states += enumerate_box(EnumAlgorithm::kLexical, poset, iv.gmin,
                                      iv.gbnd, noop)
                            .states;
        }
        const std::uint64_t boxes = all_threads_allocations() - before;

        ParamountOptions options;
        options.num_workers = workers;
        before = all_threads_allocations();
        const std::uint64_t states =
            enumerate_paramount_streaming(poset, order, options, noop).states;
        const std::uint64_t driver = all_threads_allocations() - before;

        const std::string where = "width " + std::to_string(width) + ", " +
                                  std::to_string(workers) + " workers, " +
                                  std::to_string(events) + " events";
        ASSERT_EQ(states, events + 1) << where;
        ASSERT_EQ(box_states, events + 1) << where;
        ASSERT_GE(driver, boxes) << where;
        own.push_back(driver - boxes);
        if (workers > 1) {
          EXPECT_LE(own.back(),
                    workers * (width > 16 ? 1 : 0) + kFixedAllowance)
              << where;
        }
      }
      if (workers == 1) {
        EXPECT_EQ(own[0], own[1])
            << "width " << width
            << ": the driver's own allocations grew with the events";
      }
    }
  }
}

// The lexical kernel's closure stack and frontier are inline up to 16
// threads, so with no meter a box allocates nothing there, whatever its
// size. Past 16 threads the frontier and both closure buffers spill to the
// heap, a fixed number of allocations per box that does not grow with the
// box's state count; seeing it shows the count is live. Two events per
// thread give lattices of 262, 42,570, 489,600 and 4,492,800 states.
TEST(AllocationCount, LexicalBoxAllocatesNothingUpTo16Threads) {
  SKIP_UNLESS_COUNTING();
  for (const std::size_t width : {6u, 12u, 16u, 17u}) {
    const Poset poset = testing::make_random(width, 2 * width, 0.7, width);
    const std::vector<Interval> intervals =
        compute_intervals(poset, TopoPolicy::kInterleave);
    auto noop = [](const Frontier&) {};
    // Warm-up: one box before counting.
    enumerate_box(EnumAlgorithm::kLexical, poset, intervals[0].gmin,
                  intervals[0].gbnd, noop);
    std::uint64_t smallest = ~std::uint64_t{0};
    std::uint64_t largest = 0;
    std::vector<std::uint64_t> per_box;
    for (const Interval& iv : intervals) {
      const std::uint64_t allocs = allocations();
      const std::uint64_t box =
          enumerate_box(EnumAlgorithm::kLexical, poset, iv.gmin, iv.gbnd, noop)
              .states;
      per_box.push_back(allocations() - allocs);
      smallest = std::min(smallest, box);
      largest = std::max(largest, box);
    }
    const std::string where = "width " + std::to_string(width);
    EXPECT_LT(smallest, largest) << where << ": every box is one size";
    for (std::size_t b = 0; b < per_box.size(); ++b) {
      if (width <= 16) {
        EXPECT_EQ(per_box[b], 0u) << where << ", box " << b;
      } else {
        EXPECT_GT(per_box[b], 0u) << where << ", box " << b;
        EXPECT_EQ(per_box[b], per_box[0]) << where << ", box " << b;
      }
    }
  }
}

// The reactor's per-frame path for an Event: decode into the frame
// scratch, rebuild and validate the clock, admit against the submit gate,
// insert and visit the one-state interval. A twin OnlinePoset fed the same
// clocks, outside the counted span, measures what each insert opened.
TEST(AllocationCount, SessionCoreEventPathAllocatesOnlyPosetStorage) {
  SKIP_UNLESS_COUNTING();
  constexpr std::size_t kWidth = 64;
  constexpr std::uint64_t kWarm = 4 * kWidth;
  constexpr std::uint64_t kEvents = kWarm + 10000;
  const std::vector<VectorClock> clocks = chain_clocks(kWidth, kEvents);
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(kEvents);
  const VectorClock zero(kWidth);
  for (std::uint64_t k = 0; k < kEvents; ++k) {
    const VectorClock& prev = k >= kWidth ? clocks[k - kWidth] : zero;
    service::EventBody body;
    body.tid = static_cast<ThreadId>(k % kWidth);
    for (std::size_t j = 0; j < kWidth; ++j) {
      if (clocks[k][j] != prev[j]) {
        body.delta.push_back({static_cast<std::uint32_t>(j), clocks[k][j]});
      }
    }
    frames.push_back(service::encode_event(body));
  }
  // Wired as EpollServer wires a session: a budgeted gate, and a
  // gate-ready hook capturing what the server's does.
  auto gate = std::make_shared<SubmitGate>(std::size_t{1} << 20);
  std::uint64_t replies = 0;
  service::SessionCore core(1, {}, [&replies](std::span<const std::uint8_t>) {
    ++replies;
    return true;
  });
  core.set_gate_provider([gate](const service::HelloBody&) { return gate; });
  std::uint64_t wake_ups = 0;
  const std::uint64_t conn_id = 7;
  core.set_gate_ready([&wake_ups, conn_id] { wake_ups += conn_id; });
  service::HelloBody hello;
  hello.num_threads = kWidth;
  ASSERT_EQ(core.on_payload(service::encode_hello(hello)),
            service::SessionCore::Disposition::kContinue);

  OnlinePoset twin(kWidth);
  OnlinePoset::Inserted ins;
  const auto feed = [&](std::uint64_t k) {
    return core.on_payload(frames[k]);
  };
  // Warm-up: the first events grow the frame scratch, the clock scratch
  // and the validator's per-thread clocks.
  for (std::uint64_t k = 0; k < kWarm; ++k) {
    twin.insert(static_cast<ThreadId>(k % kWidth), OpKind::kInternal, 0,
                clocks[k], &ins);
    ASSERT_EQ(feed(k), service::SessionCore::Disposition::kContinue);
  }
  std::uint64_t made_total = 0;
  std::uint64_t storage_opens = 0;
  for (std::uint64_t k = kWarm; k < kEvents; ++k) {
    const std::size_t bytes = twin.heap_bytes();
    twin.insert(static_cast<ThreadId>(k % kWidth), OpKind::kInternal, 0,
                clocks[k], &ins);
    const std::uint64_t allowed =
        storage_allowance(kWidth, twin.heap_bytes() - bytes);
    const std::uint64_t allocs = allocations();
    const service::SessionCore::Disposition disposition = feed(k);
    const std::uint64_t made = allocations() - allocs;
    ASSERT_EQ(disposition, service::SessionCore::Disposition::kContinue)
        << "event " << k;
    ASSERT_LE(made, allowed) << "event " << k;
    made_total += made;
    if (allowed > 0) ++storage_opens;
  }
  EXPECT_LT(storage_opens * 8, kEvents - kWarm);
  EXPECT_LE(made_total, 2 * storage_opens);
  EXPECT_EQ(replies, 1u);  // the HelloAck; events are not answered
  EXPECT_EQ(wake_ups, 0u);  // the gate never refused an event
  core.finish();
  EXPECT_EQ(core.result().counts.events, kEvents);
  EXPECT_EQ(core.result().counts.states, kEvents + 1);
}

// A blocking channel's write buffer grows to one chunk plus a frame, and
// then write_frame allocates nothing, for small frames that wait in it and
// for frames larger than the chunk, which go out behind it uncopied.
TEST(AllocationCount, BlockingWriteFrameAllocatesNothingOnceItsBufferGrew) {
  SKIP_UNLESS_COUNTING();
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  service::UniqueFd peer(fds[1]);
  std::uint64_t drained = 0;
  std::thread reader([&peer, &drained] {
    std::vector<std::uint8_t> buffer(std::size_t{1} << 16);
    while (true) {
      const ssize_t n = ::read(peer.get(), buffer.data(), buffer.size());
      if (n <= 0) return;
      drained += static_cast<std::uint64_t>(n);
    }
  });
  const std::vector<std::uint8_t> small(200, 0x5A);
  const std::vector<std::uint8_t> big(std::size_t{1} << 20, 0xA5);
  constexpr std::uint32_t kWrites = 19800;
  std::uint64_t made = 0;
  std::uint64_t freed = 0;
  std::uint64_t expected_bytes = 0;
  bool ok = true;
  {
    service::FrameChannel channel{service::UniqueFd(fds[0])};
    // Warm-up: two hundred frames fill the chunk twice over.
    for (std::uint32_t i = 0; i < 200; ++i) {
      ok = channel.write_frame(small, i) && ok;
      expected_bytes += 8 + small.size();
    }
    const std::uint64_t allocs = allocations();
    const std::uint64_t frees = deallocations();
    for (std::uint32_t i = 0; i < kWrites; ++i) {
      const std::vector<std::uint8_t>& payload = i % 5000 == 4999 ? big : small;
      ok = channel.write_frame(payload, i) && ok;
      expected_bytes += 8 + payload.size();
    }
    ok = channel.flush() == service::FrameChannel::FlushStatus::kDrained && ok;
    made = allocations() - allocs;
    freed = deallocations() - frees;
  }  // closes the socket: the reader sees EOF
  reader.join();
  EXPECT_TRUE(ok);
  EXPECT_EQ(made, 0u);
  EXPECT_EQ(freed, 0u);
  EXPECT_EQ(drained, expected_bytes);
}

}  // namespace
}  // namespace paramount
