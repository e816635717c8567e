// Sliding-window reclamation for the online poset: watermark computation,
// EnumGuard pinning, GC-on/GC-off equivalence, bounded memory under long
// streams, and the detector's eviction accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <iostream>
#include <optional>
#include <semaphore>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/online_paramount.hpp"
#include "detect/offline_bfs_detector.hpp"
#include "detect/race_predicate.hpp"
#include "poset/lattice.hpp"
#include "poset/online_poset.hpp"
#include "poset/poset_builder.hpp"
#include "runtime/access.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "workloads/event_stream.hpp"

namespace paramount {
namespace {

using testing::all_distinct;
using testing::as_set;
using testing::key_of;
using testing::Key;

// Drives `total_events` of a deterministic synthetic stream through an
// OnlineParamount with the given options; returns every visited state. A
// nonzero `max_in_flight` makes the producer wait while that many intervals
// are still queued or running, as paramountd's submit budget bounds a
// session's queued work.
struct StreamRun {
  std::vector<Key> states;
  std::size_t peak_poset_bytes = 0;
  std::size_t final_poset_bytes = 0;
};

StreamRun run_stream(SyntheticEventStream::Params params,
                     std::uint64_t total_events,
                     OnlineParamount::Options options,
                     std::size_t max_in_flight = 0) {
  StreamRun run;
  Mutex mutex;
  std::counting_semaphore<> slots(static_cast<std::ptrdiff_t>(max_in_flight));
  if (max_in_flight > 0) {
    options.interval_done = [&slots](EventId) { slots.release(); };
  }
  OnlineParamount driver(
      params.num_threads, options,
      [&](const OnlinePoset&, EventId, const Frontier& f) {
        MutexLock guard(mutex);
        run.states.push_back(key_of(f));
      });
  SyntheticEventStream stream(params);
  for (std::uint64_t i = 0; i < total_events; ++i) {
    SyntheticEventStream::StreamEvent ev = stream.next();
    if (max_in_flight > 0) slots.acquire();
    driver.submit(ev.tid, ev.kind, ev.object, std::move(ev.clock));
    if ((i & 255) == 0) {
      run.peak_poset_bytes =
          std::max(run.peak_poset_bytes, driver.poset().heap_bytes());
    }
  }
  driver.drain();
  run.peak_poset_bytes =
      std::max(run.peak_poset_bytes, driver.poset().heap_bytes());
  // Like the CLI: one final collect once the stream has drained, so
  // final_poset_bytes reports the post-GC plateau rather than whatever was
  // resident when the last periodic collect happened to fire.
  if (options.window_policy.enabled()) driver.collect();
  run.final_poset_bytes = driver.poset().heap_bytes();
  return run;
}

TEST(WindowGc, CollectAdvancesToClockFloorMinusOne) {
  OnlinePoset poset(2);
  poset.insert(0, OpKind::kInternal, 0, VectorClock{1, 0});
  poset.insert(1, OpKind::kInternal, 0, VectorClock{0, 1});
  poset.insert(0, OpKind::kInternal, 0, VectorClock{2, 1});
  poset.insert(1, OpKind::kInternal, 0, VectorClock{2, 2});

  // Clock floor = min({2,1}, {2,2}) = {2,1}; index w[j] itself stays live.
  const auto stats = poset.collect();
  EXPECT_EQ(stats.reclaimed_events, 1u);
  EXPECT_EQ(poset.window_base(0), 1u);
  EXPECT_EQ(poset.window_base(1), 0u);
  EXPECT_EQ(poset.first_live_index(0), 2u);
  EXPECT_FALSE(poset.is_live(0, 1));
  EXPECT_TRUE(poset.is_live(0, 2));
  EXPECT_EQ(poset.reclaimed_events(), 1u);
  // Live reads still work, and published counts are unaffected.
  EXPECT_EQ(key_of(poset.vc(0, 2)), (Key{2, 1}));
  EXPECT_EQ(poset.num_events(0), 2u);

  // The watermark is monotone: a second pass with no new events is a no-op.
  EXPECT_EQ(poset.collect().reclaimed_events, 0u);
}

TEST(WindowGc, ThreadWithNoEventsPinsWatermarkAtZero) {
  OnlinePoset poset(2);
  for (EventIndex i = 1; i <= 100; ++i) {
    poset.insert(0, OpKind::kInternal, 0, VectorClock{i, 0});
  }
  // Thread 1's first event could still reference anything already published.
  const auto stats = poset.collect();
  EXPECT_EQ(stats.reclaimed_events, 0u);
  EXPECT_EQ(poset.window_base(0), 0u);
}

TEST(WindowGc, EnumGuardPinsAndReleaseUnpins) {
  OnlinePoset poset(2);
  // Tightly synchronized pair of threads: the clock floor alone would let
  // collect() reclaim almost everything.
  for (EventIndex i = 1; i <= 64; ++i) {
    poset.insert(0, OpKind::kInternal, 0,
                 VectorClock{i, static_cast<EventIndex>(i - 1)});
    poset.insert(1, OpKind::kInternal, 0, VectorClock{i, i});
  }

  // A stalled in-flight interval with Gmin {3,2} pins the watermark there.
  OnlinePoset::EnumGuard guard = poset.pin_interval(Frontier{3, 2});
  EXPECT_EQ(poset.outstanding_pins(), 1u);
  poset.collect();
  EXPECT_EQ(poset.window_base(0), 2u);
  EXPECT_EQ(poset.window_base(1), 1u);
  EXPECT_TRUE(poset.is_live(0, 3));
  EXPECT_TRUE(poset.is_live(1, 2));

  guard.release();
  EXPECT_EQ(poset.outstanding_pins(), 0u);
  const auto stats = poset.collect();
  EXPECT_GT(stats.reclaimed_events, 0u);
  EXPECT_GT(poset.window_base(0), 2u);
}

// An insert takes no pin. The drivers' hand-off pin (pin_newest, the
// newest event's Gmin) and the tooling one (pin_interval) both hold the
// watermark once the thread moves on, until their guard lets go.
TEST(WindowGc, InsertWithPinIsAdoptedByGuard) {
  OnlinePoset poset(1);
  poset.insert(0, OpKind::kInternal, 0, VectorClock{1});
  EXPECT_EQ(poset.outstanding_pins(), 0u);
  EXPECT_FALSE(OnlinePoset::EnumGuard(&poset, OnlinePoset::kNoPin).active());

  const auto pinned = poset.insert(0, OpKind::kInternal, 0, VectorClock{2});
  EXPECT_EQ(poset.outstanding_pins(), 0u);
  const std::uint32_t slot = poset.pin_newest(pinned.id);
  ASSERT_NE(slot, OnlinePoset::kNoPin);
  EXPECT_EQ(poset.outstanding_pins(), 1u);
  {
    OnlinePoset::EnumGuard guard(&poset, slot);
    EXPECT_TRUE(guard.active());
    OnlinePoset::EnumGuard tooling = poset.pin_interval(pinned.gmin);
    EXPECT_TRUE(tooling.active());
    EXPECT_EQ(poset.outstanding_pins(), 2u);
    // The pins hold the watermark at the pinned Gmin {2} => base 1, even
    // though the clock floor would allow base 2.
    poset.insert(0, OpKind::kInternal, 0, VectorClock{3});
    poset.collect();
    EXPECT_EQ(poset.window_base(0), 1u);
    guard.release();
    EXPECT_EQ(poset.outstanding_pins(), 1u);
    poset.collect();
    EXPECT_EQ(poset.window_base(0), 1u);
  }
  EXPECT_EQ(poset.outstanding_pins(), 0u);
  poset.collect();
  EXPECT_EQ(poset.window_base(0), 2u);
}

TEST(WindowGc, CollectReturnsStorageToTheAllocator) {
  OnlinePoset poset(1);
  for (EventIndex i = 1; i <= 20000; ++i) {
    poset.insert(0, OpKind::kInternal, 0, VectorClock{i});
  }
  const std::size_t before = poset.heap_bytes();
  const auto stats = poset.collect();
  EXPECT_EQ(stats.reclaimed_events, 19999u);
  EXPECT_LT(stats.resident_bytes, before / 2);
  EXPECT_EQ(poset.heap_bytes(), stats.resident_bytes);
}

#ifndef NDEBUG
TEST(WindowGcDeathTest, ReadingReclaimedIndexAsserts) {
  OnlinePoset poset(1);
  for (EventIndex i = 1; i <= 100; ++i) {
    poset.insert(0, OpKind::kInternal, 0, VectorClock{i});
  }
  poset.collect();
  ASSERT_FALSE(poset.is_live(0, 1));
  EXPECT_DEATH(poset.vc(0, 1), "");
}
#endif

// GC-on must enumerate exactly the states GC-off enumerates, across seeds,
// collect cadences, and inline/pooled execution.
TEST(WindowGc, GcOnMatchesGcOffOracle) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SyntheticEventStream::Params params;
    params.num_threads = 4;
    params.num_locks = 2;
    params.sync_probability = 0.7;
    params.seed = seed;

    const StreamRun oracle = run_stream(params, 2000, {});
    EXPECT_TRUE(all_distinct(oracle.states));

    for (const std::size_t workers : {std::size_t{0}, std::size_t{3}}) {
      for (const std::uint64_t gc_every : {std::uint64_t{1}, std::uint64_t{64}}) {
        OnlineParamount::Options options;
        options.async_workers = workers;
        options.window_policy.gc_every = gc_every;
        const StreamRun run = run_stream(params, 2000, options);
        EXPECT_EQ(run.states.size(), oracle.states.size())
            << "seed " << seed << " workers " << workers << " gc_every "
            << gc_every;
        EXPECT_EQ(as_set(run.states), as_set(oracle.states))
            << "seed " << seed << " workers " << workers << " gc_every "
            << gc_every;
      }
    }
  }
}

// The bounded-memory claim: >= 100k inserts with concurrent pooled
// enumeration stay on a resident plateau far below the unwindowed run
// (which the ASan job additionally checks for use-after-reclaim).
TEST(WindowGc, StreamingHeapStaysBoundedAcross100kInserts) {
  SyntheticEventStream::Params params;
  params.num_threads = 4;
  params.num_locks = 2;
  params.sync_probability = 0.8;
  params.seed = 9;

  constexpr std::uint64_t kEvents = 200000;
  // Queued intervals pin the watermark, so an unbounded backlog would let
  // the scheduler set the windowed peak; this bound sets it instead.
  constexpr std::size_t kMaxInFlight = 256;
  OnlineParamount::Options windowed;
  windowed.async_workers = 3;
  windowed.window_policy.gc_every = 512;
  const StreamRun gc_run = run_stream(params, kEvents, windowed, kMaxInFlight);

  OnlineParamount::Options unwindowed;
  unwindowed.async_workers = 3;
  const StreamRun ref_run =
      run_stream(params, kEvents, unwindowed, kMaxInFlight);

  EXPECT_EQ(gc_run.states.size(), ref_run.states.size());
  std::cout << "windowed peak=" << gc_run.peak_poset_bytes
            << " windowed final=" << gc_run.final_poset_bytes
            << " unwindowed final=" << ref_run.final_poset_bytes << "\n";
  // The unwindowed poset keeps all 200k events resident forever. The
  // windowed peak is the collect cadence plus the bounded backlog, far
  // below the linear footprint, and the post-drain plateau is just the
  // partially covered tail segments.
  EXPECT_LT(gc_run.peak_poset_bytes * 2, ref_run.final_poset_bytes);
  EXPECT_LT(gc_run.final_poset_bytes * 6, ref_run.final_poset_bytes);
}

// Segments are sized in bytes, so a wide windowed poset keeps a few
// segments per thread resident rather than a few hundred rows: on a
// 64-thread lock convoy (264-byte rows) each thread's window is a few dozen
// events.
TEST(WindowGc, WideConvoyKeepsAFewSegmentsPerThread) {
  SyntheticEventStream::Params params;
  params.num_threads = 64;
  params.num_locks = 1;
  params.sync_probability = 1.0;
  params.seed = 5;
  OnlineParamount::Options options;
  options.async_workers = 3;
  options.window_policy.gc_every = 4096;
  const StreamRun run =
      run_stream(params, 64000, options, /*max_in_flight=*/256);

  const std::size_t row_bytes = (params.num_threads + 2) * sizeof(EventIndex);
  const std::size_t segment_bytes =
      StableVector<EventIndex>(params.num_threads + 2).segment_rows() *
      row_bytes;
  const std::size_t leaf_bytes = 512 * sizeof(std::atomic<EventIndex*>);
  std::cout << "peak per thread=" << run.peak_poset_bytes / params.num_threads
            << " segment=" << segment_bytes << "\n";
  EXPECT_LE(run.peak_poset_bytes,
            params.num_threads * (5 * segment_bytes + leaf_bytes));
  EXPECT_GT(run.states.size(), 64000u);
}

// collect() hammered from a dedicated thread while producers insert and
// pooled workers enumerate: pins must keep every in-flight box resident
// (TSan covers the ordering, the state count covers the semantics).
TEST(WindowGc, ConcurrentCollectEnumerateStress) {
  SyntheticEventStream::Params params;
  params.num_threads = 4;
  params.num_locks = 2;
  params.sync_probability = 0.7;
  params.seed = 21;
  const std::uint64_t total_events = 8000;

  const StreamRun oracle = run_stream(params, total_events, {});

  OnlineParamount::Options options;
  options.async_workers = 2;
  options.window_policy.gc_every = 128;
  // Queued intervals pin the watermark: with no bound on the backlog, a pool
  // that falls behind the producers pins it for the whole run and the
  // concurrent collects reclaim nothing. The bound makes them reclaim.
  constexpr std::ptrdiff_t kMaxInFlight = 64;
  std::counting_semaphore<> slots(kMaxInFlight);
  options.interval_done = [&slots](EventId) { slots.release(); };
  std::atomic<std::uint64_t> states{0};
  OnlineParamount driver(
      params.num_threads, options,
      [&](const OnlinePoset&, EventId, const Frontier&) {
        // relaxed: state tally, read after drain() below.
        states.fetch_add(1, std::memory_order_relaxed);
      });

  // The stream is sequential, and each event's clock may reference the event
  // popped just before it, so submission must stay under the stream lock
  // (popping t0#k+1 and submitting it before t0#k lands would violate the
  // insert-order contract). The producers still vary the timing between
  // inserts; the concurrency under test — pooled enumeration racing the
  // collector — lives on the pool workers and the collector thread.
  Mutex stream_mutex;
  SyntheticEventStream stream(params);
  std::uint64_t produced = 0;
  std::atomic<bool> done{false};

  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&] {
      while (true) {
        MutexLock guard(stream_mutex);
        if (produced == total_events) return;
        ++produced;
        SyntheticEventStream::StreamEvent ev = stream.next();
        slots.acquire();
        driver.submit(ev.tid, ev.kind, ev.object, std::move(ev.clock));
      }
    });
  }
  std::thread collector([&] {
    // relaxed: advisory stop flag; the collector's work is self-contained.
    while (!done.load(std::memory_order_relaxed)) {
      driver.collect();
      std::this_thread::yield();
    }
  });

  for (std::thread& p : producers) p.join();
  driver.drain();
  // relaxed: advisory stop flag, see the collector loop.
  done.store(true, std::memory_order_relaxed);
  collector.join();

  EXPECT_EQ(states.load(), oracle.states.size());
  EXPECT_GT(driver.poset().reclaimed_events(), 0u);
}

// A stream of collection events, round-robin over `threads` threads, each
// with one or two accesses: half to 16 shared variables, of which only the
// first 8 are ever written (one access in three), half to 8 variables of
// the event's own thread, so some variables race and some cannot. Seven
// events in eight join one other thread's last clock half the time, which
// leaves most of their boxes multi-state; every eighth joins every
// thread's last clock, so its interval holds the one state Gmin.
struct CollectionStream {
  struct Event {
    ThreadId tid;
    std::uint32_t object;
    VectorClock clock;
    bool one_state;
  };
  std::vector<Event> events;
  std::vector<std::vector<std::size_t>> by_thread;  // index - 1 -> events[]
  Poset poset;
};

CollectionStream make_collection_stream(std::size_t threads,
                                        std::uint64_t count,
                                        std::uint64_t seed,
                                        AccessTable& table) {
  Rng rng(seed);
  PosetBuilder builder(threads);
  OnlinePoset shadow(threads);  // says which boxes hold one state
  std::vector<CollectionStream::Event> events;
  std::vector<std::vector<std::size_t>> by_thread(threads);
  std::vector<VectorClock> last(threads, VectorClock(threads));
  for (std::uint64_t k = 0; k < count; ++k) {
    const auto t = static_cast<ThreadId>(k % threads);
    VectorClock clock = last[t];
    if (k % 8 == 7) {
      for (const VectorClock& other : last) clock.join(other);
    } else if (rng.next_bool(0.5)) {
      clock.join(last[rng.next_below(threads)]);
    }
    clock[t] += 1;
    AccessSet set;
    for (std::uint64_t a = 0; a <= rng.next_below(2); ++a) {
      const auto var = static_cast<VarId>(
          rng.next_bool(0.5) ? rng.next_below(16)
                             : 16 + 8 * t + rng.next_below(8));
      const bool is_write = (var < 8 || var >= 16) && rng.next_below(3) == 0;
      set.merge(var, is_write, /*is_init=*/false);
    }
    const std::uint32_t object = table.append(t, std::move(set));
    builder.add_event_with_clock(t, OpKind::kCollection, object, clock);
    const bool one_state =
        shadow.insert(t, OpKind::kCollection, object, clock).one_state;
    by_thread[t].push_back(events.size());
    events.push_back({t, object, clock, one_state});
    last[t] = clock;
  }
  return {std::move(events), std::move(by_thread),
          std::move(builder).build()};
}

// The window pin covers only the intervals handed to the pool. An interval
// the submitting thread enumerates takes none: its event is its thread's
// newest until submit() returns, which keeps the clock floor at or below
// its Gmin. Here a second thread runs collect() in a loop while inline and
// pooled race detectors with a small gc_every take a stream of one-state
// and multi-state intervals, and the visitor reads the whole row (kind,
// object, clock) of every frontier event of every state. Every row must be
// live and intact, the states and racy variables must equal the oracle's
// (count_ideals and the offline BFS detector), no pair may be evicted, and
// a visit on the submitting thread must see no pin beyond the pooled
// intervals in flight (none at all inline), a pooled one at least its own.
TEST(WindowGc, SubmitterIntervalsNeedNoPinUnderConcurrentCollect) {
  constexpr std::size_t kThreads = 4;
  AccessTable table(kThreads);
  const CollectionStream stream =
      make_collection_stream(kThreads, 1600, 17, table);
  std::uint64_t one_state = 0;
  for (const CollectionStream::Event& e : stream.events) {
    if (e.one_state) ++one_state;
  }
  ASSERT_GT(one_state, 0u);
  ASSERT_LT(one_state, stream.events.size());

  const std::optional<std::uint64_t> ideals = count_ideals(stream.poset);
  ASSERT_TRUE(ideals.has_value());
  RaceReport offline;
  ASSERT_FALSE(
      detect_races_offline_bfs(stream.poset, table, offline).out_of_memory);
  const std::set<VarId> oracle = [&] {
    std::set<VarId> vars;
    for (const RaceFinding& f : offline.findings()) vars.insert(f.var);
    return vars;
  }();
  ASSERT_FALSE(oracle.empty());
  ASSERT_LE(*oracle.rbegin(), 7u);  // shared and written

  for (const std::size_t workers : {0u, 3u}) {
    const std::string where = std::to_string(workers) + " workers";
    // Pooled intervals handed off and finished; their pins are registered
    // after the first count moves and released before the second does.
    std::atomic<std::uint64_t> handed{0};
    std::atomic<std::uint64_t> finished{0};
    // A bounded backlog, as in ConcurrentCollectEnumerateStress, so the
    // collects reclaim while pooled intervals run.
    std::counting_semaphore<> slots(16);
    std::atomic<std::uint64_t> states{0};
    std::atomic<std::uint64_t> bad_rows{0};
    std::atomic<std::uint64_t> bad_pins{0};
    std::atomic<std::uint64_t> unpinned_visits{0};
    std::atomic<std::uint64_t> evictions{0};
    RaceReport report;
    const std::thread::id submitter = std::this_thread::get_id();

    OnlineParamount::Options options;
    options.async_workers = workers;
    options.window_policy.gc_every = 4;
    options.interval_done = [&](EventId id) {
      const CollectionStream::Event& e =
          stream.events[stream.by_thread[id.tid][id.index - 1]];
      if (workers > 0 && !e.one_state) {
        // Sequentially consistent, like every counter here: a visitor that
        // reads this count then sees the pin released before it.
        finished.fetch_add(1);
        slots.release();
      }
    };
    OnlineParamount driver(
        kThreads, options,
        [&](const OnlinePoset& poset, EventId owner, const Frontier& state) {
          check_races(poset, table, owner, state, report, &evictions);
          for (ThreadId t = 0; t < kThreads; ++t) {
            if (state[t] == 0) continue;
            const CollectionStream::Event& want =
                stream.events[stream.by_thread[t][state[t] - 1]];
            if (!poset.is_live(t, state[t])) {
              bad_rows.fetch_add(1);
              continue;
            }
            const EventView row = poset.event(t, state[t]);
            if (row.kind != OpKind::kCollection || row.object != want.object ||
                !(row.vc == ClockView(want.clock))) {
              bad_rows.fetch_add(1);
            }
          }
          if (std::this_thread::get_id() == submitter) {
            // Read the finished count before the pins: the pins then cannot
            // exceed the pooled intervals still in flight.
            const std::uint64_t done = finished.load();
            const std::size_t pins = poset.outstanding_pins();
            const std::uint64_t in_flight = handed.load() - done;
            if (pins > in_flight) {
              bad_pins.fetch_add(1);
            }
            if (in_flight == 0) {
              unpinned_visits.fetch_add(1);
            }
          } else if (poset.outstanding_pins() == 0) {
            bad_pins.fetch_add(1);
          }
          states.fetch_add(1);
        });

    std::atomic<bool> done{false};
    std::thread collector([&] {
      while (!done.load()) {
        driver.collect();
        std::this_thread::yield();
      }
    });
    for (const CollectionStream::Event& e : stream.events) {
      if (workers > 0 && !e.one_state) {
        slots.acquire();
        handed.fetch_add(1);
      }
      driver.submit(e.tid, OpKind::kCollection, e.object, e.clock);
    }
    driver.drain();
    done.store(true);
    collector.join();

    EXPECT_EQ(states.load(), *ideals) << where;
    EXPECT_EQ(driver.states_enumerated(), *ideals) << where;
    std::set<VarId> racy;
    for (const RaceFinding& f : report.findings()) racy.insert(f.var);
    EXPECT_EQ(racy, oracle) << where;
    EXPECT_EQ(evictions.load(), 0u) << where;
    EXPECT_EQ(bad_rows.load(), 0u) << where;
    EXPECT_EQ(bad_pins.load(), 0u) << where;
    EXPECT_GT(unpinned_visits.load(), 0u) << where;
    EXPECT_EQ(finished.load(), handed.load()) << where;
    if (workers == 0) {
      EXPECT_EQ(handed.load(), 0u);
    }
    EXPECT_EQ(driver.poset().outstanding_pins(), 0u) << where;
    EXPECT_GT(driver.poset().reclaimed_events(), 0u) << where;
    std::cout << where << ": states=" << states.load()
              << " one_state=" << one_state << " handed=" << handed.load()
              << " unpinned_visits=" << unpinned_visits.load()
              << " reclaimed=" << driver.poset().reclaimed_events()
              << " racy=" << racy.size() << "\n";
  }
}

TEST(WindowGc, DetectorCountsWindowEvictions) {
  OnlinePoset poset(2);
  AccessTable table(2);
  RaceReport report;
  std::atomic<std::uint64_t> evictions{0};

  AccessSet writes;
  writes.merge(/*var=*/7, /*is_write=*/true, /*is_init=*/false);
  table.append(0, writes);
  table.append(1, writes);

  const auto e0 =
      poset.insert(0, OpKind::kCollection, 0, VectorClock{1, 0});
  const auto e1 =
      poset.insert(1, OpKind::kCollection, 0, VectorClock{0, 1});
  const Frontier both{1, 1};

  // Sanity: with everything resident the racy pair is reported.
  check_races(poset, table, e1.id, both, report, &evictions);
  EXPECT_EQ(report.num_racy_vars(), 1u);
  EXPECT_EQ(evictions.load(), 0u);

  // Force e0 out of the window (no pins, clock floors past it), then
  // re-check the same state: the pair is dropped and counted, not read.
  poset.insert(0, OpKind::kInternal, 0, VectorClock{2, 1});
  poset.insert(1, OpKind::kInternal, 0, VectorClock{2, 2});
  poset.collect();
  ASSERT_FALSE(poset.is_live(0, 1));

  RaceReport after;
  check_races(poset, table, e1.id, both, after, &evictions);
  EXPECT_EQ(after.num_racy_vars(), 0u);
  EXPECT_EQ(evictions.load(), 1u);

  // An evicted interval owner is itself dropped and counted.
  check_races(poset, table, e0.id, both, after, &evictions);
  EXPECT_EQ(evictions.load(), 2u);
}

}  // namespace
}  // namespace paramount
