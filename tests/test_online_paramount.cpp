// Online ParaMount (Algorithm 4 + Theorem 3): streaming insertion with
// concurrent interval enumeration must enumerate exactly the states the
// offline algorithms enumerate over the final poset.
#include "core/online_paramount.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>

#include "obs/telemetry.hpp"
#include "poset/clock_engine.hpp"
#include "poset/clock_validator.hpp"
#include "poset/lattice.hpp"
#include "poset/online_poset.hpp"
#include "poset/poset_builder.hpp"
#include "poset/topo_sort.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "workloads/event_stream.hpp"

namespace paramount {
namespace {

using testing::all_distinct;
using testing::as_set;
using testing::key_of;
using testing::make_random;
using testing::timed_count;
using testing::Key;

// Replays an offline poset into an OnlineParamount in the given insertion
// order (which must be a linear extension).
std::vector<Key> replay(const Poset& poset, const std::vector<EventId>& order,
                        OnlineParamount::Options options) {
  Mutex mutex;
  std::vector<Key> states;
  OnlineParamount online(
      poset.num_threads(), options,
      [&](const OnlinePoset&, EventId, const Frontier& f) {
        MutexLock guard(mutex);
        states.push_back(key_of(f));
      });
  for (const EventId id : order) {
    const Event& e = poset.event(id);
    online.submit(id.tid, e.kind, e.object, e.vc);
  }
  online.drain();
  return states;
}

TEST(OnlinePoset, InsertPublishesEventAndBounds) {
  OnlinePoset poset(2);
  const auto a = poset.insert(0, OpKind::kInternal, 0, VectorClock{1, 0});
  EXPECT_TRUE(a.first);
  EXPECT_EQ(a.id, (EventId{0, 1}));
  EXPECT_EQ(key_of(a.gmin), (Key{1, 0}));
  EXPECT_EQ(key_of(a.gbnd), (Key{1, 0}));

  const auto b = poset.insert(1, OpKind::kInternal, 0, VectorClock{1, 1});
  EXPECT_FALSE(b.first);
  EXPECT_EQ(b.position, 1u);
  EXPECT_EQ(key_of(b.gbnd), (Key{1, 1}));
  EXPECT_EQ(poset.total_events(), 2u);
  EXPECT_TRUE(poset.is_consistent(b.gbnd));
}

TEST(OnlinePoset, RejectsForwardReferences) {
  OnlinePoset poset(2);
  // Clock references event 1 of thread 1, which was never inserted.
  EXPECT_DEATH(poset.insert(0, OpKind::kInternal, 0, VectorClock{1, 1}),
               "not yet inserted");
}

TEST(OnlinePoset, RejectsBadOwnComponent) {
  OnlinePoset poset(2);
  EXPECT_DEATH(poset.insert(0, OpKind::kInternal, 0, VectorClock{5, 0}),
               "own clock component");
}

// A clock with `width` components, zero except for the listed ones.
VectorClock sparse_clock(std::size_t width,
                         std::initializer_list<std::pair<ThreadId, EventIndex>>
                             components) {
  VectorClock vc(width);
  for (const auto& [t, value] : components) vc[t] = value;
  return vc;
}

TEST(OnlinePoset, RejectsRegressionAtWidths2And64) {
  for (const std::size_t width : {2u, 64u}) {
    const ThreadId last = static_cast<ThreadId>(width - 1);
    OnlinePoset poset(width);
    poset.insert(last, OpKind::kInternal, 0, sparse_clock(width, {{last, 1}}));
    poset.insert(0, OpKind::kInternal, 0,
                 sparse_clock(width, {{0, 1}, {last, 1}}));
    // Thread 0's next clock forgets the event its previous one had seen.
    EXPECT_DEATH(poset.insert(0, OpKind::kInternal, 0,
                              sparse_clock(width, {{0, 2}})),
                 "componentwise monotone")
        << "width " << width;
  }
}

TEST(OnlinePoset, RejectsForwardReferenceInLastComponentAtWidth65) {
  constexpr std::size_t kWidth = 65;  // one component past a 16-word block
  OnlinePoset poset(kWidth);
  for (ThreadId t = 0; t + 1 < kWidth; ++t) {
    poset.insert(t, OpKind::kInternal, 0, sparse_clock(kWidth, {{t, 1}}));
  }
  EXPECT_DEATH(poset.insert(0, OpKind::kInternal, 0,
                            sparse_clock(kWidth, {{0, 2}, {kWidth - 1, 1}})),
               "not yet inserted");
}

// Both defects in one clock: the forward reference is reported, wherever
// the two sit.
TEST(OnlinePoset, RejectsClockWithBothDefectsAsForwardReference) {
  OnlinePoset poset(3);
  poset.insert(1, OpKind::kInternal, 0, VectorClock{0, 1, 0});
  poset.insert(2, OpKind::kInternal, 0, VectorClock{0, 0, 1});
  poset.insert(0, OpKind::kInternal, 0, VectorClock{1, 1, 1});
  // Regression in component 1, forward reference in component 2.
  EXPECT_DEATH(poset.insert(0, OpKind::kInternal, 0, VectorClock{2, 0, 2}),
               "not yet inserted");
  // Forward reference in component 1, regression in component 2.
  EXPECT_DEATH(poset.insert(0, OpKind::kInternal, 0, VectorClock{2, 2, 0}),
               "not yet inserted");
}

// try_insert() checks the clock in its insert pass and must give, verdict
// for verdict and message for message, what ClockValidator gives the same
// stream: random streams at every width from 1 to 70 whose candidate clocks
// carry zero to three defects (a regression, a forward reference, a wrong
// own component) at random components, plus out-of-range thread ids. A
// refused clock leaves the poset as it was, with no pin outstanding, and
// the next clean clock on the thread gets the index the refused one would
// have had; an accepted event's Gmin pins through pin_interval().
TEST(OnlinePoset, TryInsertVerdictsMatchClockValidator) {
  Rng rng(27);
  std::vector<std::uint64_t> seen(5, 0);
  for (std::size_t width = 1; width <= 70; ++width) {
    OnlinePoset poset(width);
    ClockValidator validator(width);
    std::vector<VectorClock> last(width, VectorClock(width));
    OnlinePoset::Inserted ins;
    for (int step = 0; step < 120; ++step) {
      const std::string where = "width " + std::to_string(width) + ", step " +
                                std::to_string(step);
      if (rng.next_below(40) == 0) {
        const auto tid = static_cast<ThreadId>(width + rng.next_below(3));
        const VectorClock clock(width);
        const ClockVerdict want = validator.validate(tid, clock);
        ASSERT_EQ(poset.try_insert(tid, OpKind::kInternal, 0, clock, &ins),
                  want)
            << where;
        ++seen[static_cast<std::size_t>(want)];
        continue;
      }
      const auto tid = static_cast<ThreadId>(rng.next_below(width));
      VectorClock clock = last[tid];
      clock.join(last[rng.next_below(width)]);
      clock[tid] = validator.published(tid) + 1;
      const std::uint64_t defects =
          rng.next_bool(0.5) ? 0 : 1 + rng.next_below(3);
      for (std::uint64_t d = 0; d < defects; ++d) {
        const auto j = static_cast<ThreadId>(rng.next_below(width));
        switch (rng.next_below(3)) {
          case 0:  // regression below the thread's last clock
            if (last[tid][j] > 0) {
              clock[j] = static_cast<EventIndex>(rng.next_below(last[tid][j]));
            }
            break;
          case 1:  // reference past the published count
            clock[j] = validator.published(j) + 1 +
                       static_cast<EventIndex>(rng.next_below(3));
            break;
          default:  // wrong own component
            clock[tid] = rng.next_bool(0.5)
                             ? 0
                             : validator.published(tid) + 2 +
                                   static_cast<EventIndex>(rng.next_below(3));
            break;
        }
      }
      const ClockVerdict want = validator.validate(tid, clock);
      const std::size_t before = poset.total_events();
      const ClockVerdict got =
          poset.try_insert(tid, OpKind::kInternal, 0, clock, &ins);
      ASSERT_EQ(got, want) << where;
      ASSERT_EQ(describe(got, tid, poset.num_events(tid) + 1),
                validator.describe(tid, want))
          << where;
      ++seen[static_cast<std::size_t>(want)];
      if (want != ClockVerdict::kOk) {
        ASSERT_EQ(poset.total_events(), before) << where;
        ASSERT_EQ(poset.outstanding_pins(), 0u) << where;
        continue;
      }
      const OnlinePoset::EnumGuard pin = poset.pin_interval(ins.gmin);
      ASSERT_TRUE(pin.active()) << where;
      ASSERT_EQ(poset.outstanding_pins(), 1u) << where;
      validator.commit(tid, clock);
      last[tid] = clock;
      ASSERT_EQ(ins.id, (EventId{tid, validator.published(tid)})) << where;
      ASSERT_EQ(key_of(ins.gmin), key_of(clock)) << where;
      for (ThreadId t = 0; t < width; ++t) {
        ASSERT_EQ(ins.gbnd[t], validator.published(t)) << where;
      }
    }
  }
  for (std::size_t v = 0; v < seen.size(); ++v) {
    EXPECT_GT(seen[v], 0u) << "verdict " << v << " never came up";
  }
}

TEST(OnlinePoset, Figure8BoundaryDependsOnInsertionOrder) {
  // The paper's Figure 8: the same poset (e2[1] → e1[2]) inserted in two
  // different observed orders yields different Gbnd(e1[2]) snapshots — both
  // valid Definition-1 boundaries for their respective →p.
  {
    // (a) e1[1] →p e2[1] →p e1[2] →p e2[2]: snapshot misses e2[2].
    OnlinePoset poset(2);
    poset.insert(0, OpKind::kInternal, 0, VectorClock{1, 0});
    poset.insert(1, OpKind::kInternal, 0, VectorClock{0, 1});
    const auto e12 = poset.insert(0, OpKind::kInternal, 0, VectorClock{2, 1});
    poset.insert(1, OpKind::kInternal, 0, VectorClock{0, 2});
    EXPECT_EQ(key_of(e12.gbnd), (Key{2, 1}));
  }
  {
    // (b) e1[1] →p e2[1] →p e2[2] →p e1[2]: snapshot includes e2[2].
    OnlinePoset poset(2);
    poset.insert(0, OpKind::kInternal, 0, VectorClock{1, 0});
    poset.insert(1, OpKind::kInternal, 0, VectorClock{0, 1});
    poset.insert(1, OpKind::kInternal, 0, VectorClock{0, 2});
    const auto e12 = poset.insert(0, OpKind::kInternal, 0, VectorClock{2, 1});
    EXPECT_EQ(key_of(e12.gbnd), (Key{2, 2}));
  }
}

// Regression: the out-of-lock published_frontier() used to read the
// per-thread counters at different instants, so a reader racing a writer
// could observe a *torn* cut — thread 1's count read late includes events
// whose thread-0 predecessors were not counted. The writer below makes every
// thread-1 event depend on the latest thread-0 event, so any torn read is an
// inconsistent frontier; the snapshot must validate-and-retry (or fall back
// to the insertion lock) instead.
TEST(OnlinePoset, PublishedFrontierHammerStaysConsistent) {
  // 8 threads widen the snapshot's read window: the reader scans 8 counters
  // while the writer publishes rounds of 8 mutually dependent events, so a
  // torn (unvalidated) snapshot reliably catches an earlier-read counter
  // that is stale relative to a later-read one.
  constexpr ThreadId kThreads = 8;
  OnlinePoset poset(kThreads);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> torn{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const Frontier f = poset.published_frontier();
        if (!poset.is_consistent(f)) {
          // relaxed: failure tally, read after the readers join.
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (EventIndex i = 1; i <= 40000; ++i) {
    // Round i: thread t's event depends on every event this round published
    // before it, so any cut where an earlier thread's count trails a later
    // thread's is inconsistent.
    for (ThreadId t = 0; t < kThreads; ++t) {
      VectorClock vc(kThreads);
      for (ThreadId j = 0; j < kThreads; ++j) {
        vc[j] = j <= t ? i : i - 1;
      }
      poset.insert(t, OpKind::kInternal, 0, std::move(vc));
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();

  EXPECT_EQ(torn.load(), 0u);
}

// A round-robin chain over `width` threads, described by formula so a
// reader can check any published row without sharing state with the
// writer: event k (0-based, in insertion order) is on thread k % width, and
// its clock counts, per thread, the events among the first k + 1.
struct RoundRobinChain {
  std::size_t width;

  ThreadId tid(std::uint64_t k) const {
    return static_cast<ThreadId>(k % width);
  }
  std::uint64_t position(ThreadId t, EventIndex i) const {
    return (i - 1) * width + t;
  }
  EventIndex component(std::uint64_t k, ThreadId j) const {
    return j <= k ? static_cast<EventIndex>((k - j) / width + 1) : 0;
  }
  VectorClock clock(std::uint64_t k) const {
    VectorClock vc(width);
    for (ThreadId j = 0; j < width; ++j) vc[j] = component(k, j);
    return vc;
  }
  OpKind kind(std::uint64_t k) const {
    return static_cast<OpKind>(k % (static_cast<int>(OpKind::kCollection) + 1));
  }
  std::uint32_t object(std::uint64_t k) const {
    return static_cast<std::uint32_t>(0xFFFFFFFFu - 7 * k);
  }
  // True iff the published row of event (t, i) is exactly the chain's.
  bool row_matches(const OnlinePoset& poset, ThreadId t, EventIndex i) const {
    const std::uint64_t k = position(t, i);
    const EventView e = poset.event(t, i);
    const ClockView vc = poset.vc(t, i);
    if (e.id != EventId{t, i} || e.kind != kind(k) || e.object != object(k) ||
        vc.size() != width || e.vc.data() != vc.data()) {
      return false;
    }
    for (ThreadId j = 0; j < width; ++j) {
      if (vc[j] != component(k, j)) return false;
    }
    return true;
  }
};

TEST(OnlinePoset, RowsRoundTripThroughVcAndEventAtEveryWidth) {
  // 16 is the last clock width that fits VectorClock's inline storage, 17
  // the first that spills.
  for (const std::size_t width : {1u, 6u, 16u, 17u, 64u}) {
    const RoundRobinChain chain{width};
    OnlinePoset poset(width);
    const std::uint64_t events = 3 * width + 2;
    for (std::uint64_t k = 0; k < events; ++k) {
      poset.insert(chain.tid(k), chain.kind(k), chain.object(k),
                   chain.clock(k));
    }
    for (ThreadId t = 0; t < width; ++t) {
      for (EventIndex i = 1; i <= poset.num_events(t); ++i) {
        ASSERT_TRUE(chain.row_matches(poset, t, i))
            << "width " << width << ", event " << EventId{t, i}.to_string();
        EXPECT_EQ(VectorClock(poset.vc(t, i)),
                  chain.clock(chain.position(t, i)));
      }
    }
  }
}

// Theorem 3's lock-free read path: a reader checks every row the writer has
// published while the writer keeps appending. A row read through an observed
// num_events() must be complete, never partly written.
TEST(OnlinePoset, ReaderChecksEveryPublishedRowWhileWriterAppends) {
  constexpr std::size_t kWidth = 17;  // clocks wider than the inline buffer
  constexpr std::uint64_t kEvents = 20000;
  const RoundRobinChain chain{kWidth};
  OnlinePoset poset(kWidth);
  std::atomic<bool> done{false};
  std::uint64_t bad_rows = 0;
  std::uint64_t rows_checked = 0;

  std::thread reader([&] {
    std::vector<EventIndex> checked(kWidth, 0);
    bool last_pass = false;
    while (!last_pass) {
      last_pass = done.load(std::memory_order_acquire);
      for (ThreadId t = 0; t < kWidth; ++t) {
        const EventIndex published = poset.num_events(t);
        for (EventIndex i = checked[t] + 1; i <= published; ++i) {
          if (!chain.row_matches(poset, t, i)) ++bad_rows;
          ++rows_checked;
        }
        checked[t] = published;
      }
    }
  });
  for (std::uint64_t k = 0; k < kEvents; ++k) {
    poset.insert(chain.tid(k), chain.kind(k), chain.object(k),
                 chain.clock(k));
  }
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(bad_rows, 0u);
  EXPECT_EQ(rows_checked, kEvents);
}

// heap_bytes() counts the clock rows themselves, so it is at least
// (n clock words + kind + object) per resident event at every width, and it
// falls when collect() frees a segment.
TEST(OnlinePoset, HeapBytesCountEveryClockRow) {
  for (const std::size_t width : {6u, 64u}) {
    const RoundRobinChain chain{width};
    OnlinePoset poset(width);
    // Enough events per thread to fill two segments, so collect() can free
    // at least one whole segment per thread.
    const std::size_t segment_rows =
        StableVector<EventIndex>(width + 2).segment_rows();
    const std::uint64_t events = (2 * segment_rows + 8) * width;
    for (std::uint64_t k = 0; k < events; ++k) {
      poset.insert(chain.tid(k), chain.kind(k), chain.object(k),
                   chain.clock(k));
    }
    const std::size_t row_bytes = (width + 2) * sizeof(EventIndex);
    const std::size_t before = poset.heap_bytes();
    EXPECT_GE(before, events * row_bytes) << "width " << width;

    const OnlinePoset::CollectStats stats = poset.collect();
    ASSERT_GT(stats.reclaimed_events, 0u) << "width " << width;
    EXPECT_EQ(stats.resident_bytes, poset.heap_bytes());
    EXPECT_LT(poset.heap_bytes(), before) << "width " << width;
    EXPECT_GE(poset.heap_bytes(),
              (events - poset.reclaimed_events()) * row_bytes)
        << "width " << width;
  }
}

// Every Inserted against a count of inserted events the test keeps itself,
// on random consistent streams, and the insert core's (try_append) against
// insert()'s. The widths straddle Frontier's inline capacity (16, 17) and
// a 64-component block (63, 64, 65).
TEST(OnlinePoset, InsertedMatchesOwnCountsAtEveryWidth) {
  for (const std::size_t width : {1u, 2u, 6u, 16u, 17u, 63u, 64u, 65u}) {
    for (const bool gc : {false, true}) {
      Rng rng(width * 2 + (gc ? 1 : 0));
      OnlinePoset poset(width);
      // A twin fed through the insert core alone, as OnlineParamount feeds
      // it: its Inserted never gets Gmin, and Gbnd only for multi-state
      // boxes, so the stale values below must survive.
      OnlinePoset twin(width);
      OnlinePoset::Inserted appended;
      const VectorClock stale{7, 7, 7};
      appended.gmin = stale;
      appended.gbnd = stale;
      std::vector<VectorClock> last(width, VectorClock(width));
      Key counts(width, 0);
      OnlinePoset::Inserted ins;  // reused, as OnlineParamount does
      std::uint64_t one_state = 0;
      const std::uint64_t events = 30 * width + 40;
      for (std::uint64_t k = 0; k < events; ++k) {
        const auto t = static_cast<ThreadId>(rng.next_below(width));
        // The new clock joins what its thread saw with one other thread's
        // last event, or, one time in four, with every thread's, which
        // makes a one-state interval.
        VectorClock vc = last[t];
        if (rng.next_below(4) == 0) {
          for (const VectorClock& other : last) vc.join(other);
        } else {
          vc.join(last[rng.next_below(width)]);
        }
        vc[t] = counts[t] + 1;
        poset.insert(t, OpKind::kInternal, static_cast<std::uint32_t>(k), vc,
                     &ins);
        const VectorClock gbnd_before = appended.gbnd;
        ASSERT_EQ(twin.try_append(t, OpKind::kInternal,
                                  static_cast<std::uint32_t>(k), vc, &appended),
                  ClockVerdict::kOk);
        ++counts[t];
        last[t] = vc;

        const std::string where =
            "width " + std::to_string(width) + (gc ? " gc" : "") +
            ", event " + std::to_string(k);
        ASSERT_EQ(ins.id, (EventId{t, counts[t]})) << where;
        ASSERT_EQ(ins.gmin, vc) << where;
        ASSERT_EQ(key_of(ins.gbnd), counts) << where;
        ASSERT_EQ(ins.one_state, ins.gmin == ins.gbnd) << where;
        ASSERT_TRUE(poset.is_consistent(ins.gbnd)) << where;
        ASSERT_EQ(ins.position, k) << where;
        ASSERT_EQ(ins.first, k == 0) << where;
        ASSERT_EQ(appended.id, ins.id) << where;
        ASSERT_EQ(appended.position, ins.position) << where;
        ASSERT_EQ(appended.first, ins.first) << where;
        ASSERT_EQ(appended.one_state, ins.one_state) << where;
        ASSERT_EQ(appended.gmin, stale) << where;
        ASSERT_EQ(appended.gbnd, ins.one_state ? gbnd_before : ins.gbnd)
            << where;
        if (ins.one_state) ++one_state;
        if (gc && k % 32 == 31) {
          poset.collect();
          twin.collect();
        }
      }
      EXPECT_GT(one_state, 0u) << "width " << width;
      if (width > 1) {
        EXPECT_LT(one_state, events) << "width " << width;
      }
      if (gc) {
        EXPECT_GT(poset.reclaimed_events(), 0u) << "width " << width;
      }
    }
  }
}

TEST(OnlineParamount, SequentialReplayMatchesOracle) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Poset poset = make_random(4, 28, 0.4, seed);
    std::set<Key> oracle;
    for (const Frontier& f : all_ideals(poset)) oracle.insert(key_of(f));

    for (const auto policy :
         {TopoPolicy::kInterleave, TopoPolicy::kThreadMajor,
          TopoPolicy::kRandom}) {
      const auto order = topological_sort(poset, policy, seed);
      const auto states = replay(poset, order, {});
      EXPECT_TRUE(all_distinct(states));
      EXPECT_EQ(as_set(states), oracle) << to_string(policy);
    }
  }
}

// Pooled replay that also records, per interval, whether interval_done ran on
// the submitting thread.
struct PooledRun {
  std::vector<Key> states;
  std::uint64_t done_on_submitter = 0;
  std::uint64_t done_elsewhere = 0;
  std::uint64_t states_enumerated = 0;
  std::size_t outstanding_pins = 0;
  obs::MetricsSnapshot metrics;
};

PooledRun replay_pooled(const Poset& poset, const std::vector<EventId>& order,
                        OnlineParamount::WindowPolicy window_policy) {
  constexpr std::size_t kWorkers = 3;
  obs::Telemetry telemetry(poset.num_threads() + kWorkers);
  const std::thread::id submitter = std::this_thread::get_id();
  std::atomic<std::uint64_t> on_submitter{0};
  std::atomic<std::uint64_t> elsewhere{0};
  OnlineParamount::Options options;
  options.async_workers = kWorkers;
  options.telemetry = &telemetry;
  options.window_policy = window_policy;
  options.interval_done = [&](EventId) {
    // relaxed: tallies read after drain(), which orders every interval.
    (std::this_thread::get_id() == submitter ? on_submitter : elsewhere)
        .fetch_add(1, std::memory_order_relaxed);
  };
  PooledRun run;
  Mutex mutex;
  OnlineParamount online(
      poset.num_threads(), options,
      [&](const OnlinePoset&, EventId, const Frontier& f) {
        MutexLock guard(mutex);
        run.states.push_back(key_of(f));
      });
  for (const EventId id : order) {
    const Event& e = poset.event(id);
    online.submit(id.tid, e.kind, e.object, e.vc);
  }
  online.drain();
  run.done_on_submitter = on_submitter.load();
  run.done_elsewhere = elsewhere.load();
  run.states_enumerated = online.states_enumerated();
  run.outstanding_pins = online.poset().outstanding_pins();
  run.metrics = telemetry.snapshot();
  return run;
}

// A chain across four threads (every event follows the one inserted before
// it) is a total order: Gmin == Gbnd for every event, so pooled mode must
// enumerate every interval on the submitting thread and queue nothing.
TEST(OnlineParamount, PooledChainRunsEveryIntervalOnSubmitter) {
  constexpr ThreadId kThreads = 4;
  constexpr std::size_t kEvents = 40;
  PosetBuilder builder(kThreads);
  EventId prev = builder.add_event(0);
  for (std::size_t i = 1; i < kEvents; ++i) {
    prev = builder.add_event_after(static_cast<ThreadId>(i % kThreads), prev);
  }
  const Poset poset = std::move(builder).build();
  const auto order = topological_sort(poset, TopoPolicy::kInterleave);

  const PooledRun run = replay_pooled(poset, order, {/*gc_every=*/8, 0});
  EXPECT_EQ(run.done_on_submitter, kEvents);
  EXPECT_EQ(run.done_elsewhere, 0u);
  EXPECT_EQ(run.states_enumerated, count_ideals(poset).value());
  EXPECT_EQ(run.outstanding_pins, 0u);
  EXPECT_EQ(run.metrics.find_counter("pool.tasks")->total, 0u);
  if constexpr (obs::kTelemetryEnabled) {
    EXPECT_EQ(run.metrics.find_counter("paramount.intervals")->total, kEvents);
  }
}

// Every interval of a chain holds one state, its Gmin, which submit() visits
// directly instead of running the subroutine. Inline and pooled, each event
// is visited exactly once, at its own clock and on the submitting thread,
// and the first event's interval still also owns the empty state.
TEST(OnlineParamount, OneStateIntervalsVisitGminOnceInlineAndPooled) {
  constexpr std::size_t kWidth = 17;  // clocks wider than the inline buffer
  constexpr std::uint64_t kEvents = 3 * kWidth + 5;
  const RoundRobinChain chain{kWidth};
  for (const std::size_t workers : {0u, 2u}) {
    struct Visit {
      EventId owner;
      Key state;
      bool on_submitter;
    };
    const std::thread::id submitter = std::this_thread::get_id();
    Mutex mutex;
    std::vector<Visit> visits;
    OnlineParamount::Options options;
    options.async_workers = workers;
    options.window_policy.gc_every = 8;
    OnlineParamount online(
        kWidth, options,
        [&](const OnlinePoset&, EventId owner, const Frontier& f) {
          MutexLock guard(mutex);
          visits.push_back(
              {owner, key_of(f), std::this_thread::get_id() == submitter});
        });
    for (std::uint64_t k = 0; k < kEvents; ++k) {
      online.submit(chain.tid(k), chain.kind(k), chain.object(k),
                    chain.clock(k));
    }
    online.drain();

    ASSERT_EQ(visits.size(), kEvents + 1) << workers << " workers";
    EXPECT_EQ(visits[0].owner, (EventId{0, 1}));
    EXPECT_EQ(visits[0].state, Key(kWidth, 0));
    for (std::uint64_t k = 0; k < kEvents; ++k) {
      const Visit& v = visits[k + 1];
      EXPECT_EQ(v.owner.tid, chain.tid(k)) << "event " << k;
      EXPECT_EQ(chain.position(v.owner.tid, v.owner.index), k);
      EXPECT_EQ(v.state, key_of(chain.clock(k))) << "event " << k;
      EXPECT_TRUE(v.on_submitter) << "event " << k;
    }
    EXPECT_EQ(online.states_enumerated(), kEvents + 1);
    EXPECT_EQ(online.intervals_processed(), kEvents);
    EXPECT_EQ(online.poset().outstanding_pins(), 0u);
  }
}

// Mixed boxes: exactly the events whose Gbnd differs from their Gmin go to
// the pool; every interval is still enumerated once and the union of the
// intervals is the lattice.
TEST(OnlineParamount, AsyncWorkersMatchOracle) {
  const Poset poset = make_random(4, 26, 0.4, 11);
  std::set<Key> oracle;
  for (const Frontier& f : all_ideals(poset)) oracle.insert(key_of(f));
  const auto order = topological_sort(poset, TopoPolicy::kInterleave);

  std::uint64_t multi_state = 0;
  OnlinePoset shadow(poset.num_threads());
  for (const EventId id : order) {
    const OnlinePoset::Inserted ins =
        shadow.insert(id.tid, OpKind::kInternal, 0, poset.event(id).vc);
    if (ins.gbnd != ins.gmin) ++multi_state;
  }
  ASSERT_GT(multi_state, 0u);
  ASSERT_LT(multi_state, order.size());

  const PooledRun run = replay_pooled(poset, order, {});
  EXPECT_TRUE(all_distinct(run.states));
  EXPECT_EQ(as_set(run.states), oracle);
  EXPECT_EQ(run.done_elsewhere, multi_state);
  EXPECT_EQ(run.done_on_submitter, order.size() - multi_state);
  if constexpr (obs::kTelemetryEnabled) {
    EXPECT_EQ(run.metrics.find_counter("pool.tasks")->total, multi_state);
    EXPECT_EQ(run.metrics.find_counter("paramount.intervals")->total,
              order.size());
  }
}

// The driver's telemetry counts every event and every interval exactly
// once, inline and pooled, in both shard layouts: a claim per event on the
// submitting side's shard, and per interval one interval_states
// observation, on whichever shard enumerated it. The timed histograms
// (gbnd_ns, interval_ns) hold the weighted count of the sampled events:
// timed_count(k) for the k events of each submitting shard. With
// single_submitter the submitting side is shard 0 alone, so the sink holds
// 1 + async_workers shards.
TEST(OnlineParamount, TelemetryCountsEveryEventAndIntervalOnce) {
  const Poset poset = make_random(4, 26, 0.4, 11);
  const auto order = topological_sort(poset, TopoPolicy::kInterleave);
  for (const std::size_t workers : {0u, 3u}) {
    for (const bool single : {false, true}) {
      const std::string where = std::to_string(workers) + " workers, " +
                                (single ? "single" : "per-thread") +
                                " submitter shards";
      const std::size_t submit_shards = single ? 1 : poset.num_threads();
      obs::Telemetry telemetry(submit_shards + workers,
                               /*trace_capacity_per_shard=*/0);
      OnlineParamount::Options options;
      options.async_workers = workers;
      options.telemetry = &telemetry;
      options.single_submitter = single;
      options.window_policy.gc_every = 8;
      OnlineParamount online(
          poset.num_threads(), options,
          [](const OnlinePoset&, EventId, const Frontier&) {});
      for (const EventId id : order) {
        online.submit(id.tid, OpKind::kInternal, 0, poset.event(id).vc);
      }
      online.drain();
      ASSERT_EQ(online.intervals_processed(), order.size()) << where;
      if constexpr (!obs::kTelemetryEnabled) continue;
      const obs::MetricsSnapshot snap = telemetry.snapshot();
      std::uint64_t timed = 0;
      for (std::size_t shard = 0; shard < submit_shards; ++shard) {
        timed += timed_count(
            single ? order.size()
                   : poset.num_events(static_cast<ThreadId>(shard)));
      }
      EXPECT_EQ(snap.find_histogram("paramount.interval_ns")->count, timed)
          << where;
      EXPECT_EQ(snap.find_histogram("paramount.interval_states")->count,
                online.intervals_processed())
          << where;
      EXPECT_EQ(snap.find_counter("paramount.intervals")->total,
                online.intervals_processed())
          << where;
      EXPECT_EQ(snap.find_counter("paramount.states")->total,
                online.states_enumerated())
          << where;
      const obs::HistogramSnapshot* gbnd =
          snap.find_histogram("paramount.gbnd_ns");
      const obs::CounterSnapshot* claims =
          snap.find_counter("paramount.claims");
      EXPECT_EQ(gbnd->count, timed) << where;
      EXPECT_EQ(claims->total, order.size()) << where;
      for (std::size_t shard = 0; shard < submit_shards; ++shard) {
        const std::size_t want =
            single ? order.size()
                   : poset.num_events(static_cast<ThreadId>(shard));
        EXPECT_EQ(claims->per_shard[shard], want)
            << where << ", shard " << shard;
        EXPECT_EQ(gbnd->per_shard_count[shard], timed_count(want))
            << where << ", shard " << shard;
      }
      // The pool's shards sit right above the submitting side's.
      std::uint64_t pooled = 0;
      for (std::size_t w = 0; w < workers; ++w) {
        pooled += snap.find_counter("pool.tasks")->per_shard[submit_shards + w];
      }
      EXPECT_EQ(pooled, snap.find_counter("pool.tasks")->total) << where;
    }
  }
}

// A lock-synchronised stream in which thread t submits about t + 1 times
// as many events as thread 0, so each submitting shard's countdown wraps
// at its own point.
std::vector<SyntheticEventStream::StreamEvent> skewed_stream(
    std::size_t threads, std::size_t events, std::uint64_t seed) {
  Rng rng(seed);
  ClockEngine engine(threads);
  const std::uint64_t weights = threads * (threads + 1) / 2;
  std::vector<SyntheticEventStream::StreamEvent> out(events);
  for (SyntheticEventStream::StreamEvent& ev : out) {
    std::uint64_t pick = rng.next_below(weights);
    ev.tid = 0;
    while (pick > ev.tid) pick -= ++ev.tid;
    if (rng.next_double() < 0.8) {
      ev.kind = OpKind::kAcquire;
      ev.object = static_cast<std::uint32_t>(rng.next_below(2));
      engine.sync_step(ev.tid, ev.object, &ev.clock);
    } else {
      ev.kind = OpKind::kInternal;
      ev.object = 0;
      engine.local_step(ev.tid, &ev.clock);
    }
  }
  return out;
}

// The driver times the first event of each submitting shard and every
// kTimedEventEvery-th after it, inline and pooled, in both shard layouts.
// For k_s events submitted on shard s, gbnd_ns, interval_ns and
// event_to_done_ns each count exactly N * sum_s ceil(k_s / N), whichever
// thread enumerated the interval, and each timed event records exactly two
// spans: its gbnd_snapshot and its interval (a pooled interval's task span
// is the pool's, one per task). The counters and interval_states stay
// exact for every event.
TEST(OnlineParamount, TelemetryTimesOneEventInN) {
  constexpr std::size_t kThreads = 4;
  const std::vector<SyntheticEventStream::StreamEvent> events =
      skewed_stream(kThreads, 1000, 5);
  for (const std::size_t workers : {0u, 3u}) {
    for (const bool single : {false, true}) {
      const std::string where = std::to_string(workers) + " workers, " +
                                (single ? "single" : "per-thread") +
                                " submitter shards";
      const std::size_t submit_shards = single ? 1 : kThreads;
      obs::Telemetry telemetry(submit_shards + workers,
                               /*trace_capacity_per_shard=*/4096);
      OnlineParamount::Options options;
      options.async_workers = workers;
      options.telemetry = &telemetry;
      options.single_submitter = single;
      options.window_policy.gc_every = 8;
      OnlineParamount online(
          kThreads, options,
          [](const OnlinePoset&, EventId, const Frontier&) {});
      std::vector<std::uint64_t> submitted(submit_shards, 0);
      for (const SyntheticEventStream::StreamEvent& ev : events) {
        online.submit(ev.tid, ev.kind, ev.object, ev.clock);
        ++submitted[single ? 0 : ev.tid];
      }
      online.drain();
      ASSERT_EQ(online.intervals_processed(), events.size()) << where;
      if constexpr (!obs::kTelemetryEnabled) continue;
      const obs::MetricsSnapshot snap = telemetry.snapshot();
      EXPECT_EQ(snap.find_counter("paramount.claims")->total, events.size())
          << where;
      EXPECT_EQ(snap.find_counter("paramount.intervals")->total,
                events.size())
          << where;
      EXPECT_EQ(snap.find_counter("paramount.states")->total,
                online.states_enumerated())
          << where;
      EXPECT_EQ(snap.find_histogram("paramount.interval_states")->count,
                events.size())
          << where;
      std::uint64_t weighted = 0;
      for (std::size_t shard = 0; shard < submit_shards; ++shard) {
        ASSERT_GT(submitted[shard], obs::Telemetry::kTimedEventEvery)
            << where << ", shard " << shard;
        weighted += timed_count(submitted[shard]);
        EXPECT_EQ(snap.find_histogram("paramount.gbnd_ns")
                      ->per_shard_count[shard],
                  timed_count(submitted[shard]))
            << where << ", shard " << shard;
      }
      for (const char* name : {"paramount.gbnd_ns", "paramount.interval_ns",
                               "online.event_to_done_ns"}) {
        EXPECT_EQ(snap.find_histogram(name)->count, weighted)
            << where << ", " << name;
      }
      const std::uint64_t timed = weighted / obs::Telemetry::kTimedEventEvery;
      EXPECT_EQ(telemetry.tracer().dropped(), 0u) << where;
      EXPECT_EQ(telemetry.tracer().recorded(),
                2 * timed + snap.find_counter("pool.tasks")->total)
          << where;
    }
  }
}

// online.event_to_done_ns runs from the first clock read of a timed
// event's insert to the end read of its interval, with the same weight as
// gbnd_ns, so its count is gbnd_ns's, inline and pooled. Inline, both ends
// are the reads that bound gbnd_ns and interval_ns, so its sum is theirs.
TEST(OnlineParamount, TelemetryEventToDoneSpansInsertAndInterval) {
  const std::vector<SyntheticEventStream::StreamEvent> events =
      skewed_stream(4, 300, 9);
  for (const std::size_t workers : {0u, 3u}) {
    obs::Telemetry telemetry(1 + workers, /*trace_capacity_per_shard=*/0);
    OnlineParamount::Options options;
    options.async_workers = workers;
    options.telemetry = &telemetry;
    options.single_submitter = true;
    OnlineParamount online(
        4, options, [](const OnlinePoset&, EventId, const Frontier&) {});
    for (const SyntheticEventStream::StreamEvent& ev : events) {
      online.submit(ev.tid, ev.kind, ev.object, ev.clock);
    }
    online.drain();
    if constexpr (!obs::kTelemetryEnabled) continue;
    const obs::MetricsSnapshot snap = telemetry.snapshot();
    const obs::HistogramSnapshot* gbnd =
        snap.find_histogram("paramount.gbnd_ns");
    const obs::HistogramSnapshot* interval =
        snap.find_histogram("paramount.interval_ns");
    const obs::HistogramSnapshot* done =
        snap.find_histogram("online.event_to_done_ns");
    EXPECT_EQ(done->count, gbnd->count) << workers << " workers";
    EXPECT_EQ(done->count, timed_count(events.size()))
        << workers << " workers";
    if (workers == 0) {
      EXPECT_EQ(done->sum, gbnd->sum + interval->sum);
    }
  }
}

TEST(OnlineParamount, SubroutineChoiceIrrelevant) {
  const Poset poset = make_random(3, 21, 0.5, 13);
  const auto order = topological_sort(poset, TopoPolicy::kInterleave);
  std::set<Key> reference;
  for (const Frontier& f : all_ideals(poset)) reference.insert(key_of(f));
  for (const auto algorithm : {EnumAlgorithm::kBfs, EnumAlgorithm::kLexical}) {
    OnlineParamount::Options options;
    options.subroutine = algorithm;
    EXPECT_EQ(as_set(replay(poset, order, options)), reference)
        << to_string(algorithm);
  }
}

TEST(OnlineParamount, CountsStatesAndIntervals) {
  const Poset poset = make_random(4, 20, 0.4, 17);
  const auto order = topological_sort(poset, TopoPolicy::kInterleave);
  OnlineParamount online(poset.num_threads(), {},
                         [](const OnlinePoset&, EventId, const Frontier&) {});
  for (const EventId id : order) {
    online.submit(id.tid, OpKind::kInternal, 0, poset.event(id).vc);
  }
  online.drain();
  EXPECT_EQ(online.intervals_processed(), poset.total_events());
  EXPECT_EQ(online.states_enumerated(), count_ideals(poset).value());
}

// Theorem 3 under real concurrency: producer threads submit their own
// thread's events as soon as all causal predecessors are published, while
// enumeration runs inline on the submitting threads.
TEST(OnlineParamount, ConcurrentProducersMatchOracle) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Poset poset = make_random(4, 32, 0.4, seed);
    std::set<Key> oracle;
    for (const Frontier& f : all_ideals(poset)) oracle.insert(key_of(f));

    Mutex mutex;
    std::vector<Key> states;
    OnlineParamount online(
        poset.num_threads(), {},
        [&](const OnlinePoset&, EventId, const Frontier& f) {
          MutexLock guard(mutex);
          states.push_back(key_of(f));
        });

    // One producer per poset thread; each waits (by spinning on the online
    // poset's published counts) until its next event's dependencies are in.
    std::vector<std::thread> producers;
    for (ThreadId t = 0; t < poset.num_threads(); ++t) {
      producers.emplace_back([&, t] {
        for (EventIndex i = 1; i <= poset.num_events(t); ++i) {
          const VectorClock& vc = poset.vc(t, i);
          while (true) {
            bool ready = true;
            for (ThreadId j = 0; j < poset.num_threads(); ++j) {
              if (j != t && online.poset().num_events(j) < vc[j]) {
                ready = false;
                break;
              }
            }
            if (ready) break;
            std::this_thread::yield();
          }
          online.submit(t, OpKind::kInternal, 0, vc);
        }
      });
    }
    for (std::thread& p : producers) p.join();
    online.drain();

    EXPECT_TRUE(all_distinct(states));
    EXPECT_EQ(as_set(states), oracle);
  }
}

// Events of one program thread are submitted one at a time: an interval the
// submitting thread enumerates takes no pin because its event stays its
// thread's newest. Here a second OS thread submits thread 0's next event
// while the first event's visitor blocks, and the first interval aborts
// when it finishes, inline and pooled (a one-state interval stays on the
// submitting thread in both).
TEST(OnlineParamountDeathTest, SecondSubmitterOfOneThreadAborts) {
  for (const std::size_t workers : {0u, 2u}) {
    const auto race = [workers] {
      std::atomic<int> phase{0};
      OnlineParamount::Options options;
      options.async_workers = workers;
      options.window_policy.gc_every = 1;
      OnlineParamount online(
          1, options, [&phase](const OnlinePoset&, EventId owner,
                               const Frontier& state) {
            if (owner.index != 1 || state[0] != 1) return;
            phase.store(1);
            while (phase.load() != 2) std::this_thread::yield();
          });
      std::thread second([&] {
        while (phase.load() != 1) std::this_thread::yield();
        online.submit(0, OpKind::kInternal, 0, VectorClock{2});
        phase.store(2);
      });
      online.submit(0, OpKind::kInternal, 0, VectorClock{1});
      second.join();
    };
    EXPECT_DEATH(race(), "one at a time") << workers << " workers";
  }
}

// A visitor may submit to another driver. Each nesting depth of submit()
// has its own Inserted, so the inner insert leaves the outer interval alone:
// the outer driver enumerates its own lattice with its own owners, and the
// inner driver enumerates its own.
TEST(OnlineParamount, NestedSubmitToAnotherDriverKeepsTheOuterInterval) {
  // Outer: two independent 5-event chains, whose lattice has 6 x 6 states.
  // Inner: its events alternate between two independent chains.
  constexpr EventIndex kChain = 5;
  constexpr std::uint64_t kInnerCap = 50;
  std::uint64_t inner_states = 0;
  std::uint64_t inner_events = 0;
  Key inner_counts(2, 0);
  OnlineParamount inner(2, {},
                        [&](const OnlinePoset&, EventId, const Frontier&) {
                          ++inner_states;
                        });
  // Runs the outer driver; with `nest`, each outer state submits one event
  // to the inner driver.
  const auto outer_run = [&](bool nest) {
    std::vector<std::pair<EventId, Key>> visits;
    OnlineParamount outer(
        2, {}, [&](const OnlinePoset&, EventId owner, const Frontier& f) {
          visits.emplace_back(owner, key_of(f));
          if (!nest || inner_events >= kInnerCap) return;
          const auto t = static_cast<ThreadId>(inner_events++ % 2);
          ++inner_counts[t];
          inner.submit(t, OpKind::kInternal, 0,
                       sparse_clock(2, {{t, inner_counts[t]}}));
        });
    for (EventIndex i = 1; i <= kChain; ++i) {
      for (ThreadId t = 0; t < 2; ++t) {
        outer.submit(t, OpKind::kInternal, 0, sparse_clock(2, {{t, i}}));
      }
    }
    EXPECT_EQ(outer.states_enumerated(), 36u);
    return visits;
  };
  const auto nested = outer_run(true);
  const auto reference = outer_run(false);

  ASSERT_EQ(nested.size(), 36u);
  std::set<Key> states;
  for (const auto& [owner, state] : nested) {
    EXPECT_LT(owner.tid, 2u);
    EXPECT_LE(owner.index, kChain) << owner.to_string();
    states.insert(state);
  }
  EXPECT_EQ(states.size(), 36u);
  EXPECT_EQ(nested, reference);

  ASSERT_EQ(inner_events, 36u);
  const std::uint64_t inner_lattice =
      std::uint64_t{inner_counts[0] + 1} * (inner_counts[1] + 1);
  EXPECT_EQ(inner_states, inner_lattice);
  EXPECT_EQ(inner.states_enumerated(), inner_lattice);
}

}  // namespace
}  // namespace paramount
