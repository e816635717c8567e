// Offline ParaMount (Algorithm 1 + Theorem 2): exactly-once parallel
// enumeration that matches the sequential algorithms for every subroutine,
// worker count and topological policy.
#include "core/paramount.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "enumeration/bfs_enumerator.hpp"
#include "poset/lattice.hpp"
#include "test_helpers.hpp"
#include "util/sync.hpp"

namespace paramount {
namespace {

using testing::all_distinct;
using testing::as_set;
using testing::counting_visitor;
using testing::key_of;
using testing::make_antichain;
using testing::make_chain;
using testing::make_figure4_poset;
using testing::make_random;
using testing::Key;

std::vector<Key> collect_paramount(const Poset& poset,
                                   const ParamountOptions& options,
                                   ParamountResult* result_out = nullptr) {
  Mutex mutex;
  std::vector<Key> states;
  const ParamountResult result =
      enumerate_paramount(poset, options, [&](const Frontier& f) {
        MutexLock guard(mutex);
        states.push_back(key_of(f));
      });
  if (result_out != nullptr) *result_out = result;
  return states;
}

TEST(Paramount, EmptyPosetYieldsEmptyState) {
  PosetBuilder builder(2);
  const Poset poset = std::move(builder).build();
  ParamountResult result;
  const auto states = collect_paramount(poset, {}, &result);
  EXPECT_EQ(states, (std::vector<Key>{{0, 0}}));
  EXPECT_EQ(result.states, 1u);
}

TEST(Paramount, Figure4SingleWorker) {
  const Poset poset = make_figure4_poset();
  const auto states = collect_paramount(poset, {});
  EXPECT_EQ(states.size(), 7u);
  EXPECT_TRUE(all_distinct(states));
}

// The central correctness property (Theorem 2): for every combination of
// subroutine, worker count and →p policy, ParaMount enumerates exactly the
// set of consistent states, each exactly once.
class ParamountExactlyOnce
    : public ::testing::TestWithParam<
          std::tuple<EnumAlgorithm, std::size_t, TopoPolicy>> {};

TEST_P(ParamountExactlyOnce, MatchesOracle) {
  const auto [subroutine, workers, policy] = GetParam();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Poset poset = make_random(4, 32, 0.35, seed);
    std::set<Key> oracle;
    for (const Frontier& f : all_ideals(poset)) oracle.insert(key_of(f));

    ParamountOptions options;
    options.subroutine = subroutine;
    options.num_workers = workers;
    options.topo_policy = policy;
    options.seed = seed;
    ParamountResult result;
    const auto states = collect_paramount(poset, options, &result);

    EXPECT_TRUE(all_distinct(states)) << "a state was enumerated twice";
    EXPECT_EQ(as_set(states), oracle);
    EXPECT_EQ(result.states, oracle.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ParamountExactlyOnce,
    ::testing::Combine(::testing::Values(EnumAlgorithm::kBfs,
                                         EnumAlgorithm::kLexical),
                       ::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(TopoPolicy::kInterleave,
                                         TopoPolicy::kThreadMajor,
                                         TopoPolicy::kRandom)));

// Over a caller-supplied →p (the entry point trace replay uses), the driver
// must match the oracle for every worker count and policy.
class ParamountStreaming
    : public ::testing::TestWithParam<std::tuple<std::size_t, TopoPolicy>> {};

TEST_P(ParamountStreaming, MatchesOracle) {
  const auto [workers, policy] = GetParam();
  const Poset poset = make_random(4, 30, 0.4, 8);
  std::set<Key> oracle;
  for (const Frontier& f : all_ideals(poset)) oracle.insert(key_of(f));

  const auto order = topological_sort(poset, policy, 8);
  ParamountOptions options;
  options.num_workers = workers;
  Mutex mutex;
  std::vector<Key> states;
  const ParamountResult result = enumerate_paramount_streaming(
      poset, order, options, [&](const Frontier& f) {
        MutexLock guard(mutex);
        states.push_back(key_of(f));
      });
  EXPECT_TRUE(all_distinct(states));
  EXPECT_EQ(as_set(states), oracle);
  EXPECT_EQ(result.states, oracle.size());
}

INSTANTIATE_TEST_SUITE_P(
    Workers, ParamountStreaming,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(TopoPolicy::kInterleave,
                                         TopoPolicy::kRandom)));

// The interval a state belongs to (Theorem 2): the position in →p of its
// last event. The empty state belongs to the first interval (Figure 6a).
class IntervalIndex {
 public:
  IntervalIndex(const Poset& poset, const std::vector<EventId>& order)
      : position_(poset.num_threads()) {
    for (ThreadId t = 0; t < poset.num_threads(); ++t) {
      position_[t].resize(poset.num_events(t) + 1);
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      position_[order[i].tid][order[i].index] = i;
    }
  }

  std::size_t operator()(const Frontier& f) const {
    std::size_t last = 0;
    for (ThreadId t = 0; t < position_.size(); ++t) {
      if (f[t] > 0) last = std::max(last, position_[t][f[t]]);
    }
    return last;
  }

 private:
  std::vector<std::vector<std::size_t>> position_;
};

// At one worker the visit order is fixed: the worker claims one event per
// cursor visit, from the end of →p, and enumerates its interval before it
// claims again. So the intervals come in strictly decreasing →p position,
// and every entry point shares this order.
TEST(ParamountCursor, OneWorkerClaimsPFromItsEnd) {
  const Poset poset = make_random(4, 30, 0.4, 21);
  ASSERT_EQ(poset.total_events(), 30u);
  const ParamountOptions options;
  const auto order =
      topological_sort(poset, options.topo_policy, options.seed);
  const IntervalIndex interval_of(poset, order);
  const auto intervals = compute_intervals(poset, order);
  for (const char* entry : {"topo policy", "order", "intervals"}) {
    std::vector<std::size_t> visits;  // interval per visit, repeats merged
    auto visitor = [&](const Frontier& f) {
      const std::size_t i = interval_of(f);
      if (visits.empty() || visits.back() != i) visits.push_back(i);
    };
    if (entry == std::string("topo policy")) {
      enumerate_paramount(poset, options, visitor);
    } else if (entry == std::string("order")) {
      enumerate_paramount_streaming(poset, order, options, visitor);
    } else {
      enumerate_paramount(poset, intervals, options, visitor);
    }
    ASSERT_EQ(visits.size(), order.size()) << entry;
    EXPECT_EQ(visits.front(), order.size() - 1) << entry;
    for (std::size_t v = 1; v < visits.size(); ++v) {
      EXPECT_LT(visits[v], visits[v - 1]) << entry << ", visit " << v;
    }
  }
}

// The cursor must keep the exactly-once guarantee for every worker count,
// through both entry points, including more workers than a small poset has
// events to claim.
//
// The second parameter stalls worker 0 (the caller's thread) in its first
// visit until its siblings have visited every state outside the interval it
// holds. A worker holds one claimed event at a time, so they must run the
// shared cursor, Algorithm 1's shared counter, dry without it; afterwards
// worker 0 may finish only its own interval. The test's name dates from
// when this parameter switched to a shared-counter scheduler, since deleted
// (DESIGN.md §5, substitution 7).
class ParamountScheduler
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(ParamountScheduler, StealAndSharedCounterPathsAgree) {
  const auto [workers, stall] = GetParam();
  const Poset poset = make_random(4, 30, 0.4, 21);
  ParamountOptions options;
  options.num_workers = workers;
  // enumerate_paramount derives the same →p from these options.
  const auto order =
      topological_sort(poset, options.topo_policy, options.seed);
  const IntervalIndex interval_of(poset, order);

  std::set<Key> oracle;
  std::vector<std::uint64_t> interval_states(order.size(), 0);
  for (const Frontier& f : all_ideals(poset)) {
    oracle.insert(key_of(f));
    ++interval_states[interval_of(f)];
  }
  // A lone worker has no sibling to take over its work.
  const bool stalls = stall && workers > 1;
  const std::thread::id caller = std::this_thread::get_id();

  for (const bool streaming : {false, true}) {
    Mutex mutex;
    CondVar cv;
    std::vector<Key> states;
    std::vector<std::uint64_t> visits(order.size(), 0);
    bool caller_started = false;
    // The interval worker 0 held at its first visit.
    std::size_t held = 0;
    std::uint64_t caller_visits_outside = 0;

    auto others_done = [&] {
      for (std::size_t i = 0; i < order.size(); ++i) {
        if (i != held && visits[i] != interval_states[i]) return false;
      }
      return true;
    };
    auto visitor = [&](const Frontier& f) {
      const std::size_t i = interval_of(f);
      MutexLock guard(mutex);
      states.push_back(key_of(f));
      ++visits[i];
      cv.notify_all();
      if (!stalls || std::this_thread::get_id() != caller) return;
      if (caller_started) {
        if (i != held) ++caller_visits_outside;
        return;
      }
      caller_started = true;
      held = i;
      while (!others_done()) {
        if (!cv.wait_for(mutex, std::chrono::seconds(30)) && !others_done()) {
          ADD_FAILURE() << "no sibling visit for 30 s; work is stranded "
                           "behind the stalled worker";
          return;
        }
      }
    };

    const ParamountResult result =
        streaming
            ? enumerate_paramount_streaming(poset, order, options, visitor)
            : enumerate_paramount(poset, options, visitor);
    const char* const driver = streaming ? "streaming" : "offline";
    EXPECT_TRUE(all_distinct(states)) << driver;
    EXPECT_EQ(as_set(states), oracle) << driver;
    EXPECT_EQ(result.states, oracle.size()) << driver;
    EXPECT_EQ(caller_visits_outside, 0u)
        << driver << ": the stalled worker ran work its siblings should "
                     "have taken";
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkersStall, ParamountScheduler,
    ::testing::Combine(::testing::Values(1u, 2u, 8u), ::testing::Bool()));

// A visitor exception must reach the caller, and sibling workers must stop
// promptly: on a chain every interval is one state and abort is checked
// between intervals, so once the driver has recorded the failure each
// sibling finishes at most its current interval.
//
// The bound must not depend on how long the exception takes to unwind, so
// siblings are held still while it does: a spawned worker arms the throw,
// and every other worker parks in the visitor until the thrower's thread
// exits (its worker caught the exception and set the abort flag first).
// The caller's thread is worker 0; it parks from its first visit, so it can
// neither throw (nothing would release the others before it joins them)
// nor run the whole chain before a spawned worker gets to the throw.
//
// The suite keeps its parameter so that this instance keeps its name: the
// other instance threw from work its thrower had stolen from a sibling's
// batch, and the cursor no longer claims batches (DESIGN.md §5,
// substitution 7).
class ParamountThrow : public ::testing::TestWithParam<bool> {};

struct ThrowRendezvous {
  Mutex mutex;
  CondVar cv;
  bool armed = false;     // a spawned worker is about to throw
  bool observed = false;  // the thrower's thread exited after its catch
  bool stuck = false;     // a wait timed out: the test failed, stop waiting
};

// Lives in the thrower's thread: its destructor runs at thread exit, after
// the driver's catch block recorded the failure.
struct ThreadExitSignal {
  ThrowRendezvous* rendezvous = nullptr;
  ~ThreadExitSignal() {
    if (rendezvous == nullptr) return;
    MutexLock lock(rendezvous->mutex);
    rendezvous->observed = true;
    rendezvous->cv.notify_all();
  }
};

TEST_P(ParamountThrow, VisitorExceptionPropagatesAndAborts) {
  constexpr std::size_t kEvents = 500;
  constexpr std::uint64_t kThrowAt = 20;
  const Poset poset = make_chain(kEvents);

  ParamountOptions options;
  options.num_workers = 4;
  const auto order =
      topological_sort(poset, options.topo_policy, options.seed);

  const std::thread::id caller = std::this_thread::get_id();
  for (const bool streaming : {false, true}) {
    ThrowRendezvous rendezvous;
    std::atomic<std::uint64_t> visited{0};
    auto visitor = [&](const Frontier&) {
      const std::uint64_t k = visited.fetch_add(1);
      const bool is_caller = std::this_thread::get_id() == caller;
      MutexLock lock(rendezvous.mutex);
      if (!rendezvous.armed && !is_caller && k >= kThrowAt) {
        rendezvous.armed = true;
        thread_local ThreadExitSignal exit_signal;
        exit_signal.rendezvous = &rendezvous;
        throw std::runtime_error("visitor boom");
      }
      while ((is_caller || rendezvous.armed) && !rendezvous.observed &&
             !rendezvous.stuck) {
        if (!rendezvous.cv.wait_for(rendezvous.mutex,
                                    std::chrono::seconds(30)) &&
            !rendezvous.observed) {
          ADD_FAILURE() << "parked 30 s and no thrower's thread exited";
          rendezvous.stuck = true;
          rendezvous.cv.notify_all();
          break;
        }
      }
    };
    if (streaming) {
      EXPECT_THROW(
          enumerate_paramount_streaming(poset, order, options, visitor),
          std::runtime_error);
    } else {
      EXPECT_THROW(enumerate_paramount(poset, options, visitor),
                   std::runtime_error);
    }
    // The throw is armed by visit kThrowAt or kThrowAt + 1 (the caller's one
    // parked visit may take index kThrowAt). After it, each of the other
    // workers makes at most one parked visit plus, for interval 0, its
    // second state.
    EXPECT_LE(visited.load(), kThrowAt + 2 * options.num_workers)
        << (streaming ? "streaming" : "offline");
  }
}

INSTANTIATE_TEST_SUITE_P(StealOnOff, ParamountThrow, ::testing::Values(false));

TEST(Paramount, StreamingEmptyPoset) {
  PosetBuilder builder(2);
  const Poset poset = std::move(builder).build();
  std::uint64_t count = 0;
  const ParamountResult result = enumerate_paramount_streaming(
      poset, {}, {}, [&](const Frontier&) { ++count; });
  EXPECT_EQ(result.states, 1u);
  EXPECT_EQ(count, 1u);
}

TEST(Paramount, StreamingRejectsInvalidOrder) {
  const Poset poset = make_figure4_poset();
  EXPECT_DEATH(enumerate_paramount_streaming(
                   poset, {{0, 1}, {0, 2}, {1, 1}, {1, 2}}, {},
                   [](const Frontier&) {}),
               "linear extension");
}

TEST(Paramount, PrecomputedIntervalsReused) {
  const Poset poset = make_random(4, 30, 0.4, 5);
  const auto intervals = compute_intervals(poset, TopoPolicy::kInterleave);
  const auto oracle = count_ideals(poset).value();
  for (const std::size_t workers : {1u, 3u}) {
    ParamountOptions options;
    options.num_workers = workers;
    std::atomic<std::uint64_t> count{0};
    const ParamountResult result = enumerate_paramount(
        poset, intervals, options, [&](const Frontier&) { ++count; });
    EXPECT_EQ(result.states, oracle);
    EXPECT_EQ(count.load(), oracle);
  }
}

// The driver recomputes every box from the intervals' →p, so a list that
// is not a linear extension of the poset, the empty list included, is
// rejected rather than trusted.
TEST(Paramount, PrecomputedIntervalsMustBeALinearExtension) {
  const Poset poset = make_figure4_poset();
  EXPECT_DEATH(enumerate_paramount(poset, std::vector<Interval>{}, {},
                                   [](const Frontier&) {}),
               "linear extension");
}

TEST(Paramount, MemoryBudgetPropagatesAsOom) {
  const Poset poset = make_antichain(14);  // very wide lattice
  MemoryMeter meter(/*budget=*/1024);
  ParamountOptions options;
  options.subroutine = EnumAlgorithm::kBfs;
  options.num_workers = 2;
  options.meter = &meter;
  EXPECT_THROW(
      enumerate_paramount(poset, options, [](const Frontier&) {}),
      MemoryBudgetExceeded);
}

// A visitor that throws mid-run must not leave the workers' working sets
// charged to the shared meter.
TEST(Paramount, ThrowingVisitorReleasesTheSharedMeter) {
  const Poset poset = make_random(3, 12, 0.3, 4);
  MemoryMeter meter;
  ParamountOptions options;
  options.num_workers = 2;
  options.meter = &meter;
  std::atomic<std::uint64_t> visits{0};
  EXPECT_THROW(enumerate_paramount(poset, options,
                                   [&](const Frontier&) {
                                     if (++visits == 3) {
                                       throw std::runtime_error("visitor");
                                     }
                                   }),
               std::runtime_error);
  EXPECT_GE(visits.load(), 3u);
  EXPECT_GT(meter.peak_bytes(), 0u);
  EXPECT_EQ(meter.current_bytes(), 0u);
}

TEST(Paramount, PartitioningShrinksBfsPeakMemory) {
  // The Table-1 effect: bounded BFS over many small intervals needs far less
  // level memory than one BFS over the whole lattice. On a connected random
  // poset the reduction is large (~6-10x); on a pure antichain the last
  // interval still spans half the lattice, so the bound there is weaker.
  const Poset random_poset = make_random(6, 60, 0.2, 3);
  MemoryMeter full_meter;
  enumerate_bfs(random_poset, [](const Frontier&) {}, &full_meter);

  MemoryMeter para_meter;
  ParamountOptions options;
  options.subroutine = EnumAlgorithm::kBfs;
  options.meter = &para_meter;
  enumerate_paramount(random_poset, options, [](const Frontier&) {});
  EXPECT_LT(para_meter.peak_bytes() * 4, full_meter.peak_bytes());

  const Poset antichain = make_antichain(12);
  MemoryMeter full_anti, para_anti;
  enumerate_bfs(antichain, [](const Frontier&) {}, &full_anti);
  options.meter = &para_anti;
  enumerate_paramount(antichain, options, [](const Frontier&) {});
  EXPECT_LT(para_anti.peak_bytes(), full_anti.peak_bytes());
}

// ---- the visitor surface ----

// Runs enumerate_paramount or enumerate_paramount_streaming at one worker,
// forwarding the visitor exactly as the caller passed it.
template <typename Visit>
ParamountResult run_driver(bool streaming, const Poset& poset,
                           const std::vector<EventId>& order, Visit&& visit) {
  const ParamountOptions options;  // one worker: a fixed visit order
  return streaming ? enumerate_paramount_streaming(
                         poset, order, options, std::forward<Visit>(visit))
                   : enumerate_paramount(poset, options,
                                         std::forward<Visit>(visit));
}

// Both entry points take a mutable lambda as an lvalue and invoke it in
// place — its own count, read afterwards, equals `states` — and a
// std::function; both visit exactly the plain lambda's sequence.
TEST(ParamountVisitors, MutableLambdaAndStdFunctionMatchPlainLambda) {
  const Poset poset = make_random(4, 24, 0.4, 9);
  const std::vector<EventId> order =
      topological_sort(poset, TopoPolicy::kInterleave);
  for (const bool streaming : {false, true}) {
    const char* const driver = streaming ? "streaming" : "offline";
    std::vector<Key> expected;
    const ParamountResult plain =
        run_driver(streaming, poset, order,
                   [&](const Frontier& f) { expected.push_back(key_of(f)); });
    EXPECT_EQ(plain.states, count_ideals(poset).value()) << driver;
    ASSERT_EQ(expected.size(), plain.states) << driver;

    std::vector<Key> seen;
    auto counting = counting_visitor(seen);
    const ParamountResult mutable_result =
        run_driver(streaming, poset, order, counting);
    EXPECT_EQ(counting(), mutable_result.states) << driver;
    EXPECT_EQ(seen, expected) << driver;

    std::vector<Key> via_function;
    std::function<void(const Frontier&)> function = [&](const Frontier& f) {
      via_function.push_back(key_of(f));
    };
    EXPECT_EQ(run_driver(streaming, poset, order, function).states,
              plain.states)
        << driver;
    EXPECT_EQ(via_function, expected) << driver;
  }
}

}  // namespace
}  // namespace paramount
