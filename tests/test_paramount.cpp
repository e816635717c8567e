// Offline ParaMount (Algorithm 1 + Theorem 2): exactly-once parallel
// enumeration that matches the sequential algorithms for every subroutine,
// worker count and topological policy; plus the schedule simulator.
#include "core/paramount.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "core/schedule_sim.hpp"
#include "enumeration/bfs_enumerator.hpp"
#include "poset/lattice.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace paramount {
namespace {

using testing::all_distinct;
using testing::as_set;
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
                                         EnumAlgorithm::kLexical,
                                         EnumAlgorithm::kDfs),
                       ::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(TopoPolicy::kInterleave,
                                         TopoPolicy::kThreadMajor,
                                         TopoPolicy::kRandom)));

// The streaming driver (the literal Algorithm 1 with an incremental
// boundary-frontier sweep) must agree with the precomputed-interval driver.
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
  options.collect_interval_stats = true;
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
  std::uint64_t per_interval = 0;
  for (const IntervalStat& s : result.interval_stats) per_interval += s.states;
  EXPECT_EQ(per_interval, result.states);
}

INSTANTIATE_TEST_SUITE_P(
    Workers, ParamountStreaming,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(TopoPolicy::kInterleave,
                                         TopoPolicy::kRandom)));

// Chunked work assignment must preserve exactly-once for both drivers.
class ParamountChunking : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParamountChunking, ExactlyOnceForAnyChunkSize) {
  const std::size_t chunk = GetParam();
  const Poset poset = make_random(4, 30, 0.4, 12);
  std::set<Key> oracle;
  for (const Frontier& f : all_ideals(poset)) oracle.insert(key_of(f));

  ParamountOptions options;
  options.num_workers = 3;
  options.chunk_size = chunk;

  Mutex mutex;
  std::vector<Key> states;
  auto collector = [&](const Frontier& f) {
    MutexLock guard(mutex);
    states.push_back(key_of(f));
  };

  const ParamountResult precomputed =
      enumerate_paramount(poset, options, collector);
  EXPECT_TRUE(all_distinct(states));
  EXPECT_EQ(as_set(states), oracle);
  EXPECT_EQ(precomputed.states, oracle.size());

  states.clear();
  const auto order = topological_sort(poset, TopoPolicy::kInterleave);
  const ParamountResult streaming =
      enumerate_paramount_streaming(poset, order, options, collector);
  EXPECT_TRUE(all_distinct(states));
  EXPECT_EQ(as_set(states), oracle);
  EXPECT_EQ(streaming.states, oracle.size());
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, ParamountChunking,
                         ::testing::Values(1u, 2u, 5u, 16u, 1000u));

// Scheduler A/B: the work-stealing deques and the PR-1 shared-counter /
// cursor paths must be observationally identical — same state set, same
// exactly-once guarantee — for every workers × chunk × steal combination,
// in both drivers.
class ParamountScheduler
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, bool>> {};

TEST_P(ParamountScheduler, StealAndSharedCounterPathsAgree) {
  const auto [workers, chunk, steal] = GetParam();
  const Poset poset = make_random(4, 30, 0.4, 21);
  std::set<Key> oracle;
  for (const Frontier& f : all_ideals(poset)) oracle.insert(key_of(f));

  ParamountOptions options;
  options.num_workers = workers;
  options.chunk_size = chunk;
  options.steal = steal;

  Mutex mutex;
  std::vector<Key> states;
  auto collector = [&](const Frontier& f) {
    MutexLock guard(mutex);
    states.push_back(key_of(f));
  };

  const ParamountResult offline =
      enumerate_paramount(poset, options, collector);
  EXPECT_TRUE(all_distinct(states));
  EXPECT_EQ(as_set(states), oracle);
  EXPECT_EQ(offline.states, oracle.size());

  states.clear();
  const auto order = topological_sort(poset, TopoPolicy::kInterleave);
  const ParamountResult streaming =
      enumerate_paramount_streaming(poset, order, options, collector);
  EXPECT_TRUE(all_distinct(states));
  EXPECT_EQ(as_set(states), oracle);
  EXPECT_EQ(streaming.states, oracle.size());
}

INSTANTIATE_TEST_SUITE_P(
    WorkersChunksSteal, ParamountScheduler,
    ::testing::Combine(::testing::Values(1u, 2u, 8u),
                       ::testing::Values(1u, 5u), ::testing::Bool()));

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
class ParamountThrow : public ::testing::TestWithParam<bool> {};

struct ThrowRendezvous {
  Mutex mutex;
  CondVar cv;
  bool armed = false;     // a spawned worker is about to throw
  bool observed = false;  // the thrower's thread exited after its catch
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
  const bool steal = GetParam();
  constexpr std::size_t kEvents = 500;
  constexpr std::uint64_t kThrowAt = 20;
  const Poset poset = make_chain(kEvents);

  ParamountOptions options;
  options.num_workers = 4;
  options.chunk_size = 2;
  options.steal = steal;

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
      while ((is_caller || rendezvous.armed) && !rendezvous.observed) {
        rendezvous.cv.wait(rendezvous.mutex);
      }
    };
    if (streaming) {
      const auto order = topological_sort(poset, TopoPolicy::kInterleave);
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

INSTANTIATE_TEST_SUITE_P(StealOnOff, ParamountThrow, ::testing::Bool());

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

TEST(Paramount, IntervalStatsCoverAllStates) {
  const Poset poset = make_random(4, 24, 0.4, 6);
  ParamountOptions options;
  options.collect_interval_stats = true;
  options.num_workers = 2;
  ParamountResult result;
  collect_paramount(poset, options, &result);
  ASSERT_EQ(result.interval_stats.size(), poset.total_events());
  std::uint64_t total = 0;
  for (const IntervalStat& s : result.interval_stats) total += s.states;
  EXPECT_EQ(total, result.states);
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

// ---- schedule simulator ----

TEST(ScheduleSim, SingleWorkerIsSum) {
  const auto r = simulate_list_schedule({1.0, 2.0, 3.0}, 1);
  EXPECT_DOUBLE_EQ(r.makespan, 6.0);
  EXPECT_DOUBLE_EQ(r.total_work, 6.0);
  EXPECT_DOUBLE_EQ(r.imbalance(), 1.0);
}

TEST(ScheduleSim, PerfectSplit) {
  const auto r = simulate_list_schedule({1.0, 1.0, 1.0, 1.0}, 2);
  EXPECT_DOUBLE_EQ(r.makespan, 2.0);
}

TEST(ScheduleSim, GreedyAssignsToEarliestFree) {
  // Tasks 3,1,1,1 on 2 workers: w0 gets 3; w1 gets 1,1,1 → makespan 3.
  const auto r = simulate_list_schedule({3.0, 1.0, 1.0, 1.0}, 2);
  EXPECT_DOUBLE_EQ(r.makespan, 3.0);
  EXPECT_DOUBLE_EQ(r.worker_busy[0], 3.0);
  EXPECT_DOUBLE_EQ(r.worker_busy[1], 3.0);
}

TEST(ScheduleSim, StragglerBoundsMakespan) {
  // Tasks 1,1,10,1,1 on 4 workers: the 10 lands on worker 2 at t=0 and
  // dominates; worker 0 additionally gets the last task.
  const auto r = simulate_list_schedule({1.0, 1.0, 10.0, 1.0, 1.0}, 4);
  EXPECT_DOUBLE_EQ(r.makespan, 10.0);
  EXPECT_DOUBLE_EQ(r.worker_busy[2], 10.0);
  EXPECT_GT(r.imbalance(), 1.5);
}

TEST(ScheduleSim, MoreWorkersNeverSlower) {
  std::vector<double> tasks;
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    tasks.push_back(static_cast<double>(rng.next_below(100)) + 1.0);
  }
  double prev = simulate_list_schedule(tasks, 1).makespan;
  for (std::size_t w = 2; w <= 16; w *= 2) {
    const double m = simulate_list_schedule(tasks, w).makespan;
    EXPECT_LE(m, prev + 1e-9);
    prev = m;
  }
}

TEST(ScheduleSim, EmptyTaskList) {
  const auto r = simulate_list_schedule({}, 4);
  EXPECT_DOUBLE_EQ(r.makespan, 0.0);
  EXPECT_DOUBLE_EQ(r.total_work, 0.0);
}

}  // namespace
}  // namespace paramount
