// Wide posets (more threads than the 16-slot inline clock buffer): exercises
// the heap-spill path of InlinedVector inside every clock/frontier operation
// and the full enumeration stack on top of it.
#include <gtest/gtest.h>

#include "core/paramount.hpp"
#include "poset/lattice.hpp"
#include "test_helpers.hpp"

namespace paramount {
namespace {

using testing::all_distinct;
using testing::as_set;
using testing::collect_all;
using testing::key_of;
using testing::make_antichain;
using testing::make_random;
using testing::Key;

// Staircase poset: `threads` threads with `steps` events each, where the
// k-th event of thread t depends on the k-th event of thread t-1. Consistent
// frontiers are exactly the non-increasing sequences g_0 ≥ g_1 ≥ … with
// values in [0, steps], so i(P) = C(threads + steps, steps) — a closed form
// that keeps wide posets tractable.
Poset make_staircase(std::size_t threads, EventIndex steps) {
  PosetBuilder builder(threads);
  std::vector<EventId> previous_thread(steps);
  for (ThreadId t = 0; t < threads; ++t) {
    std::vector<EventId> current(steps);
    for (EventIndex k = 0; k < steps; ++k) {
      current[k] = t == 0 ? builder.add_event(t)
                          : builder.add_event_after(t, previous_thread[k]);
    }
    previous_thread = std::move(current);
  }
  return std::move(builder).build();
}

std::uint64_t binomial(std::uint64_t n, std::uint64_t k) {
  std::uint64_t result = 1;
  for (std::uint64_t i = 1; i <= k; ++i) {
    result = result * (n - k + i) / i;
  }
  return result;
}

TEST(WidePoset, ClocksSpillToHeap) {
  VectorClock vc(24);
  EXPECT_EQ(vc.size(), 24u);
  vc[23] = 7;
  VectorClock copy = vc;
  EXPECT_EQ(copy[23], 7u);
  copy.join(vc);
  EXPECT_EQ(copy, vc);
  EXPECT_TRUE(vc.leq(copy));
}

TEST(WidePoset, BuilderAndInvariants) {
  const Poset poset = make_random(20, 120, 0.6, 5);
  poset.check_invariants();
  EXPECT_EQ(poset.num_threads(), 20u);
}

TEST(WidePoset, AntichainCounts) {
  const Poset poset = make_antichain(20);
  const EnumStats stats =
      enumerate_lexical(poset, [](const Frontier&) {});
  EXPECT_EQ(stats.states, 1u << 20);
}

TEST(WidePoset, StaircaseClosedFormCount) {
  // i(P) = C(threads + steps, steps).
  const Poset poset = make_staircase(20, 4);
  const EnumStats stats = enumerate_lexical(poset, [](const Frontier&) {});
  EXPECT_EQ(stats.states, binomial(24, 4));
}

TEST(WidePoset, EnumeratorsAgree) {
  const Poset poset = make_staircase(18, 3);
  std::vector<Key> oracle;
  for (const Frontier& f : all_ideals(poset)) oracle.push_back(key_of(f));
  const auto lexical = collect_all(EnumAlgorithm::kLexical, poset);
  const auto bfs = collect_all(EnumAlgorithm::kBfs, poset);
  EXPECT_TRUE(all_distinct(lexical));
  EXPECT_TRUE(all_distinct(bfs));
  EXPECT_EQ(oracle.size(), binomial(21, 3));
  EXPECT_EQ(as_set(lexical), as_set(oracle));
  EXPECT_EQ(as_set(bfs), as_set(oracle));
}

TEST(WidePoset, ParamountExactlyOnce) {
  const Poset poset = make_staircase(20, 4);
  ParamountOptions options;
  options.num_workers = 4;
  const ParamountResult result =
      enumerate_paramount(poset, options, [](const Frontier&) {});
  EXPECT_EQ(result.states, binomial(24, 4));
}

TEST(WidePoset, IntervalsStayConsistent) {
  const Poset poset = make_random(24, 96, 0.8, 8);
  for (const Interval& iv :
       compute_intervals(poset, TopoPolicy::kInterleave)) {
    EXPECT_TRUE(poset.is_consistent(iv.gbnd));
    EXPECT_TRUE(iv.gmin.leq(iv.gbnd));
  }
}

}  // namespace
}  // namespace paramount
