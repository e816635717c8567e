// Properties of the interval partition (§3 of the paper): Theorem 1 (Gbnd is
// consistent), Lemma 2 (cover), Lemma 3 (disjointness), and the Figure 5/6
// worked examples.
#include "core/interval.hpp"

#include <gtest/gtest.h>

#include <map>

#include "poset/lattice.hpp"
#include "test_helpers.hpp"

namespace paramount {
namespace {

using testing::key_of;
using testing::make_figure4_poset;
using testing::make_random;
using testing::Key;

// The fixed total order of Figure 5: e1[1] →p e2[1] →p e1[2] →p e2[2].
std::vector<EventId> figure5_order() {
  return {{0, 1}, {1, 1}, {0, 2}, {1, 2}};
}

TEST(Interval, Figure5BoundaryStates) {
  const Poset poset = make_figure4_poset();
  const auto intervals = compute_intervals(poset, figure5_order());
  ASSERT_EQ(intervals.size(), 4u);
  // Gbnd values given in the paper: {1,0}, {1,1}, {2,1}, {2,2}.
  EXPECT_EQ(key_of(intervals[0].gbnd), (Key{1, 0}));
  EXPECT_EQ(key_of(intervals[1].gbnd), (Key{1, 1}));
  EXPECT_EQ(key_of(intervals[2].gbnd), (Key{2, 1}));
  EXPECT_EQ(key_of(intervals[3].gbnd), (Key{2, 2}));
  // Gmin(e) = e.vc.
  EXPECT_EQ(key_of(intervals[0].gmin), (Key{1, 0}));
  EXPECT_EQ(key_of(intervals[1].gmin), (Key{0, 1}));
  EXPECT_EQ(key_of(intervals[2].gmin), (Key{2, 1}));
  EXPECT_EQ(key_of(intervals[3].gmin), (Key{1, 2}));
}

TEST(Interval, RequiresLinearExtension) {
  const Poset poset = make_figure4_poset();
  // e1[2] before e2[1] violates happened-before.
  EXPECT_DEATH(
      compute_intervals(poset, {{0, 1}, {0, 2}, {1, 1}, {1, 2}}),
      "linear extension");
}

TEST(Interval, BoxCells) {
  Interval iv;
  iv.gmin = Frontier{1, 0};
  iv.gbnd = Frontier{2, 2};
  EXPECT_EQ(iv.box_cells(), 2u * 3u);
  iv.gmin = iv.gbnd;
  EXPECT_EQ(iv.box_cells(), 1u);

  // Width 2 on every thread: 63 threads give exactly 2^63 cells; 64 give
  // 2^64, which saturates instead of wrapping to 0.
  iv.gmin = Frontier(63);
  iv.gbnd = Frontier(63);
  for (std::size_t t = 0; t < 63; ++t) iv.gbnd[t] = 1;
  EXPECT_EQ(iv.box_cells(), std::uint64_t{1} << 63);
  iv.gmin = Frontier(64);
  iv.gbnd = Frontier(64);
  for (std::size_t t = 0; t < 64; ++t) iv.gbnd[t] = 1;
  EXPECT_EQ(iv.box_cells(), UINT64_MAX);
}

// Theorem 1: every Gbnd(e) is a consistent global state, for every policy.
class IntervalProperties
    : public ::testing::TestWithParam<std::tuple<TopoPolicy, std::uint64_t>> {
};

TEST_P(IntervalProperties, GbndIsConsistent) {
  const auto [policy, seed] = GetParam();
  const Poset poset = make_random(4, 32, 0.4, seed);
  for (const Interval& iv : compute_intervals(poset, policy, seed)) {
    EXPECT_TRUE(poset.is_consistent(iv.gbnd));
    EXPECT_TRUE(poset.is_consistent(iv.gmin));
    EXPECT_TRUE(iv.gmin.leq(iv.gbnd));
  }
}

// Lemmas 2-3: every consistent state lies in exactly one interval (the empty
// state is assigned to the first event by convention).
TEST_P(IntervalProperties, IntervalsPartitionTheLattice) {
  const auto [policy, seed] = GetParam();
  const Poset poset = make_random(4, 28, 0.4, seed);
  const auto intervals = compute_intervals(poset, policy, seed);

  std::map<Key, int> owners;
  for (const Frontier& g : all_ideals(poset)) {
    if (state_rank(g) == 0) continue;  // the empty state: special case
    int owner_count = 0;
    for (const Interval& iv : intervals) {
      if (iv.gmin.leq(g) && g.leq(iv.gbnd)) ++owner_count;
    }
    EXPECT_EQ(owner_count, 1)
        << "state " << g.to_string() << " lies in " << owner_count
        << " intervals";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, IntervalProperties,
    ::testing::Combine(::testing::Values(TopoPolicy::kInterleave,
                                         TopoPolicy::kThreadMajor,
                                         TopoPolicy::kRandom),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u)));

TEST(Interval, LastIntervalEndsAtFullFrontier) {
  const Poset poset = make_random(5, 40, 0.3, 9);
  const auto intervals = compute_intervals(poset, TopoPolicy::kInterleave);
  EXPECT_EQ(key_of(intervals.back().gbnd), key_of(poset.full_frontier()));
}

}  // namespace
}  // namespace paramount
