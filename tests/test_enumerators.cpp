// Correctness of the two sequential enumerators: exactly-once enumeration
// of all consistent states, agreement with the brute-force lattice oracle,
// ordering guarantees, bounded (boxed) enumeration, the memory-budget
// behaviour, and the visit order and clock-read cost of the lexical run loop.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>

#include "core/interval.hpp"
#include "enumeration/bfs_enumerator.hpp"
#include "enumeration/dispatch.hpp"
#include "enumeration/lexical_enumerator.hpp"
#include "poset/lattice.hpp"
#include "poset/online_poset.hpp"
#include "test_helpers.hpp"
#include "workloads/scenarios/scenarios.hpp"

namespace paramount {
namespace {

using testing::all_distinct;
using testing::as_set;
using testing::collect_all;
using testing::collect_box;
using testing::counting_visitor;
using testing::key_of;
using testing::make_antichain;
using testing::make_chain;
using testing::make_figure2_poset;
using testing::make_figure4_poset;
using testing::make_grid;
using testing::make_random;
using testing::Key;

constexpr EnumAlgorithm kAll[] = {EnumAlgorithm::kBfs, EnumAlgorithm::kLexical};

TEST(Enumerators, EmptyPosetHasOneState) {
  PosetBuilder builder(3);
  const Poset poset = std::move(builder).build();
  for (const auto algorithm : kAll) {
    const auto states = collect_all(algorithm, poset);
    ASSERT_EQ(states.size(), 1u) << to_string(algorithm);
    EXPECT_EQ(states[0], (Key{0, 0, 0}));
  }
}

TEST(Enumerators, ChainVisitsEveryPrefix) {
  const Poset poset = make_chain(5);
  for (const auto algorithm : kAll) {
    const auto states = collect_all(algorithm, poset);
    EXPECT_EQ(states.size(), 6u) << to_string(algorithm);
    EXPECT_TRUE(all_distinct(states));
  }
}

TEST(Enumerators, AntichainVisitsAllSubsets) {
  const Poset poset = make_antichain(8);
  for (const auto algorithm : kAll) {
    const auto states = collect_all(algorithm, poset);
    EXPECT_EQ(states.size(), 256u) << to_string(algorithm);
    EXPECT_TRUE(all_distinct(states));
  }
}

TEST(Enumerators, Figure4StatesExactly) {
  // The 7 states of Figure 4(c): all 3×3 frontiers except {2,0} (violates
  // e2[1] → e1[2]) and {0,2} (violates e1[1] → e2[2]).
  const Poset poset = make_figure4_poset();
  const std::set<Key> expected{{0, 0}, {0, 1}, {1, 0}, {1, 1},
                               {1, 2}, {2, 1}, {2, 2}};
  for (const auto algorithm : kAll) {
    const auto states = collect_all(algorithm, poset);
    EXPECT_TRUE(all_distinct(states)) << to_string(algorithm);
    EXPECT_EQ(as_set(states), expected) << to_string(algorithm);
  }
}

TEST(Enumerators, Figure2StatesExactly) {
  // The paper's running example: G1..G8 of Figure 2(b).
  const Poset poset = make_figure2_poset();
  const std::set<Key> expected{{0, 0}, {1, 0}, {2, 0}, {3, 0},
                               {2, 1}, {3, 1}, {2, 2}, {3, 2}};
  for (const auto algorithm : kAll) {
    EXPECT_EQ(as_set(collect_all(algorithm, poset)), expected)
        << to_string(algorithm);
  }
}

TEST(Enumerators, BfsVisitsInRankOrder) {
  const Poset poset = make_random(4, 24, 0.4, 7);
  std::uint64_t last_rank = 0;
  enumerate_bfs(poset, [&](const Frontier& f) {
    const std::uint64_t rank = state_rank(f);
    EXPECT_GE(rank, last_rank);
    last_rank = rank;
  });
}

TEST(Enumerators, LexicalVisitsInStrictLexOrder) {
  const Poset poset = make_random(4, 24, 0.4, 8);
  bool first = true;
  Frontier prev;
  enumerate_lexical(poset, [&](const Frontier& f) {
    if (!first) {
      EXPECT_TRUE(VectorClock::lex_less(prev, f))
          << prev.to_string() << " !< " << f.to_string();
    }
    prev = f;
    first = false;
  });
}

TEST(Enumerators, LexicalSuccessorStandalone) {
  const Poset poset = make_figure4_poset();
  const Frontier lo = poset.empty_frontier();
  const Frontier hi = poset.full_frontier();
  Frontier state = lo;
  std::vector<Key> visited{key_of(state)};
  while (lexical_successor(poset, lo, hi, state)) {
    visited.push_back(key_of(state));
  }
  // The 7 consistent states of Figure 4(c) in lexical order — the
  // inconsistent {0,2} and {2,0} are skipped.
  const std::vector<Key> expected{{0, 0}, {0, 1}, {1, 0}, {1, 1},
                                  {1, 2}, {2, 1}, {2, 2}};
  EXPECT_EQ(visited, expected);
}

// Property test: on random posets all three algorithms agree with the
// brute-force oracle and visit each state exactly once.
class EnumeratorAgreement
    : public ::testing::TestWithParam<std::tuple<int, double, std::uint64_t>> {
};

TEST_P(EnumeratorAgreement, AllAlgorithmsMatchOracle) {
  const auto [processes, density, seed] = GetParam();
  const Poset poset = make_random(processes, 8 * processes, density, seed);
  std::set<Key> oracle;
  for (const Frontier& f : all_ideals(poset)) oracle.insert(key_of(f));

  for (const auto algorithm : kAll) {
    const auto states = collect_all(algorithm, poset);
    EXPECT_TRUE(all_distinct(states))
        << to_string(algorithm) << " visited a state twice";
    EXPECT_EQ(as_set(states), oracle) << to_string(algorithm);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomPosets, EnumeratorAgreement,
    ::testing::Combine(::testing::Values(2, 3, 4, 5),
                       ::testing::Values(0.15, 0.5, 0.9),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

// Property test: bounded enumeration over random boxes visits exactly the
// consistent states inside the box.
class BoundedEnumeration
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(BoundedEnumeration, BoxMatchesFilteredOracle) {
  const auto [seed, density_pct] = GetParam();
  const Poset poset =
      make_random(4, 28, static_cast<double>(density_pct) / 100.0, seed);
  const auto ideals = all_ideals(poset);

  // Build several boxes from pairs of comparable consistent states.
  std::size_t boxes_tested = 0;
  for (std::size_t i = 0; i < ideals.size() && boxes_tested < 12; i += 3) {
    for (std::size_t j = i; j < ideals.size() && boxes_tested < 12; j += 5) {
      const Frontier& lo = ideals[i];
      const Frontier& hi = ideals[j];
      if (!lo.leq(hi)) continue;
      ++boxes_tested;

      std::set<Key> expected;
      for (const Frontier& f : ideals) {
        if (lo.leq(f) && f.leq(hi)) expected.insert(key_of(f));
      }
      for (const auto algorithm : kAll) {
        const auto states = collect_box(algorithm, poset, lo, hi);
        EXPECT_TRUE(all_distinct(states)) << to_string(algorithm);
        EXPECT_EQ(as_set(states), expected)
            << to_string(algorithm) << " box " << lo.to_string() << ".."
            << hi.to_string();
      }
    }
  }
  EXPECT_GT(boxes_tested, 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomBoxes, BoundedEnumeration,
                         ::testing::Combine(::testing::Values(11u, 12u, 13u,
                                                              14u),
                                            ::testing::Values(20, 60)));

TEST(Enumerators, LexicalEqualsSortedLattice) {
  // Stronger than pairwise monotonicity: the lexical visit sequence is
  // exactly the sorted list of all consistent states.
  const Poset poset = make_random(4, 26, 0.4, 19);
  const auto states = collect_all(EnumAlgorithm::kLexical, poset);
  auto sorted = states;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(states, sorted);
}

TEST(Enumerators, DegenerateBoxVisitsSingleState) {
  const Poset poset = make_figure4_poset();
  const Frontier g{1, 1};
  for (const auto algorithm : kAll) {
    const auto states = collect_box(algorithm, poset, g, g);
    ASSERT_EQ(states.size(), 1u);
    EXPECT_EQ(states[0], (Key{1, 1}));
  }
}

TEST(Enumerators, BfsMemoryBudgetTriggersOom) {
  const Poset poset = make_antichain(12);  // 4096 states, wide levels
  MemoryMeter meter(/*budget=*/2048);
  EXPECT_THROW(enumerate_bfs(poset, [](const Frontier&) {}, &meter),
               MemoryBudgetExceeded);
  // All charges must have been rolled back.
  EXPECT_EQ(meter.current_bytes(), 0u);
}

TEST(Enumerators, LexicalUsesConstantMemory) {
  MemoryMeter narrow_meter, wide_meter;
  const EnumStats narrow =
      enumerate_lexical(make_antichain(8), [](const Frontier&) {},
                        &narrow_meter);
  const EnumStats wide = enumerate_lexical(
      make_antichain(12), [](const Frontier&) {}, &wide_meter);
  EXPECT_EQ(narrow.states, 256u);
  EXPECT_EQ(wide.states, 4096u);
  // Independent of the lattice: the current frontier, the lo/hi bounds and
  // the closure stack, all inline up to 16 threads. This is the working set
  // Figure 12 reports for L-Para.
  EXPECT_EQ(wide.peak_bytes, 3 * sizeof(Frontier) + sizeof(LexicalClosure));
  EXPECT_EQ(narrow.peak_bytes, wide.peak_bytes);
}

// A visitor that throws must not leak the working set it was charged for.
TEST(Enumerators, ThrowingVisitorReleasesTheMeter) {
  const Poset poset = make_random(3, 12, 0.3, 4);
  for (const auto algorithm : kAll) {
    MemoryMeter meter;
    std::uint64_t visits = 0;
    const auto throw_at_third = [&](const Frontier&) {
      if (++visits == 3) throw std::runtime_error("visitor failed");
    };
    EXPECT_THROW(enumerate_all(algorithm, poset, throw_at_third, &meter),
                 std::runtime_error)
        << to_string(algorithm);
    EXPECT_EQ(visits, 3u) << to_string(algorithm);
    EXPECT_GT(meter.peak_bytes(), 0u) << to_string(algorithm);
    EXPECT_EQ(meter.current_bytes(), 0u) << to_string(algorithm);
  }
}

TEST(Enumerators, BfsPeakMemoryTracksLatticeWidth) {
  MemoryMeter narrow_meter, wide_meter;
  enumerate_bfs(make_chain(64), [](const Frontier&) {}, &narrow_meter);
  enumerate_bfs(make_antichain(12), [](const Frontier&) {}, &wide_meter);
  // A chain has width 1; a 12-antichain has width C(12,6) = 924.
  EXPECT_GT(wide_meter.peak_bytes(), 100 * narrow_meter.peak_bytes());
}

TEST(Enumerators, StatsCountMatchesOracle) {
  const Poset poset = make_random(4, 30, 0.5, 21);
  const auto expected = count_ideals(poset).value();
  for (const auto algorithm : kAll) {
    const EnumStats stats =
        enumerate_all(algorithm, poset, [](const Frontier&) {});
    EXPECT_EQ(stats.states, expected) << to_string(algorithm);
  }
}

// ---- the visitor surface ----

// Every interval box of a random poset, through enumerate_box with each
// algorithm: a mutable lambda passed as an lvalue and a std::function visit
// exactly the plain lambda's sequence.
TEST(EnumeratorVisitors, MutableLambdaAndStdFunctionMatchPlainLambda) {
  const Poset poset = make_random(4, 24, 0.4, 9);
  const std::vector<Interval> intervals =
      compute_intervals(poset, TopoPolicy::kInterleave);
  for (const auto algorithm : kAll) {
    std::vector<Key> expected;
    for (const Interval& iv : intervals) {
      const std::vector<Key> box =
          collect_box(algorithm, poset, iv.gmin, iv.gbnd);
      expected.insert(expected.end(), box.begin(), box.end());
    }
    ASSERT_GT(expected.size(), intervals.size()) << to_string(algorithm);

    std::vector<Key> seen;
    auto counting = counting_visitor(seen);
    std::uint64_t states = 0;
    for (const Interval& iv : intervals) {
      states +=
          enumerate_box(algorithm, poset, iv.gmin, iv.gbnd, counting).states;
    }
    EXPECT_EQ(counting(), states) << to_string(algorithm);
    EXPECT_EQ(seen, expected) << to_string(algorithm);

    std::vector<Key> via_function;
    std::function<void(const Frontier&)> function = [&](const Frontier& f) {
      via_function.push_back(key_of(f));
    };
    for (const Interval& iv : intervals) {
      enumerate_box(algorithm, poset, iv.gmin, iv.gbnd, function);
    }
    EXPECT_EQ(via_function, expected) << to_string(algorithm);
  }
}

// ---- the run loop of enumerate_lexical ----

// Checks that enumerate_lexical over [lo, hi] visits exactly the sequence
// that chaining lexical_successor from lo produces, and returns its length.
template <typename PosetT>
std::uint64_t expect_successor_chain(const PosetT& poset, const Frontier& lo,
                                     const Frontier& hi) {
  Frontier expected = lo;
  bool chain_live = true;
  std::uint64_t matched = 0;
  bool diverged = false;
  enumerate_lexical(poset, lo, hi, [&](const Frontier& state) {
    if (diverged) return;
    if (!chain_live || state != expected) {
      diverged = true;
      ADD_FAILURE() << "box " << lo.to_string() << ".." << hi.to_string()
                    << ": visit " << matched << " is " << state.to_string()
                    << ", successor chain "
                    << (chain_live ? expected.to_string() : "ended");
      return;
    }
    ++matched;
    chain_live = lexical_successor(poset, lo, hi, expected);
  });
  EXPECT_FALSE(chain_live) << "enumeration stopped before the chain ended, box "
                           << lo.to_string() << ".." << hi.to_string();
  return matched;
}

// Boxes over this many cells are skipped: they would dominate the runtime.
constexpr std::uint64_t kMaxOracleCells = 200'000;

class LexicalRunLoop
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

// Every interval box of one event stream, on both poset types, under two
// insertion orders. 17 and 64 threads spill the clocks out of InlinedVector's
// 16 inline slots.
TEST_P(LexicalRunLoop, VisitsTheSuccessorChain) {
  const auto [processes, density] = GetParam();
  const std::uint64_t seed =
      10 * processes + static_cast<std::uint64_t>(10 * density);
  const Poset poset = make_random(processes, 8 * processes, density, seed);
  for (const TopoPolicy policy :
       {TopoPolicy::kThreadMajor, TopoPolicy::kRandom}) {
    OnlinePoset online(processes);
    std::uint64_t boxes = 0;
    std::uint64_t states = 0;
    for (const Interval& iv :
         compute_intervals(poset, topological_sort(poset, policy, seed))) {
      const Event& e = poset.event(iv.event);
      const OnlinePoset::Inserted ins =
          online.insert(e.tid(), e.kind, e.object, e.vc);
      ASSERT_EQ(ins.gbnd, iv.gbnd);
      if (iv.box_cells() > kMaxOracleCells) continue;
      ++boxes;
      states += expect_successor_chain(poset, iv.gmin, iv.gbnd);
      states += expect_successor_chain(online, ins.gmin, ins.gbnd);
    }
    EXPECT_GT(boxes, 0u) << to_string(policy);
    EXPECT_GE(states, 2 * boxes) << to_string(policy);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomPosets, LexicalRunLoop,
    ::testing::Combine(::testing::Values(1u, 2u, 6u, 17u, 64u),
                       ::testing::Values(0.1, 0.5, 0.9)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_p" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 10));
    });

// A PosetLike that counts clock reads.
class CountingPoset {
 public:
  explicit CountingPoset(const Poset& poset) : poset_(poset) {}
  std::size_t num_threads() const { return poset_.num_threads(); }
  const VectorClock& vc(ThreadId tid, EventIndex index) const {
    ++reads_;
    return poset_.vc(tid, index);
  }
  bool is_consistent(const Frontier& frontier) const {
    return poset_.is_consistent(frontier);
  }
  std::uint64_t reads() const { return reads_; }

 private:
  const Poset& poset_;
  mutable std::uint64_t reads_ = 0;
};

// Enumerates every box of `intervals` through a CountingPoset and returns
// the clock reads per state.
double clock_reads_per_state(const Poset& poset,
                             const std::vector<Interval>& intervals) {
  const CountingPoset counting(poset);
  std::uint64_t states = 0;
  for (const Interval& iv : intervals) {
    states += enumerate_lexical(counting, iv.gmin, iv.gbnd,
                                [](const Frontier&) {})
                  .states;
  }
  EXPECT_GT(states, intervals.size());
  return static_cast<double>(counting.reads()) / static_cast<double>(states);
}

// Within a run a state costs one clock read; the general step runs only
// between runs and reads one clock per level it tries. On independent
// chains runs dominate. The dependent shapes are the interval boxes of a
// 6-thread hot-var stream (ParaMount's Table 1 shape) and of a 6-process
// random poset, where runs are short: there the kernel reads 1.08 and 1.03
// clocks per state, and the same run loop with lexical_successor as its
// general step, which re-joins the retained prefix, reads 2.83 and 5.37.
TEST(Enumerators, LexicalReadsAboutOneClockPerState) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1000}, {2, 30}, {3, 12}};  // {chains, events per chain}
  for (const auto& [chains, length] : shapes) {
    PosetBuilder builder(chains);
    for (ThreadId t = 0; t < chains; ++t) {
      for (std::size_t i = 0; i < length; ++i) builder.add_event(t);
    }
    const Poset poset = std::move(builder).build();
    const CountingPoset counting(poset);
    const EnumStats stats =
        enumerate_lexical(counting, poset.empty_frontier(),
                          poset.full_frontier(), [](const Frontier&) {});
    std::uint64_t cells = 1;
    for (std::size_t t = 0; t < chains; ++t) cells *= length + 1;
    ASSERT_EQ(stats.states, cells);
    EXPECT_LE(static_cast<double>(counting.reads()),
              1.2 * static_cast<double>(stats.states))
        << chains << " chains of " << length << ": " << counting.reads()
        << " clock reads for " << stats.states << " states";
  }

  std::unique_ptr<ScenarioStream> stream =
      make_scenario("hot-var", ScenarioParams{6, 150, 1});
  ASSERT_NE(stream, nullptr);
  PosetBuilder builder(6);
  std::vector<EventId> order;
  trace::TraceEvent ev;
  while (stream->next(&ev)) {
    order.push_back(
        builder.add_event_with_clock(ev.tid, ev.kind, ev.object, ev.clock));
  }
  const Poset hot_var = std::move(builder).build();
  EXPECT_LE(clock_reads_per_state(hot_var, compute_intervals(hot_var, order)),
            1.25)
      << "hot-var interval boxes";
  const Poset random = make_random(6, 48, 0.5, 2);
  EXPECT_LE(clock_reads_per_state(
                random, compute_intervals(random, TopoPolicy::kThreadMajor)),
            1.25)
      << "random interval boxes";
}

// The always-on check after the loops still catches a broken box: {0,2} is
// inconsistent (e2[2] needs e1[1]), so the chain from {0,0} never reaches it.
TEST(EnumeratorsDeathTest, LexicalInconsistentHiDies) {
  const Poset poset = make_figure4_poset();
  EXPECT_DEATH(enumerate_lexical(poset, Frontier{0, 0}, Frontier{0, 2},
                                 [](const Frontier&) {}),
               "PM_CHECK failed");
}

TEST(Enumerators, DispatchNamesAlgorithms) {
  EXPECT_STREQ(to_string(EnumAlgorithm::kBfs), "bfs");
  EXPECT_STREQ(to_string(EnumAlgorithm::kLexical), "lexical");
}

}  // namespace
}  // namespace paramount
