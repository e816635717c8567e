// possibly(φ) / definitely(φ) — handcrafted cases plus a property test
// against a brute-force path search.
#include "detect/modalities.hpp"

#include <gtest/gtest.h>

#include <map>

#include "poset/global_state.hpp"
#include "poset/lattice.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace paramount {
namespace {

using testing::key_of;
using testing::make_figure2_poset;
using testing::make_grid;
using testing::make_random;
using testing::Key;

TEST(Possibly, FindsAWitness) {
  const Poset poset = make_grid(3, 3);
  auto phi = [](const Frontier& g) { return g[0] == 2 && g[1] == 2; };
  const auto result = detect_possibly(poset, phi);
  EXPECT_TRUE(result.holds);
  EXPECT_EQ(key_of(result.witness), (Key{2, 2}));
}

TEST(Possibly, FalseWhenNoStateSatisfies) {
  const Poset poset = make_grid(2, 2);
  auto phi = [](const Frontier& g) { return g[0] == 99; };
  const auto result = detect_possibly(poset, phi);
  EXPECT_FALSE(result.holds);
  EXPECT_EQ(result.states_explored, 9u);  // scanned everything
}

TEST(Possibly, ParallelScanAgrees) {
  const Poset poset = make_random(4, 28, 0.4, 3);
  auto phi = [](const Frontier& g) { return state_rank(g) == 11; };
  const auto sequential = detect_possibly(poset, phi, 1);
  const auto parallel = detect_possibly(poset, phi, 4);
  EXPECT_EQ(sequential.holds, parallel.holds);
}

TEST(Definitely, TrueWhenInitialSatisfies) {
  const Poset poset = make_grid(2, 2);
  auto phi = [](const Frontier& g) { return state_rank(g) == 0; };
  EXPECT_TRUE(detect_definitely(poset, phi).holds);
}

TEST(Definitely, RankCutMustBeCrossed) {
  // Every path from {0,0} to {3,3} passes through rank 3 exactly once.
  const Poset poset = make_grid(3, 3);
  auto phi = [](const Frontier& g) { return state_rank(g) == 3; };
  EXPECT_TRUE(detect_definitely(poset, phi).holds);
}

TEST(Definitely, AvoidableStateIsNotDefinite) {
  // φ = exactly the state {2,0}: paths may advance thread 1 first.
  const Poset poset = make_grid(3, 3);
  auto phi = [](const Frontier& g) { return g[0] == 2 && g[1] == 0; };
  const auto result = detect_definitely(poset, phi);
  EXPECT_FALSE(result.holds);
  EXPECT_EQ(key_of(result.witness), (Key{3, 3}));
}

TEST(Definitely, Figure2SynchronizationPoint) {
  // In the Figure 1/2 program, x.wait (thread 1's first event) follows
  // x.notify: every observation passes a state where thread 0 executed at
  // least 2 events before thread 1 starts — i.e. φ = (G[0] ≥ 2 ∧ G[1] = 0)
  // is definite... only if thread 1 cannot start before: indeed G[1] ≥ 1
  // requires G[0] ≥ 2, and thread 1's first event only appears after.
  const Poset poset = make_figure2_poset();
  auto phi = [](const Frontier& g) { return g[0] >= 2 && g[1] == 0; };
  EXPECT_TRUE(detect_definitely(poset, phi).holds);
}

TEST(Definitely, SingleStatePosetWithoutPhi) {
  PosetBuilder builder(1);
  const Poset poset = std::move(builder).build();
  auto phi = [](const Frontier&) { return false; };
  const auto result = detect_definitely(poset, phi);
  EXPECT_FALSE(result.holds);
}

TEST(Definitely, EvaluatesPhiOncePerState) {
  // φ = exactly {1,1}, which both ¬φ states {1,0} and {0,1} lead to: the
  // sweep must still evaluate it (and every other state) only once.
  const Poset poset = make_grid(2, 2);
  std::map<Key, int> evaluations;
  auto phi = [&](const Frontier& g) {
    ++evaluations[key_of(g)];
    return g[0] == 1 && g[1] == 1;
  };
  const auto result = detect_definitely(poset, phi);
  EXPECT_FALSE(result.holds);  // {2,0} and {0,2} route around {1,1}
  EXPECT_EQ(key_of(result.witness), (Key{2, 2}));
  for (const auto& [state, count] : evaluations) {
    EXPECT_EQ(count, 1) << "state {" << state[0] << "," << state[1] << "}";
  }
  EXPECT_EQ(result.states_explored, evaluations.size());
}

// Brute force: memoized "does a ¬φ path from `state` reach the final state".
bool avoidable_path(const Poset& poset, const Frontier& state,
                    FunctionRef<bool(const Frontier&)> phi,
                    std::map<Key, bool>& memo) {
  if (phi(state)) return false;
  if (state == poset.full_frontier()) return true;
  const Key key = key_of(state);
  if (auto it = memo.find(key); it != memo.end()) return it->second;
  bool reachable = false;
  for (const Frontier& succ : successors(poset, state)) {
    if (avoidable_path(poset, succ, phi, memo)) {
      reachable = true;
      break;
    }
  }
  memo.emplace(key, reachable);
  return reachable;
}

class ModalitiesAgainstBruteForce
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(ModalitiesAgainstBruteForce, BothModalitiesMatch) {
  const auto [seed, modulus] = GetParam();
  const Poset poset = make_random(4, 20, 0.45, seed);

  auto phi = [&](const Frontier& g) {
    std::uint64_t h = g.hash() ^ (seed * 0x9e37ULL);
    return splitmix64(h) % static_cast<std::uint64_t>(modulus) == 0;
  };

  // possibly: brute scan.
  bool brute_possibly = false;
  for (const Frontier& g : all_ideals(poset)) {
    if (phi(g)) {
      brute_possibly = true;
      break;
    }
  }
  EXPECT_EQ(detect_possibly(poset, phi).holds, brute_possibly);

  // definitely: brute path search.
  std::map<Key, bool> memo;
  const bool counterexample =
      avoidable_path(poset, poset.empty_frontier(), phi, memo);
  EXPECT_EQ(detect_definitely(poset, phi).holds, !counterexample);
}

INSTANTIATE_TEST_SUITE_P(Random, ModalitiesAgainstBruteForce,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u,
                                                              5u),
                                            ::testing::Values(2, 4, 9)));

}  // namespace
}  // namespace paramount
