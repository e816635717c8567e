// Depth-first enumeration with a global visited set.
//
// Not from the paper: an intentionally different traversal used as an
// independent correctness oracle for the BFS and lexical enumerators and as
// an alternative ParaMount subroutine in the ablation bench. Its visited set
// holds *every* state, so its memory footprint is the worst of the three —
// which makes it a useful stress case for the MemoryMeter plumbing too.
#pragma once

#include <unordered_set>
#include <utility>
#include <vector>

#include "enumeration/bfs_enumerator.hpp"
#include "enumeration/enumerator.hpp"
#include "poset/global_state.hpp"

namespace paramount {

// Enumerates every consistent state G with lo ≤ G ≤ hi exactly once in
// depth-first order. Preconditions: lo and hi are consistent and lo ≤ hi.
template <typename PosetT, typename Visit>
[[gnu::noinline]] EnumStats enumerate_dfs(const PosetT& poset,
                                          const Frontier& lo,
                                          const Frontier& hi, Visit&& visit,
                                          MemoryMeter* meter = nullptr) {
  PM_CHECK_MSG(lo.leq(hi), "enumerate_dfs: lo must be <= hi");
  PM_DCHECK(poset.is_consistent(lo));
  PM_DCHECK(poset.is_consistent(hi));

  const std::size_t n = poset.num_threads();
  const std::size_t per_state = detail::frontier_store_bytes(n);
  EnumStats stats;

  std::unordered_set<Frontier, FrontierHash> visited;
  std::vector<Frontier> stack;
  std::uint64_t charged = 0;
  auto charge_one = [&] {
    if (meter != nullptr) {
      meter->charge(per_state);
      charged += per_state;
    }
  };

  try {
    visited.insert(lo);
    stack.push_back(lo);
    charge_one();
    while (!stack.empty()) {
      const Frontier state = std::move(stack.back());
      stack.pop_back();
      visit(state);
      ++stats.states;
      for (ThreadId t = 0; t < n; ++t) {
        if (state[t] + 1 > hi[t] || !event_enabled(poset, state, t)) continue;
        Frontier succ = state;
        succ[t] += 1;
        if (visited.insert(succ).second) {
          stack.push_back(std::move(succ));
          charge_one();
        }
      }
    }
  } catch (...) {
    if (meter != nullptr) meter->release(charged);
    throw;
  }
  if (meter != nullptr) {
    meter->release(charged);
    stats.peak_bytes = meter->peak_bytes();
  }
  return stats;
}

// Full-poset convenience (offline Poset only: needs full_frontier()).
template <typename PosetT, typename Visit>
EnumStats enumerate_dfs(const PosetT& poset, Visit&& visit,
                        MemoryMeter* meter = nullptr) {
  return enumerate_dfs(poset, poset.empty_frontier(), poset.full_frontier(),
                       std::forward<Visit>(visit), meter);
}

}  // namespace paramount
