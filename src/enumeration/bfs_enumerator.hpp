// Cooper-Marzullo breadth-first enumeration [6], enhanced with per-level
// deduplication (the technique of [12]) so every consistent state is visited
// exactly once.
//
// The sweep proceeds level by level, where level k holds the consistent
// states containing exactly k events beyond `lo`; states in different levels
// can never coincide, so deduplication within the next level suffices for
// exactly-once. The working set — two levels of frontiers — is what grows
// exponentially in the number of threads and what makes the paper's
// RV-runtime baseline run out of memory (Table 1); the optional MemoryMeter
// reproduces that failure mode deterministically.
//
// Template over PosetLike so the same code enumerates offline Posets and
// bounded prefixes of the concurrent OnlinePoset.
#pragma once

#include <unordered_set>
#include <utility>
#include <vector>

#include "enumeration/enumerator.hpp"
#include "poset/global_state.hpp"

namespace paramount {

namespace detail {

// Approximate heap bytes of one stored frontier (the clock array spills to
// the heap only for very wide posets; the set node dominates).
inline std::size_t frontier_store_bytes(std::size_t num_threads) {
  const std::size_t clock_heap =
      num_threads > 16 ? num_threads * sizeof(EventIndex) : 0;
  return clock_heap + sizeof(Frontier) + 4 * sizeof(void*);
}

}  // namespace detail

// Enumerates every consistent state G with lo ≤ G ≤ hi exactly once in
// breadth-first (rank) order. Preconditions: lo and hi are consistent and
// lo ≤ hi. Throws MemoryBudgetExceeded if `meter` has a budget and the level
// sets outgrow it.
template <typename PosetT, typename Visit>
[[gnu::noinline]] EnumStats enumerate_bfs(const PosetT& poset,
                                          const Frontier& lo,
                                          const Frontier& hi, Visit&& visit,
                                          MemoryMeter* meter = nullptr) {
  PM_CHECK_MSG(lo.leq(hi), "enumerate_bfs: lo must be <= hi");
  PM_DCHECK(poset.is_consistent(lo));
  PM_DCHECK(poset.is_consistent(hi));

  const std::size_t n = poset.num_threads();
  const std::size_t per_state = detail::frontier_store_bytes(n);
  EnumStats stats;

  std::vector<Frontier> level{lo};
  std::uint64_t charged = 0;
  auto charge_states = [&](std::uint64_t count) {
    if (meter != nullptr) {
      meter->charge(count * per_state);
      charged += count * per_state;
    }
  };

  try {
    charge_states(1);
    while (!level.empty()) {
      std::unordered_set<Frontier, FrontierHash> next_level;
      for (const Frontier& state : level) {
        visit(state);
        ++stats.states;
        for (ThreadId t = 0; t < n; ++t) {
          if (state[t] + 1 > hi[t] || !event_enabled(poset, state, t)) {
            continue;
          }
          Frontier succ = state;
          succ[t] += 1;
          if (next_level.insert(std::move(succ)).second) {
            charge_states(1);
          }
        }
      }
      // The finished level is dropped before the next one expands further.
      if (meter != nullptr) {
        meter->release(level.size() * per_state);
        charged -= level.size() * per_state;
      }
      level.assign(next_level.begin(), next_level.end());
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
EnumStats enumerate_bfs(const PosetT& poset, Visit&& visit,
                        MemoryMeter* meter = nullptr) {
  return enumerate_bfs(poset, poset.empty_frontier(), poset.full_frontier(),
                       std::forward<Visit>(visit), meter);
}

}  // namespace paramount
