// Lexical enumeration of consistent global states (Ganter [11], Garg [12]).
//
// States are visited in strictly increasing lexicographic order of their
// frontiers (thread 0 most significant). The algorithm is *stateless*: it
// keeps only the current frontier, O(n) space, which is why the paper pairs
// it with ParaMount for the memory-frugal L-Para configuration.
//
// Successor computation (one step, O(n²) worst case):
//   scan k from the least significant thread upward; thread k is viable if
//   the next event e = e_k[G[k]+1] exists within the bound and all of e's
//   causal predecessors on more significant threads are already in G;
//   then increment G[k], reset every less significant component to its
//   box minimum lo[i], and raise those components to cover the causal
//   closure of the retained prefix (lines 10-14 of the paper's Algorithm 2).
//
// enumerate_lexical walks the box in runs: maximal sequences of consecutive
// states that differ only in the least significant thread's component.
// Within a run the successor is always k = n−1, with nothing to reset or
// join, so each step costs one clock read and n−1 compares. The general
// O(n²) step (and the n-wide `state == hi` test) happens only between runs.
// lexical_successor is the stateless one-step function; the tests and
// bench_micro also drive it directly.
//
// Template over PosetLike so the same code enumerates offline Posets and
// bounded prefixes of the concurrent OnlinePoset. Clocks are bound with
// `const auto&`: a reference into a Poset, a ClockView of an OnlinePoset row.
#pragma once

#include "enumeration/enumerator.hpp"

namespace paramount {

// Both kernels below start on a 64-byte boundary. Where they land matters:
// the same instructions ran 8-12% slower at offset 48 mod 64 than at 0 or
// 32 (4-vCPU Xeon, GCC 12.2), and edits to unrelated code can move them
// there. The pin keeps code placement out of every A/B comparison.

// Computes, in place, the lexical successor of `state` within the box
// [lo, hi]: the lex-least consistent state strictly greater than `state`.
// Returns false (leaving `state` unspecified) if no such state exists.
template <typename PosetT>
[[gnu::aligned(64)]] bool lexical_successor(const PosetT& poset,
                                            const Frontier& lo,
                                            const Frontier& hi,
                                            Frontier& state) {
  const std::size_t n = poset.num_threads();
  // Try to advance the least significant viable thread. Monotonicity of
  // vector clocks along a thread means that if e_k[state[k]+1] has an
  // unsatisfied predecessor on a more significant thread, so does every
  // later event of thread k — advancing k by exactly one is the only
  // candidate per thread.
  for (std::size_t k1 = n; k1-- > 0;) {
    const ThreadId k = static_cast<ThreadId>(k1);
    if (state[k] + 1 > hi[k]) continue;
    const auto& vc = poset.vc(k, state[k] + 1);
    bool prefix_ok = true;
    for (ThreadId i = 0; i < k; ++i) {
      if (vc[i] > state[i]) {
        prefix_ok = false;
        break;
      }
    }
    if (!prefix_ok) continue;

    state[k] += 1;
    // Reset the less significant components to the box floor...
    for (std::size_t i = k1 + 1; i < n; ++i) state[i] = lo[i];
    // ...and raise them to the causal closure of the retained prefix. Every
    // retained event's clock already covers its predecessors' clocks (clocks
    // are transitively closed), so one pass of joins suffices.
    for (ThreadId j = 0; j <= k; ++j) {
      if (state[j] == 0) continue;
      const auto& jvc = poset.vc(j, state[j]);
      for (std::size_t i = k1 + 1; i < n; ++i) {
        if (jvc[i] > state[i]) state[i] = jvc[i];
      }
    }
    return true;
  }
  return false;
}

// Enumerates every consistent state G with lo ≤ G ≤ hi exactly once in
// lexical order. Preconditions: lo and hi are consistent and lo ≤ hi.
template <typename PosetT>
[[gnu::aligned(64)]] EnumStats enumerate_lexical(const PosetT& poset,
                                                 const Frontier& lo,
                                                 const Frontier& hi,
                                                 StateVisitor visit,
                                                 MemoryMeter* meter = nullptr) {
  PM_CHECK_MSG(lo.leq(hi), "enumerate_lexical: lo must be <= hi");
  PM_DCHECK(poset.is_consistent(lo));
  PM_DCHECK(poset.is_consistent(hi));

  EnumStats stats;
  Frontier state = lo;
  // The entire working set is the current frontier plus the lo/hi bounds.
  if (meter != nullptr) meter->charge(3 * sizeof(Frontier));
  // The always-on corruption check lives *outside* the per-state loops (the
  // lint's hot-loop-check rule): a missing successor can only mean the box
  // invariant broke, and that is just as detectable after the loops exit.
  bool reached_hi = false;
  const std::size_t n = poset.num_threads();
  const ThreadId last = static_cast<ThreadId>(n - 1);  // read only if n > 0
  while (true) {
    visit(state);
    ++stats.states;
    // The run: advance the least significant thread while its next event is
    // inside the box and the fixed prefix enables it. This is exactly the
    // k = n−1 case of lexical_successor, so the visit order is unchanged.
    while (n > 0 && state[last] < hi[last]) {
      const auto& vc = poset.vc(last, state[last] + 1);
      ThreadId i = 0;
      while (i < last && vc[i] <= state[i]) ++i;
      if (i < last) break;
      state[last] += 1;
      visit(state);
      ++stats.states;
    }
    if (state == hi) {
      reached_hi = true;
      break;
    }
    if (!lexical_successor(poset, lo, hi, state)) break;
  }
  PM_CHECK_MSG(reached_hi,
               "hi is the lex-greatest in-box state; successors must chain "
               "from lo to hi");
  if (meter != nullptr) {
    meter->release(3 * sizeof(Frontier));
    stats.peak_bytes = meter->peak_bytes();
  }
  return stats;
}

// Full-poset convenience (offline Poset only: needs full_frontier()).
template <typename PosetT>
EnumStats enumerate_lexical(const PosetT& poset, StateVisitor visit,
                            MemoryMeter* meter = nullptr) {
  return enumerate_lexical(poset, poset.empty_frontier(),
                           poset.full_frontier(), visit, meter);
}

}  // namespace paramount
