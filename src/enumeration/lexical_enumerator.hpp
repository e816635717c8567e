// Lexical enumeration of consistent global states (Ganter [11], Garg [12]).
//
// States are visited in strictly increasing lexicographic order of their
// frontiers (thread 0 most significant).
//
// Successor computation (lines 10-14 of the paper's Algorithm 2):
//   scan k from the least significant thread upward; thread k is viable if
//   the next event e = e_k[G[k]+1] exists within the bound and all of e's
//   causal predecessors on more significant threads are already in G;
//   then increment G[k], reset every less significant component to its
//   box minimum lo[i], and raise those components to cover the causal
//   closure of the retained prefix.
// lexical_successor is that step as a stateless function of the current
// frontier: it re-joins the clock of every retained prefix event, so one step
// reads up to k+2 clocks and costs O(k·(n−k)) compares. It keeps O(n) space.
// enumerate_lexical does not call it; the tests chain it as the reference
// for enumerate_lexical's visit order.
//
// enumerate_lexical walks the box in runs: maximal sequences of consecutive
// states that differ only in the least significant thread's component.
// Within a run the successor is always k = n−1, with nothing to reset or
// join, so each step costs one clock read and n−1 compares. Between runs the
// general step tries k = n−2 upward (the run just showed n−1 cannot move),
// reading one clock per level it tries, and takes the retained prefix's
// closure from a table instead of re-joining its clocks. Closure row k
// holds, for every component c > k,
//   max(lo[c], max over j ≤ k of vc(j, G[j])[c]).
// Advancing thread k sets each component c > k to the max of row k−1 (lo
// for k = 0) and the clock of the event just enabled; that is the new row
// k, for one clock read and O(n−k) work. The new state is consistent, so
// the rows of the less significant levels equal row k on the components
// they cover until thread k or a more significant one moves again. The
// rows in force therefore form a stack of strictly increasing levels: a
// step at level k pops the rows of levels ≥ k, reads the top and pushes
// row k. The stack holds up to n rows of n components, O(n²) words beside
// the O(n) frontier. The `state == hi` test runs once, when no successor
// exists.
//
// Template over PosetLike so the same code enumerates offline Posets and
// bounded prefixes of the concurrent OnlinePoset. Clocks are bound with
// `const auto&`: a reference into a Poset, a ClockView of an OnlinePoset row.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "enumeration/enumerator.hpp"
#include "util/inlined_vector.hpp"

namespace paramount {

// Both kernels below start on a 64-byte boundary. Where they land matters:
// the same instructions ran 8-12% slower at offset 48 mod 64 than at 0 or
// 32 (4-vCPU Xeon, GCC 12.2), and edits to unrelated code can move them
// there. The pin keeps code placement out of every A/B comparison. It holds
// only for an out-of-line copy, so enumerate_lexical is also noinline: each
// visitor type gets its own pinned instantiation with the visitor compiled
// into its loops, rather than being inlined, unpinned, into its caller.

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

// The closure stack of enumerate_lexical (see the file comment). Entry d is
// the row of one thread level and covers components from[d]..n−1, where
// from[d] is that level + 1; entry 0 is lo, covering every component. Both
// buffers are inline up to 16 threads, like Frontier's, so a box allocates
// nothing there.
struct LexicalClosure {
  InlinedVector<EventIndex, 16 * 16> rows;  // entry d at rows[d * n]
  InlinedVector<ThreadId, 16> from;

  // Every tag starts at 0, so entry 0 covers every component.
  explicit LexicalClosure(const Frontier& lo)
      : rows(lo.size() * lo.size()), from(lo.size()) {
    std::copy(lo.data(), lo.data() + lo.size(), rows.begin());
  }

  // Bytes held, inline buffers included: what the meter charges.
  std::uint64_t bytes() const {
    return sizeof(*this) + rows.heap_bytes() + from.heap_bytes();
  }
};

// Enumerates every consistent state G with lo ≤ G ≤ hi exactly once in
// lexical order, calling visit(G) for each. Preconditions: lo and hi are
// consistent and lo ≤ hi.
template <typename PosetT, typename Visit>
[[gnu::noinline, gnu::aligned(64)]] EnumStats enumerate_lexical(
    const PosetT& poset, const Frontier& lo, const Frontier& hi,
    Visit&& visit, MemoryMeter* meter = nullptr) {
  PM_CHECK_MSG(lo.leq(hi), "enumerate_lexical: lo must be <= hi");
  PM_DCHECK(poset.is_consistent(lo));
  PM_DCHECK(poset.is_consistent(hi));

  EnumStats stats;
  Frontier state = lo;
  LexicalClosure closure(lo);
  // The working set: the current frontier, the lo/hi bounds and the closure
  // stack. The charge is released on every exit, a throwing visitor's too.
  std::optional<ScopedCharge> charge;
  if (meter != nullptr) {
    charge.emplace(*meter, 3 * sizeof(Frontier) + closure.bytes());
  }
  // The always-on corruption check lives *outside* the per-state loops (the
  // lint's hot-loop-check rule): a missing successor can only mean the box
  // invariant broke, and that is just as detectable after the loops exit.
  bool reached_hi = false;
  const std::size_t n = poset.num_threads();
  const ThreadId last = static_cast<ThreadId>(n - 1);  // read only if n > 0
  EventIndex* const rows = closure.rows.data();
  ThreadId* const from = closure.from.data();
  std::size_t depth = 1;  // entries in force; entry 0 (lo) never pops
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
    // The general step, from k = n−2 upward: the same viability test as
    // lexical_successor, then the closure from the stack instead of the
    // retained prefix's clocks.
    bool advanced = false;
    for (ThreadId k = n > 0 ? last : 0; k-- > 0;) {
      if (state[k] >= hi[k]) continue;
      const auto& vc = poset.vc(k, state[k] + 1);
      ThreadId i = 0;
      while (i < k && vc[i] <= state[i]) ++i;
      if (i < k) continue;
      state[k] += 1;
      // Pop the rows of levels ≥ k; the top is then the closure of the
      // prefix 0..k−1.
      while (from[depth - 1] > k) --depth;
      const EventIndex* const prefix = rows + (depth - 1) * n;
      EventIndex* const row = rows + depth * n;
      for (std::size_t c = k + 1; c < n; ++c) {
        row[c] = std::max(vc[c], prefix[c]);
        state[c] = row[c];
      }
      from[depth++] = k + 1;
      advanced = true;
      break;
    }
    if (!advanced) {
      // hi is the lex-greatest in-box state, so it has no successor; any
      // other state without one means the box invariant broke.
      reached_hi = state == hi;
      break;
    }
  }
  PM_CHECK_MSG(reached_hi,
               "hi is the lex-greatest in-box state; successors must chain "
               "from lo to hi");
  if (meter != nullptr) stats.peak_bytes = meter->peak_bytes();
  return stats;
}

// Full-poset convenience (offline Poset only: needs full_frontier()).
template <typename PosetT, typename Visit>
EnumStats enumerate_lexical(const PosetT& poset, Visit&& visit,
                            MemoryMeter* meter = nullptr) {
  return enumerate_lexical(poset, poset.empty_frontier(),
                           poset.full_frontier(), std::forward<Visit>(visit),
                           meter);
}

}  // namespace paramount
