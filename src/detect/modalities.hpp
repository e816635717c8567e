// Modal predicate detection over the lattice of consistent global states:
// Cooper & Marzullo's possibly(φ) and definitely(φ) [6], the two questions a
// predictive monitor can ask about a state predicate φ:
//
//   possibly(φ)   — some execution path consistent with the observed poset
//                   passes through a state satisfying φ (φ could have
//                   happened);
//   definitely(φ) — EVERY such path passes through a φ-state (φ must have
//                   happened, regardless of the actual schedule).
//
// possibly(φ) holds iff any consistent state satisfies φ — one enumeration
// suffices (and ParaMount parallelizes it). definitely(φ) holds iff the
// final state is unreachable from the initial state through ¬φ-states only:
// a level-by-level sweep that keeps the reachable ¬φ frontier set.
#pragma once

#include <cstdint>

#include "obs/telemetry.hpp"
#include "poset/poset.hpp"
#include "util/function_ref.hpp"

namespace paramount {

// φ: evaluated on a frontier. Must be deterministic.
using StatePredicate = FunctionRef<bool(const Frontier&)>;

struct ModalityResult {
  bool holds = false;
  // A witness: for possibly, a φ-state; for definitely, meaningless unless
  // holds is false, in which case it is the final state of a φ-avoiding
  // path (the counterexample schedule's last state).
  Frontier witness;
  std::uint64_t states_explored = 0;
};

// possibly(φ): scans consistent states (short-circuiting) for a φ-state.
// `num_workers > 1` partitions the scan with ParaMount. `telemetry` is
// forwarded to the underlying ParaMount driver (needs >= num_workers
// shards); the predicate-evaluation total is credited to shard 0.
ModalityResult detect_possibly(const Poset& poset, StatePredicate predicate,
                               std::size_t num_workers = 1,
                               obs::Telemetry* telemetry = nullptr);

// definitely(φ): true iff every maximal path of the lattice hits a φ-state.
// Runs a BFS over ¬φ-states only; memory is proportional to the widest
// ¬φ level (the same working-set shape as the BFS enumerator). φ is evaluated
// exactly once per state the sweep reaches; states_explored counts them.
ModalityResult detect_definitely(const Poset& poset, StatePredicate predicate);

}  // namespace paramount
