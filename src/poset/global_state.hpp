// Operations on global states (order ideals) of a poset.
//
// Template functions over any PosetLike type (offline Poset or concurrent
// OnlinePoset): the enumerators and tests share these primitives.
#pragma once

#include <vector>

#include "poset/poset.hpp"

namespace paramount {

// True iff the event e_t[G[t]+1] can be appended to the consistent state G
// (its causal predecessors are all inside G). Precondition: G is consistent.
template <typename PosetT>
bool event_enabled(const PosetT& poset, const Frontier& state, ThreadId tid) {
  const EventIndex next = state[tid] + 1;
  if (next > poset.num_events(tid)) return false;
  const auto& vc = poset.vc(tid, next);
  for (ThreadId j = 0; j < poset.num_threads(); ++j) {
    if (j != tid && vc[j] > state[j]) return false;
  }
  return true;
}

// All consistent states reachable from `state` by executing one event.
template <typename PosetT>
std::vector<Frontier> successors(const PosetT& poset, const Frontier& state) {
  std::vector<Frontier> result;
  for (ThreadId t = 0; t < poset.num_threads(); ++t) {
    if (event_enabled(poset, state, t)) {
      Frontier next = state;
      next[t] += 1;
      result.push_back(std::move(next));
    }
  }
  return result;
}

// The least consistent state containing the given event: its frontier is the
// event's vector clock (Gmin(e) = e.vc, §2.2 of the paper).
template <typename PosetT>
Frontier least_state_containing(const PosetT& poset, EventId id) {
  return Frontier(poset.vc(id.tid, id.index));
}

// Number of events included in a state (the BFS level of the state).
inline std::uint64_t state_rank(const Frontier& state) { return state.sum(); }

}  // namespace paramount
