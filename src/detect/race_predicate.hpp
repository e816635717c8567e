// The data-race predicate (Algorithms 5-6 of the paper).
//
// Evaluated on a global state G enumerated inside the interval I(e) of the
// new event e: the accesses of e are compared against the accesses of every
// other thread's maximal (frontier) event in G. Two accesses race when they
// touch the same variable, at least one is a write, neither is an
// initialization write, and the two events are concurrent.
//
// Completeness relies on the partition property: for any racy pair (e, f),
// the later of the two in →p sees the other inside its Gbnd snapshot, and
// the join of their least states is a consistent state of its interval that
// carries both events in its frontier — so checking only pairs involving the
// interval-owning event e finds every racy pair exactly where the paper's
// Algorithm 5 looks for it.
#pragma once

#include <atomic>
#include <cstdint>

#include "detect/race_report.hpp"
#include "poset/epoch.hpp"
#include "poset/global_state.hpp"
#include "runtime/access.hpp"

namespace paramount {

namespace detail {
// Whether the frontier event (tid, index) is still resident. Posets without
// a sliding window (the offline Poset) have no is_live(); everything is.
template <typename PosetT>
bool frontier_event_live(const PosetT& poset, ThreadId tid, EventIndex index) {
  if constexpr (requires { poset.is_live(tid, index); }) {
    return poset.is_live(tid, index);
  } else {
    return true;
  }
}
}  // namespace detail

// True iff accesses a and b conflict under the paper's rules.
inline bool accesses_conflict(const Access& a, const Access& b) {
  return a.var == b.var && (a.is_write || b.is_write) && !a.is_init &&
         !b.is_init;
}

// Algorithm 6 over one enumerated state. `owner` must be in G's frontier.
// Non-collection frontier events carry no accesses and are skipped.
//
// Under a sliding window (OnlinePoset with GC), a candidate whose event has
// been reclaimed cannot be examined; such pairs are dropped and counted in
// `window_evictions` rather than silently missed. Under OnlineParamount's
// window protocol every state in [Gmin, Gbnd] stays resident for the
// enumeration's lifetime (a pooled interval holds an EnumGuard pin; one the
// submitting thread enumerates is held by the clock floor, its event being
// its thread's newest), so evictions only occur when collect() is driven
// past intervals outside that protocol (e.g. manual collect() calls between
// submit and a deferred re-check).
template <typename PosetT>
void check_races(const PosetT& poset, const AccessTable& table, EventId owner,
                 const Frontier& state, RaceReport& report,
                 std::atomic<std::uint64_t>* window_evictions = nullptr) {
  const auto evicted = [window_evictions] {
    if (window_evictions != nullptr) {
      // relaxed: monotone statistics counter, read after the run drains.
      window_evictions->fetch_add(1, std::memory_order_relaxed);
    }
  };
  if (!detail::frontier_event_live(poset, owner.tid, owner.index)) {
    evicted();
    return;
  }
  const auto& e = poset.event(owner.tid, owner.index);
  if (e.kind != OpKind::kCollection) return;
  if (state[owner.tid] != owner.index) {
    // The empty state {0,…,0} is assigned to the first event's interval as
    // a special case (Figure 6a); the owning event is not in its frontier,
    // so there is no pair to check.
    PM_DCHECK(state.sum() == 0);
    return;
  }
  const AccessSet& own_accesses = table.get(owner.tid, e.object);

  for (ThreadId i = 0; i < poset.num_threads(); ++i) {
    if (i == owner.tid || state[i] == 0) continue;
    if (!detail::frontier_event_live(poset, i, state[i])) {
      evicted();
      continue;
    }
    const auto& f = poset.event(i, state[i]);
    if (f.kind != OpKind::kCollection) continue;
    // Frontier events of different threads are usually concurrent, but the
    // maximal event of thread i may lie inside e's causal history (e.g. in
    // G = Gmin(e)). f is thread i's event number state[i], so the O(1) epoch
    // test (poset/epoch.hpp) answers f ≼ e exactly — no full clock scan.
    if (Epoch{i, state[i]}.happens_before(e.vc)) {
      PM_DCHECK(f.vc.leq(e.vc));
      continue;
    }
    PM_DCHECK(!f.vc.leq(e.vc));
    PM_DCHECK(!e.vc.leq(f.vc));  // f cannot be above e: e is in G's frontier

    const AccessSet& other_accesses = table.get(i, f.object);
    for (const Access& a : own_accesses) {
      for (const Access& b : other_accesses) {
        if (accesses_conflict(a, b)) {
          report.add(a.var, f.id, owner);
        }
      }
    }
  }
}

// Figure-3 style general check used by the offline (RV-analogue) detector:
// every pair of frontier collections of G is examined.
template <typename PosetT>
void check_races_all_pairs(const PosetT& poset, const AccessTable& table,
                           const Frontier& state, RaceReport& report) {
  const std::size_t n = poset.num_threads();
  for (ThreadId i = 0; i < n; ++i) {
    if (state[i] == 0) continue;
    const auto& ei = poset.event(i, state[i]);
    if (ei.kind != OpKind::kCollection) continue;
    for (ThreadId j = i + 1; j < n; ++j) {
      if (state[j] == 0) continue;
      const auto& ej = poset.event(j, state[j]);
      if (ej.kind != OpKind::kCollection) continue;
      // Epoch form of the ordering test (see check_races above): ei is
      // thread i's event state[i], ej thread j's event state[j].
      const bool ordered = Epoch{i, state[i]}.happens_before(ej.vc) ||
                           Epoch{j, state[j]}.happens_before(ei.vc);
      PM_DCHECK(ordered == (ei.vc.leq(ej.vc) || ej.vc.leq(ei.vc)));
      if (ordered) continue;
      const AccessSet& ai = table.get(i, ei.object);
      const AccessSet& aj = table.get(j, ej.object);
      for (const Access& a : ai) {
        for (const Access& b : aj) {
          if (accesses_conflict(a, b)) {
            report.add(a.var, ei.id, ej.id);
          }
        }
      }
    }
  }
}

}  // namespace paramount
