// Interval partition of the lattice of consistent global states (§3.1).
//
// Given a linear extension →p of the poset, every event e owns the interval
//   I(e) = { G consistent : Gmin(e) ≤ G ≤ Gbnd(e) }
// where Gmin(e) = e.vc (the least consistent state containing e) and
// Gbnd(e) is the frontier of { f : f = e ∨ f →p e } (Definition 1).
// Theorem 1: Gbnd(e) is consistent. Lemmas 2-3: the intervals are pairwise
// disjoint and cover every consistent state except the empty one, which is
// assigned to the first event of →p by convention.
#pragma once

#include <cstdint>
#include <vector>

#include "poset/poset.hpp"
#include "poset/topo_sort.hpp"

namespace paramount {

struct Interval {
  EventId event;
  Frontier gmin;  // = vc(event)
  Frontier gbnd;  // frontier of events up to `event` in →p

  // Number of box cells |{G : gmin ≤ G ≤ gbnd}| — an upper bound on the
  // interval's state count, used for load-balance diagnostics. Saturates at
  // UINT64_MAX: a wide box's product of widths overflows 64 bits.
  std::uint64_t box_cells() const {
    std::uint64_t cells = 1;
    for (std::size_t i = 0; i < gmin.size(); ++i) {
      const std::uint64_t width = std::uint64_t{gbnd[i] - gmin[i]} + 1;
      if (__builtin_mul_overflow(cells, width, &cells)) return UINT64_MAX;
    }
    return cells;
  }
};

// Computes the interval of every event of `order` (which must be a linear
// extension of `poset`), in →p order. One O(n) sweep per event: Gbnd of the
// k-th event is the running frontier after the first k events of →p.
std::vector<Interval> compute_intervals(const Poset& poset,
                                        const std::vector<EventId>& order);

// Convenience: topologically sorts with `policy` and computes the intervals.
std::vector<Interval> compute_intervals(const Poset& poset, TopoPolicy policy,
                                        std::uint64_t seed = 0);

}  // namespace paramount
