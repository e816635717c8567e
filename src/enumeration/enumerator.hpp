// Common vocabulary for the global-state enumerators.
//
// Every enumerator visits consistent global states of a poset inside a box
// [lo, hi] (componentwise) and guarantees each in-box consistent state is
// visited exactly once. Full-poset enumeration is the special case
// lo = {0,…,0}, hi = full frontier. ParaMount's bounded subroutines (§3.2)
// call the same entry points with lo = Gmin(e), hi = Gbnd(e).
//
// The visitor is a template parameter of every enumerator: any callable
// invocable as visit(const Frontier&), taken by forwarding reference and
// invoked in place, never copied (mutable lambdas and std::function work).
// A caller's lambda is thus compiled into the per-state loop; the frontier
// reference is only valid during the call. Each kernel instantiation stays
// out of line (noinline) so it keeps its code-placement pin and does not
// bloat its callers. ParaMount's drivers erase the visitor once per interval
// instead (core/paramount.hpp).
#pragma once

#include <cstdint>

#include "poset/poset.hpp"
#include "util/mem_meter.hpp"

namespace paramount {

struct EnumStats {
  std::uint64_t states = 0;        // states visited
  std::uint64_t peak_bytes = 0;    // working-set high-water mark (0 if no meter)

  EnumStats& operator+=(const EnumStats& other) {
    states += other.states;
    peak_bytes = peak_bytes > other.peak_bytes ? peak_bytes : other.peak_bytes;
    return *this;
  }
};

// Identifies an enumeration strategy; used by benches and ParaMount to select
// the subroutine.
enum class EnumAlgorithm {
  kBfs,      // Cooper-Marzullo breadth-first [6], dedup'd to exactly-once
  kLexical,  // Ganter/Garg lexical order [11,12], O(n²) closure rows
};

const char* to_string(EnumAlgorithm algorithm);

}  // namespace paramount
