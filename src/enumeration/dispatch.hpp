// Runtime dispatch over the enumeration strategies, used by ParaMount to
// select its subroutine and by the benches/examples.
#pragma once

#include <utility>

#include "enumeration/bfs_enumerator.hpp"
#include "enumeration/enumerator.hpp"
#include "enumeration/lexical_enumerator.hpp"

namespace paramount {

// Enumerates the box [lo, hi] with the selected algorithm. The visitor is
// forwarded to the kernel, which invokes it in place (enumerator.hpp).
template <typename PosetT, typename Visit>
EnumStats enumerate_box(EnumAlgorithm algorithm, const PosetT& poset,
                        const Frontier& lo, const Frontier& hi, Visit&& visit,
                        MemoryMeter* meter = nullptr) {
  switch (algorithm) {
    case EnumAlgorithm::kBfs:
      return enumerate_bfs(poset, lo, hi, std::forward<Visit>(visit), meter);
    case EnumAlgorithm::kLexical:
      return enumerate_lexical(poset, lo, hi, std::forward<Visit>(visit),
                               meter);
  }
  PM_CHECK_MSG(false, "unknown enumeration algorithm");
  return {};
}

// Full-poset convenience (offline Poset only: needs full_frontier()).
template <typename PosetT, typename Visit>
EnumStats enumerate_all(EnumAlgorithm algorithm, const PosetT& poset,
                        Visit&& visit, MemoryMeter* meter = nullptr) {
  return enumerate_box(algorithm, poset, poset.empty_frontier(),
                       poset.full_frontier(), std::forward<Visit>(visit),
                       meter);
}

}  // namespace paramount
