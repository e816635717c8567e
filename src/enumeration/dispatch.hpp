// Runtime dispatch over the enumeration strategies, used by ParaMount to
// select its subroutine and by the benches/examples.
#pragma once

#include "enumeration/bfs_enumerator.hpp"
#include "enumeration/dfs_enumerator.hpp"
#include "enumeration/enumerator.hpp"
#include "enumeration/lexical_enumerator.hpp"

namespace paramount {

// Enumerates the box [lo, hi] with the selected algorithm.
template <typename PosetT>
EnumStats enumerate_box(EnumAlgorithm algorithm, const PosetT& poset,
                        const Frontier& lo, const Frontier& hi,
                        StateVisitor visit, MemoryMeter* meter = nullptr) {
  switch (algorithm) {
    case EnumAlgorithm::kBfs:
      return enumerate_bfs(poset, lo, hi, visit, meter);
    case EnumAlgorithm::kLexical:
      return enumerate_lexical(poset, lo, hi, visit, meter);
    case EnumAlgorithm::kDfs:
      return enumerate_dfs(poset, lo, hi, visit, meter);
  }
  PM_CHECK_MSG(false, "unknown enumeration algorithm");
  return {};
}

// Full-poset convenience (offline Poset only: needs full_frontier()).
template <typename PosetT>
EnumStats enumerate_all(EnumAlgorithm algorithm, const PosetT& poset,
                        StateVisitor visit, MemoryMeter* meter = nullptr) {
  return enumerate_box(algorithm, poset, poset.empty_frontier(),
                       poset.full_frontier(), visit, meter);
}

}  // namespace paramount
