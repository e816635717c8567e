// Linear extensions (topological sorts) of the event DAG.
//
// ParaMount (Algorithm 1) fixes any total order →p extending happened-before
// and partitions the global states by it. The choice of extension does not
// affect correctness (any linear extension yields a partition, Lemmas 2-3)
// but does affect interval sizes and therefore load balance — ablation A of
// `bench_offline` measures this, which is why several policies are provided.
#pragma once

#include <cstdint>
#include <vector>

#include "poset/poset.hpp"

namespace paramount {

enum class TopoPolicy {
  // Round-robin across threads: pick the next enabled event cycling through
  // thread ids. Interleaves processes evenly; the default.
  kInterleave,
  // Always drain the lowest-numbered thread that has an enabled event.
  // Produces maximally skewed interval sizes — the adversarial case.
  kThreadMajor,
  // Uniformly random enabled event (seeded); models arbitrary observed
  // insertion orders of the online algorithm.
  kRandom,
};

const char* to_string(TopoPolicy policy);

// Returns a linear extension of the poset's happened-before relation under
// the given policy. Every returned order satisfies Property 1 of the paper:
// e → f implies e appears before f.
std::vector<EventId> topological_sort(const Poset& poset, TopoPolicy policy,
                                      std::uint64_t seed = 0);

// True iff `order` is a permutation of all events that respects →.
bool is_linear_extension(const Poset& poset,
                         const std::vector<EventId>& order);

}  // namespace paramount
