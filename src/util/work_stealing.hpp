// The victim policy of ThreadPool's work stealing (util/thread_pool.hpp):
// which sibling queues a worker whose own queue ran dry probes, and in what
// order.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/rng.hpp"

namespace paramount {

// Randomized iteration over the other workers' indices for one steal sweep:
// visits every victim exactly once, starting at a position drawn from the
// caller's (per-worker, seeded) generator so thieves spread out instead of
// convoying on worker 0.
class VictimSequence {
 public:
  VictimSequence(std::size_t self, std::size_t num_workers, Rng& rng);

  // Writes the next victim index; returns false once the sweep is exhausted.
  bool next(std::size_t& victim);

 private:
  std::size_t self_;
  std::size_t num_workers_;
  std::size_t offset_;
  std::size_t visited_ = 0;
};

namespace detail {
// Decorrelates per-worker RNG streams derived from one base seed.
std::uint64_t worker_seed(std::uint64_t base_seed, std::size_t worker);
}  // namespace detail

}  // namespace paramount
