// Algorithm 3 (calculateVectorClock) as the state machine every clock
// producer rolls.
//
// The synthetic stream and the scenario library (and through them the trace
// generator and the online CLI driver) keep per-thread clocks plus auxiliary
// timelines (locks, channels, barriers) and advance them with three steps:
//   * local_step  — tick the thread's own component;
//   * sync_step   — tick, join an auxiliary timeline, and let the timeline
//                   adopt the result (Algorithm 3 proper);
//   * absorb_step — tick and join another *thread's* clock without the
//                   partner adopting (fork/join edges).
// Each step writes the new event's clock to `out`. DESIGN.md §10 records why
// the clocks are plain VectorClocks rather than tree or epoch clocks.
#pragma once

#include <cstddef>
#include <vector>

#include "poset/vector_clock.hpp"

namespace paramount {

class ClockEngine {
 public:
  explicit ClockEngine(std::size_t num_threads)
      : thread_clocks_(num_threads, VectorClock(num_threads)) {}

  // Tick thread `tid` for a purely local event.
  void local_step(ThreadId tid, VectorClock* out) {
    VectorClock& vc = thread_clocks_[tid];
    vc[tid] += 1;
    *out = vc;
  }

  // Algorithm 3 against auxiliary timeline `timeline` (created, all-zero,
  // on first use): tick, join, timeline adopts the result.
  void sync_step(ThreadId tid, std::size_t timeline, VectorClock* out) {
    if (timeline >= timelines_.size()) {
      timelines_.resize(timeline + 1, VectorClock(thread_clocks_.size()));
    }
    *out = calculate_vector_clock(tid, thread_clocks_[tid],
                                  timelines_[timeline]);
  }

  // Fork/join edge: tick `dst` and join thread `src`'s clock (no adoption).
  void absorb_step(ThreadId dst, ThreadId src, VectorClock* out) {
    VectorClock& vc = thread_clocks_[dst];
    vc[dst] += 1;
    vc.join(thread_clocks_[src]);
    *out = vc;
  }

 private:
  std::vector<VectorClock> thread_clocks_;
  std::vector<VectorClock> timelines_;
};

}  // namespace paramount
