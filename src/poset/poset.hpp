// Poset of events P = (E, →): per-thread event sequences plus Lamport's
// happened-before relation encoded in vector clocks (§2 of the paper).
#pragma once

#include <cstddef>
#include <vector>

#include "poset/event.hpp"
#include "poset/vector_clock.hpp"

namespace paramount {

class Poset {
 public:
  explicit Poset(std::size_t num_threads)
      : events_(num_threads) {}

  std::size_t num_threads() const { return events_.size(); }

  EventIndex num_events(ThreadId tid) const {
    PM_DCHECK(tid < events_.size());
    return static_cast<EventIndex>(events_[tid].size());
  }

  std::size_t total_events() const {
    std::size_t total = 0;
    for (const auto& seq : events_) total += seq.size();
    return total;
  }

  // 1-based access matching the paper's e_i[k] notation.
  const Event& event(ThreadId tid, EventIndex index) const {
    PM_DCHECK(tid < events_.size());
    PM_DCHECK(index >= 1 && index <= events_[tid].size());
    return events_[tid][index - 1];
  }

  const Event& event(EventId id) const { return event(id.tid, id.index); }

  const VectorClock& vc(ThreadId tid, EventIndex index) const {
    return event(tid, index).vc;
  }

  // Happened-before test via vector clocks: a → b iff a.vc ≤ b.vc and a ≠ b.
  bool happened_before(EventId a, EventId b) const {
    if (a == b) return false;
    return event(a).vc.leq(event(b).vc);
  }

  // Events a, b are concurrent iff neither happened before the other.
  bool concurrent(EventId a, EventId b) const {
    return a != b && !happened_before(a, b) && !happened_before(b, a);
  }

  // The frontier containing every event (greatest global state of P).
  Frontier full_frontier() const {
    Frontier f(num_threads());
    for (ThreadId t = 0; t < num_threads(); ++t) f[t] = num_events(t);
    return f;
  }

  // The empty frontier {0,...,0} (least global state of P).
  Frontier empty_frontier() const { return Frontier(num_threads()); }

  // A frontier G is a consistent global state iff for every included event
  // its causal predecessors are included: vc(G[i]) ≤ G for all i (§2.1).
  bool is_consistent(const Frontier& frontier) const;

  // Approximate heap footprint of the stored poset, for Figure 12.
  std::size_t heap_bytes() const;

  // The first defective event of a thread-major scan and the rule its clock
  // breaks; `rule` is null when every clock is valid.
  struct Defect {
    const char* rule = nullptr;
    EventId event;
  };

  // Scans every clock for the vector-clock invariants (see .cpp) without
  // aborting: the check for clocks from an untrusted source.
  Defect first_defect() const;

  // The same scan for trusted builders; aborts on the first defect.
  void check_invariants() const;

 private:
  friend class PosetBuilder;

  std::vector<std::vector<Event>> events_;
};

}  // namespace paramount
