// Incremental construction of a poset with automatic vector-clock
// computation.
//
// Events are appended per thread; each may name remote predecessor events
// (message receives, lock hand-offs, fork/join edges). The builder computes
// the transitively closed vector clock of every event as the join of its
// thread-predecessor's clock and all named dependencies' clocks — exactly the
// logging step of §2.2.
#pragma once

#include <span>
#include <vector>

#include "poset/poset.hpp"

namespace paramount {

class PosetBuilder {
 public:
  explicit PosetBuilder(std::size_t num_threads) : poset_(num_threads) {}

  std::size_t num_threads() const { return poset_.num_threads(); }
  EventIndex num_events(ThreadId tid) const { return poset_.num_events(tid); }

  // Appends an event to thread `tid`, happening after the thread's previous
  // event and after every event in `deps`. All dependencies must already
  // exist (which structurally guarantees acyclicity). Returns the new id.
  EventId add_event(ThreadId tid, OpKind kind = OpKind::kInternal,
                    std::span<const EventId> deps = {},
                    std::uint32_t object = 0);

  // Convenience for a single dependency.
  EventId add_event_after(ThreadId tid, EventId dep,
                          OpKind kind = OpKind::kInternal,
                          std::uint32_t object = 0) {
    return add_event(tid, kind, std::span<const EventId>(&dep, 1), object);
  }

  // Appends an event whose vector clock was computed elsewhere (e.g. by the
  // tracing runtime). The clock must be transitively closed, reference only
  // existing events, and have its own component equal to the new index;
  // build() verifies all of this.
  EventId add_event_with_clock(ThreadId tid, OpKind kind,
                               std::uint32_t object, VectorClock clock);

  const Poset& poset() const { return poset_; }

  // Finalizes: checks invariants and moves the poset out.
  Poset build() && {
    poset_.check_invariants();
    return std::move(poset_);
  }

  // Finalizes clocks from an untrusted source: the same scan as build(),
  // but its first defect comes back instead of aborting, and the poset
  // moves into *out only when there is none.
  Poset::Defect try_build(Poset* out) &&;

 private:
  Poset poset_;
};

}  // namespace paramount
