#include "poset/poset.hpp"

namespace paramount {

bool Poset::is_consistent(const Frontier& frontier) const {
  PM_DCHECK(frontier.size() == num_threads());
  for (ThreadId t = 0; t < num_threads(); ++t) {
    if (frontier[t] == 0) continue;
    PM_DCHECK(frontier[t] <= num_events(t));
    if (!vc(t, frontier[t]).leq(frontier)) return false;
  }
  return true;
}

std::size_t Poset::heap_bytes() const {
  std::size_t bytes = events_.capacity() * sizeof(events_[0]);
  for (const auto& seq : events_) {
    bytes += seq.capacity() * sizeof(Event);
    for (const Event& e : seq) {
      // Spilled clock storage for wide posets.
      bytes += e.vc.size() > 16 ? e.vc.size() * sizeof(EventIndex) : 0;
    }
  }
  return bytes;
}

Poset::Defect Poset::first_defect() const {
  const std::size_t n = num_threads();
  for (ThreadId t = 0; t < n; ++t) {
    for (EventIndex i = 1; i <= num_events(t); ++i) {
      const auto broken = [t, i](const char* rule) {
        return Defect{rule, EventId{t, i}};
      };
      const Event& e = event(t, i);
      if (e.id.tid != t || e.id.index != i) {
        return broken("event id does not match its position");
      }
      if (e.vc.size() != n) return broken("vector clock width mismatch");
      if (e.vc[t] != i) {
        return broken(
            "own component of the vector clock must equal the index");
      }
      const Event* prev = i > 1 ? &event(t, i - 1) : nullptr;
      if (prev != nullptr && !prev->vc.leq(e.vc)) {
        return broken("process order must be reflected in vector clocks");
      }
      // Every claimed predecessor must exist and itself be dominated:
      // vc(e)[j] = k implies vc of e_j[k] ≤ vc(e) (transitive closure).
      // A component e shares with its thread predecessor p is implied:
      // vc(e_j[k]) ≤ vc(p) passed at p and vc(p) ≤ vc(e) just passed. So
      // only the components that moved cost an O(n) check, and the first
      // failure is still the one a scan of every component finds.
      for (ThreadId j = 0; j < n; ++j) {
        if (j == t || e.vc[j] == 0) continue;
        if (prev != nullptr && prev->vc[j] == e.vc[j]) continue;
        if (e.vc[j] > num_events(j)) {
          return broken("vector clock points past the end of a thread");
        }
        if (!vc(j, e.vc[j]).leq(e.vc)) {
          return broken("vector clocks must be transitively closed");
        }
      }
    }
  }
  return {};
}

void Poset::check_invariants() const {
  const Defect found = first_defect();
  PM_CHECK_MSG(found.rule == nullptr, found.rule);
}

}  // namespace paramount
