// Predicate detection beyond data races: the polynomial weak-conjunctive
// detector of Garg-Waldecker over a small distributed computation. It finds
// the least consistent state satisfying a conjunction of local predicates
// without enumerating the lattice.
//
//   $ ./build/examples/predicate_zoo
#include <cstdio>

#include "detect/conjunctive.hpp"
#include "poset/global_state.hpp"
#include "poset/poset_builder.hpp"

using namespace paramount;

int main() {
  // A two-phase commit-ish computation: a coordinator (thread 0) sends
  // "prepare" to two participants, each votes, the coordinator commits.
  PosetBuilder builder(3);
  const EventId prepare = builder.add_event(0, OpKind::kSend);   // e0[1]
  const EventId vote1 =
      builder.add_event_after(1, prepare, OpKind::kReceive);     // e1[1]
  const EventId vote2 =
      builder.add_event_after(2, prepare, OpKind::kReceive);     // e2[1]
  builder.add_event(1, OpKind::kSend);                           // e1[2] vote
  builder.add_event(2, OpKind::kSend);                           // e2[2] vote
  EventId commit = builder.add_event(0, OpKind::kInternal);      // e0[2]
  commit = builder.add_event_after(0, EventId{1, 2});            // e0[3]
  builder.add_event_after(0, EventId{2, 2});                     // e0[4] commit
  const Poset poset = std::move(builder).build();
  (void)vote1;
  (void)vote2;
  (void)commit;

  std::printf("Two-phase computation: %zu threads, %zu events\n\n",
              poset.num_threads(), poset.total_events());

  // Conjunctive: the least state where every thread has taken its first
  // step — found without enumerating the lattice.
  auto first_steps = [](ThreadId, EventIndex i) { return i >= 1; };
  const auto conj = detect_conjunctive(poset, first_steps);
  std::printf(
      "conjunctive(every thread started): %s at least cut %s, after "
      "examining %llu events\n",
      conj.detected ? "detected" : "absent", conj.cut.to_string().c_str(),
      static_cast<unsigned long long>(conj.events_examined));
  return 0;
}
