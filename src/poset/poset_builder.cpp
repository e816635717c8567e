#include "poset/poset_builder.hpp"

namespace paramount {

EventId PosetBuilder::add_event(ThreadId tid, OpKind kind,
                                std::span<const EventId> deps,
                                std::uint32_t object) {
  PM_CHECK(tid < poset_.num_threads());
  auto& seq = poset_.events_[tid];

  Event e;
  e.id = EventId{tid, static_cast<EventIndex>(seq.size() + 1)};
  e.kind = kind;
  e.object = object;
  e.vc = seq.empty() ? VectorClock(poset_.num_threads()) : seq.back().vc;
  for (const EventId dep : deps) {
    PM_CHECK_MSG(dep.index >= 1 && dep.tid < poset_.num_threads() &&
                     dep.index <= poset_.num_events(dep.tid),
                 "dependency must already exist");
    e.vc.join(poset_.vc(dep.tid, dep.index));
  }
  e.vc[tid] = e.id.index;

  seq.push_back(std::move(e));
  return seq.back().id;
}

EventId PosetBuilder::add_event_with_clock(ThreadId tid, OpKind kind,
                                           std::uint32_t object,
                                           VectorClock clock) {
  PM_CHECK(tid < poset_.num_threads());
  PM_CHECK(clock.size() == poset_.num_threads());
  auto& seq = poset_.events_[tid];

  Event e;
  e.id = EventId{tid, static_cast<EventIndex>(seq.size() + 1)};
  e.kind = kind;
  e.object = object;
  PM_CHECK_MSG(clock[tid] == e.id.index,
               "own clock component must equal the event's index");
  e.vc = std::move(clock);

  seq.push_back(std::move(e));
  return seq.back().id;
}

Poset::Defect PosetBuilder::try_build(Poset* out) && {
  const Poset::Defect found = poset_.first_defect();
  if (found.rule == nullptr) *out = std::move(poset_);
  return found;
}

}  // namespace paramount
