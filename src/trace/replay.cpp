#include "trace/replay.hpp"

#include <string>
#include <utility>

#include "poset/poset_builder.hpp"

namespace paramount::trace {

bool replay_to_poset(const TraceReader& reader, Poset* poset,
                     std::vector<EventId>* order, TraceError* error) {
  PosetBuilder builder(reader.num_threads());
  if (order != nullptr) {
    order->clear();
    order->reserve(reader.total_events());
  }
  TraceCursor cursor = reader.cursor();
  TraceEvent event;
  for (;;) {
    const TraceCursor::Status status = cursor.next(&event, error);
    if (status == TraceCursor::Status::kError) return false;
    if (status == TraceCursor::Status::kEnd) break;
    const EventId id = builder.add_event_with_clock(
        event.tid, event.kind, event.object, std::move(event.clock));
    if (order != nullptr) order->push_back(id);
  }
  *poset = std::move(builder).build();
  return true;
}

bool replay_count_offline(const TraceReader& reader,
                          const ParamountOptions& options,
                          std::uint64_t* states, TraceError* error) {
  Poset poset{0};
  if (!replay_to_poset(reader, &poset, nullptr, error)) return false;
  const ParamountResult result =
      enumerate_paramount(poset, options, [](const Frontier&) {});
  *states = result.states;
  return true;
}

bool replay_count_streaming(const TraceReader& reader,
                            const ParamountOptions& options,
                            std::uint64_t* states, TraceError* error) {
  Poset poset{0};
  std::vector<EventId> order;
  if (!replay_to_poset(reader, &poset, &order, error)) return false;
  const ParamountResult result = enumerate_paramount_streaming(
      poset, order, options, [](const Frontier&) {});
  *states = result.states;
  return true;
}

bool replay_count_online(const TraceReader& reader,
                         const OnlineParamount::Options& options,
                         std::uint64_t* states, TraceError* error) {
  OnlineParamount driver(reader.num_threads(), options,
                         [](const OnlinePoset&, EventId, const Frontier&) {});
  TraceCursor cursor = reader.cursor();
  TraceEvent event;
  for (;;) {
    const TraceCursor::Status status = cursor.next(&event, error);
    if (status == TraceCursor::Status::kError) return false;
    if (status == TraceCursor::Status::kEnd) break;
    if (!driver.poset().has_room(event.tid)) {
      *error = TraceError{TraceErrorCode::kStorageFull,
                          "thread " + std::to_string(event.tid) +
                              " has no room for another event"};
      return false;
    }
    driver.submit(event.tid, event.kind, event.object,
                  std::move(event.clock));
  }
  driver.drain();
  *states = driver.states_enumerated();
  return true;
}

}  // namespace paramount::trace
