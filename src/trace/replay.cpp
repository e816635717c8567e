#include "trace/replay.hpp"

#include <string>
#include <utility>

#include "poset/poset_builder.hpp"
#include "poset/topo_sort.hpp"
#include "trace/trace_writer.hpp"

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
  const Poset::Defect found = std::move(builder).try_build(poset);
  if (found.rule == nullptr) return true;
  // The cursor has checked every other rule the scan covers, so only
  // closure can fail here.
  *error = TraceError{TraceErrorCode::kClockNotClosed,
                      "event " + found.event.to_string() + ": " + found.rule};
  return false;
}

bool write_poset_trace(const Poset& poset, const std::string& path,
                       TraceError* error) {
  if (poset.num_threads() == 0 || poset.num_threads() > kMaxThreads) {
    *error = TraceError{TraceErrorCode::kBadHeader,
                        "a .pmt holds 1 to " + std::to_string(kMaxThreads) +
                            " threads, the poset has " +
                            std::to_string(poset.num_threads())};
    return false;
  }
  TraceWriter writer;
  if (!writer.open(path, poset.num_threads(), {}, error)) return false;
  for (const EventId id : topological_sort(poset, TopoPolicy::kInterleave)) {
    const Event& e = poset.event(id);
    writer.append(id.tid, e.kind, e.object, e.vc);
  }
  return writer.finish(error);
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
