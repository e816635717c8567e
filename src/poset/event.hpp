// Events of a concurrent execution.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "poset/vector_clock.hpp"

namespace paramount {

// What an event did. The enumeration algorithms are agnostic to this; the
// tracing runtime and the predicates (data-race detection, Algorithms 5-6)
// interpret it.
enum class OpKind : std::uint8_t {
  kInternal,    // local computation step
  kSend,        // message send (distributed model)
  kReceive,     // message receive (distributed model)
  kAcquire,     // lock acquisition
  kRelease,     // lock release
  kFork,        // thread creation (parent side)
  kJoin,        // thread join (parent side)
  kRead,        // shared-variable read
  kWrite,       // shared-variable write
  kCollection,  // merged event collection (Figure 9 of the paper)
};

const char* to_string(OpKind kind);

// Identifies an event by (thread, 1-based index within thread).
struct EventId {
  ThreadId tid = 0;
  EventIndex index = 0;  // 1-based; index 0 is not a real event

  friend bool operator==(EventId a, EventId b) {
    return a.tid == b.tid && a.index == b.index;
  }
  friend bool operator!=(EventId a, EventId b) { return !(a == b); }

  std::uint64_t packed() const {
    return (static_cast<std::uint64_t>(tid) << 32) | index;
  }

  std::string to_string() const {
    return "e" + std::to_string(tid) + "[" + std::to_string(index) + "]";
  }
};

struct EventIdHash {
  std::size_t operator()(EventId id) const {
    std::uint64_t z = id.packed() + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }
};

struct Event {
  EventId id;
  OpKind kind = OpKind::kInternal;
  // Kind-dependent object: lock id for acquire/release, child thread id for
  // fork/join, variable id for read/write, payload handle for collections.
  std::uint32_t object = 0;
  VectorClock vc;

  ThreadId tid() const { return id.tid; }
  EventIndex index() const { return id.index; }
};

// An event read from OnlinePoset storage: the fields of Event, by value,
// with the clock left in place as a view. Generic code over both posets
// binds poset.event() with `const auto&` and reads the same members.
struct EventView {
  EventId id;
  OpKind kind = OpKind::kInternal;
  std::uint32_t object = 0;
  ClockView vc;

  ThreadId tid() const { return id.tid; }
  EventIndex index() const { return id.index; }
};

}  // namespace paramount
