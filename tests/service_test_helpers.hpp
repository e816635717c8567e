// Client-side scenario helpers shared by the two front ends' suites
// (tests/test_service.cpp, tests/test_event_server.cpp).
#pragma once

#include <poll.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "service/channel.hpp"
#include "service/frame.hpp"

namespace paramount::service {

// On a 2-thread session: thread 1 publishes two events, thread 0 adopts
// clock {1,2}, then its next event rolls thread 1's component back to 1 —
// answered with a kClockRegression Error. Returns false if a write failed.
inline bool send_clock_regression(FrameChannel& channel,
                                  std::uint32_t stream = 0) {
  std::vector<EventBody> events(4);
  events[0].tid = 1;
  events[0].delta = {{1, 1}};
  events[1].tid = 1;
  events[1].delta = {{1, 2}};
  events[2].tid = 0;
  events[2].delta = {{0, 1}, {1, 2}};
  events[3].tid = 0;
  events[3].delta = {{0, 2}, {1, 1}};  // moves backwards
  for (const EventBody& event : events) {
    if (!channel.write_frame(encode_event(event), stream)) return false;
  }
  return true;
}

// The lingering-close scenario: right after send_clock_regression, and
// before reading anything, the client sends at least 256 KiB of valid
// frames (thread 1 carries on with collection events). The server must
// still deliver the typed Error and then a plain EOF: closing a socket that
// holds unread input resets the connection, so it half-closes and discards
// the flood instead. Returns false if a write failed.
inline bool flood_events(FrameChannel& channel, std::uint32_t stream = 0) {
  constexpr std::size_t kFloodBytes = std::size_t{256} << 10;
  EventBody next;
  next.tid = 1;
  next.kind = OpKind::kCollection;
  next.accesses.resize(1024, AccessRecord{7, true, false});
  std::size_t flooded = 0;
  for (EventIndex i = 3; flooded < kFloodBytes; ++i) {
    next.delta = {{1, i}};
    const std::vector<std::uint8_t> frame = encode_event(next);
    if (!channel.write_frame(frame, stream)) return false;
    flooded += frame.size();
  }
  return true;
}

// Waits until the server has fully closed a Unix-domain connection (the
// client's socket reports POLLHUP only then, not after a half-close).
inline bool wait_for_full_close(int fd, std::chrono::milliseconds timeout) {
  pollfd pfd = {fd, 0, 0};
  return ::poll(&pfd, 1, static_cast<int>(timeout.count())) == 1 &&
         (pfd.revents & POLLHUP) != 0;
}

}  // namespace paramount::service
