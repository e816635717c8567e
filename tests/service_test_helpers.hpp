// The in-process server fixture and client-side scenario helpers shared by
// the service suites (tests/test_service.cpp, tests/test_event_server.cpp).
//
// Synchronization is condition-variable based throughout
// (EpollServer::wait_sessions_completed); no sleep-based sync, per
// tools/lint/paramount_lint.py.
#pragma once

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/paramount.hpp"
#include "poset/poset_builder.hpp"
#include "service/channel.hpp"
#include "service/epoll_server.hpp"
#include "service/frame.hpp"
#include "workloads/event_stream.hpp"

namespace paramount::service {

inline constexpr std::chrono::seconds kWait{60};  // generous: TSan/ASan

inline std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/pm_esvc_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// In-process EpollServer plus stream-aware frame-level client helpers.
class EventServerTest : public ::testing::Test {
 protected:
  // Starts on a Unix path by default; pass kTcp to exercise the TCP
  // listener (ephemeral port).
  void start_server(EpollServer::Options options = {},
                    Endpoint::Kind kind = Endpoint::Kind::kUnix) {
    if (kind == Endpoint::Kind::kTcp) {
      options.endpoint.kind = Endpoint::Kind::kTcp;
      options.endpoint.host = "127.0.0.1";
      options.endpoint.port = 0;
    } else {
      options.endpoint.kind = Endpoint::Kind::kUnix;
      options.endpoint.path = unique_socket_path();
    }
    endpoint_ = options.endpoint;
    server_ = std::make_unique<EpollServer>(std::move(options));
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
    if (kind == Endpoint::Kind::kTcp) endpoint_.port = server_->tcp_port();
  }

  FrameChannel connect() {
    std::string error;
    UniqueFd fd = connect_endpoint(endpoint_, &error);
    EXPECT_TRUE(fd.valid()) << error;
    return FrameChannel(std::move(fd));
  }

  // Reads one frame, asserts it arrived on `expect_stream`, and decodes it.
  DecodedFrame read_frame(FrameChannel& channel,
                          std::uint32_t expect_stream = 0) {
    std::vector<std::uint8_t> payload;
    std::uint32_t stream = 0;
    const ReadStatus status = channel.read_frame(&payload, &stream);
    EXPECT_EQ(status, ReadStatus::kFrame) << to_string(status);
    DecodedFrame frame;
    if (status == ReadStatus::kFrame) {
      EXPECT_EQ(stream, expect_stream);
      const auto err = decode_frame(payload, &frame);
      EXPECT_FALSE(err.has_value()) << (err ? err->message : "");
    }
    return frame;
  }

  void hello(FrameChannel& channel, const HelloBody& body,
             std::uint32_t stream = 0) {
    ASSERT_TRUE(channel.write_frame(encode_hello(body), stream));
    const DecodedFrame ack = read_frame(channel, stream);
    ASSERT_EQ(ack.op, Op::kHelloAck);
    EXPECT_EQ(ack.hello_ack.version, kProtocolVersion);
  }

  // Expects the next stream-0 frame to be an Error with the given code,
  // followed by connection close.
  void expect_error_then_close(FrameChannel& channel, ErrorCode code) {
    const DecodedFrame frame = read_frame(channel);
    ASSERT_EQ(frame.op, Op::kError);
    EXPECT_EQ(frame.error.code, code) << frame.error.message;
    std::vector<std::uint8_t> payload;
    EXPECT_EQ(channel.read_frame(&payload), ReadStatus::kEof);
  }

  void await_completed(std::uint64_t n) {
    ASSERT_TRUE(server_->wait_sessions_completed(n, kWait))
        << "sessions did not complete";
  }

  // The differential oracle on one connection to a fresh server on `kind`:
  // Hello with `async_workers` and `gc_every`, the seed-7 synthetic stream
  // (3000 events), then Shutdown. Goodbye must carry the exact counts and
  // the offline driver's state count, the connection must close, and the
  // server must record one clean session with no leaked pins.
  void expect_stream_matches_offline_driver(Endpoint::Kind kind,
                                            std::uint32_t async_workers,
                                            std::uint64_t gc_every);

  // Puts Hello, `events` events of `params` and Drain on one connection in
  // a single write(), checks that Drained carries the exact counts, then
  // ends the session with Shutdown and waits until the server retired it.
  // Defined in tests/test_event_server.cpp, its only user.
  void drain_pipelined_stream(const HelloBody& hello,
                              const SyntheticEventStream::Params& params,
                              std::uint64_t events);

  Endpoint endpoint_;
  std::unique_ptr<EpollServer> server_;
};

// The next synthetic event, delta-encoded against its thread's previous
// clock in `prev`, which it advances.
inline EventBody next_event(SyntheticEventStream& stream,
                            std::vector<VectorClock>& prev) {
  const SyntheticEventStream::StreamEvent ev = stream.next();
  EventBody body;
  body.tid = ev.tid;
  body.kind = ev.kind;
  body.object = ev.object;
  for (std::size_t j = 0; j < ev.clock.size(); ++j) {
    if (ev.clock[j] != prev[ev.tid][j]) {
      body.delta.push_back({static_cast<std::uint32_t>(j), ev.clock[j]});
    }
  }
  prev[ev.tid] = ev.clock;
  return body;
}

// Sends `total` delta-encoded synthetic events on `stream_id`.
inline void stream_events(FrameChannel& channel, SyntheticEventStream& stream,
                          std::vector<VectorClock>& prev, std::uint64_t total,
                          std::uint32_t stream_id = 0) {
  for (std::uint64_t i = 0; i < total; ++i) {
    ASSERT_TRUE(
        channel.write_frame(encode_event(next_event(stream, prev)), stream_id));
  }
}

// Bounds every blocking read on `channel`, so a server that never answers
// fails the test (read_frame reports kWouldBlock) instead of hanging it.
inline void set_read_timeout(FrameChannel& channel) {
  timeval tv = {};
  tv.tv_sec = kWait.count();
  ASSERT_EQ(::setsockopt(channel.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv,
                         sizeof(tv)),
            0);
}

// Offline reference: state count of the identical stream via the offline
// driver (src/core/paramount.cpp).
inline std::uint64_t oracle_states(const SyntheticEventStream::Params& params,
                                   std::uint64_t total) {
  SyntheticEventStream stream(params);
  PosetBuilder builder(params.num_threads);
  for (std::uint64_t i = 0; i < total; ++i) {
    const SyntheticEventStream::StreamEvent ev = stream.next();
    builder.add_event_with_clock(ev.tid, ev.kind, ev.object, ev.clock);
  }
  const Poset poset = std::move(builder).build();
  ParamountOptions options;
  options.num_workers = 2;
  return enumerate_paramount(poset, options, [](const Frontier&) {}).states;
}

inline SyntheticEventStream::Params oracle_params(std::uint64_t seed) {
  SyntheticEventStream::Params params;
  params.num_threads = 4;
  params.num_locks = 2;
  params.sync_probability = 0.8;
  params.seed = seed;
  return params;
}

inline void EventServerTest::expect_stream_matches_offline_driver(
    Endpoint::Kind kind, std::uint32_t async_workers, std::uint64_t gc_every) {
  ASSERT_NO_FATAL_FAILURE(start_server({}, kind));
  const SyntheticEventStream::Params params = oracle_params(7);
  const std::uint64_t total = 3000;

  FrameChannel channel = connect();
  HelloBody h;
  h.num_threads = 4;
  h.async_workers = async_workers;
  h.gc_every = gc_every;
  hello(channel, h);

  SyntheticEventStream stream(params);
  std::vector<VectorClock> prev(params.num_threads,
                                VectorClock(params.num_threads));
  stream_events(channel, stream, prev, total);

  ASSERT_TRUE(channel.write_frame(encode_shutdown()));
  const DecodedFrame goodbye = read_frame(channel);
  ASSERT_EQ(goodbye.op, Op::kGoodbye);
  EXPECT_EQ(goodbye.counts.events, total);
  EXPECT_EQ(goodbye.counts.outstanding_pins, 0u);
  EXPECT_EQ(goodbye.counts.intervals, total);
  EXPECT_EQ(goodbye.counts.racy_vars, 0u);  // no collection events
  if (gc_every > 0) {
    EXPECT_GT(goodbye.counts.reclaimed_events, 0u);
  } else {
    EXPECT_EQ(goodbye.counts.reclaimed_events, 0u);
  }
  // The differential requirement: bit-identical to the offline driver,
  // regardless of transport.
  EXPECT_EQ(goodbye.counts.states, oracle_states(params, total));

  // Stream 0: the connection closes when the session ends.
  std::vector<std::uint8_t> payload;
  EXPECT_EQ(channel.read_frame(&payload), ReadStatus::kEof);

  await_completed(1);
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.sessions_completed, 1u);
  EXPECT_EQ(stats.clean_shutdowns, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.leaked_pins, 0u);
}

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
