// EpollServer, the paramountd front end: differential oracle over Unix AND
// TCP transports, stream-id multiplexing, per-tenant backpressure, the
// scale soak, and TCP robustness.
//
// The oracle suites require state counts and race sets bit-identical to
// the offline driver — including when many logical sessions multiplex over
// one connection, where every stream must match its own per-seed oracle.
// The soak ramps thousands of idle sessions plus active multiplexed streams
// through one reactor thread and asserts no fd leak (counted via
// /proc/self/fd) and no leaked EnumGuard pins. The robustness suite kills
// TCP connections mid-frame, half-closes them, and throws fuzzed payloads,
// asserting typed Errors or clean closes — never an abort, never a pin.
// tests/test_service.cpp holds the single-session protocol suite.
#include "service/epoll_server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "service/frame.hpp"
#include "service_test_helpers.hpp"
#include "util/sync.hpp"
#include "workloads/event_stream.hpp"

namespace paramount::service {
namespace {

// Open-fd count for the whole process — the soak's leak detector. Counted
// through std::filesystem so no raw fd syscalls appear outside src/.
std::size_t open_fd_count() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

// Hello, `total` events of `params`, then Drain, as one stream-0 wire image
// (8-byte LE header of length and stream id, then the payload, per frame):
// what a client that pipelines its whole stream puts in one write().
std::vector<std::uint8_t> pipelined_stream(
    const HelloBody& hello, const SyntheticEventStream::Params& params,
    std::uint64_t total) {
  std::vector<std::uint8_t> wire;
  const auto append = [&wire](const std::vector<std::uint8_t>& payload) {
    const std::uint32_t header[2] = {
        static_cast<std::uint32_t>(payload.size()), 0};
    for (const std::uint32_t v : header) {
      for (int shift = 0; shift < 32; shift += 8) {
        wire.push_back(static_cast<std::uint8_t>(v >> shift));
      }
    }
    wire.insert(wire.end(), payload.begin(), payload.end());
  };
  append(encode_hello(hello));
  SyntheticEventStream stream(params);
  std::vector<VectorClock> prev(params.num_threads,
                                VectorClock(params.num_threads));
  for (std::uint64_t i = 0; i < total; ++i) {
    append(encode_event(next_event(stream, prev)));
  }
  append(encode_drain());
  return wire;
}

// ---- differential oracle over both transports ----

struct TransportCase {
  Endpoint::Kind kind;
  std::uint32_t async_workers;
  std::uint64_t gc_every;
  const char* name;
};

class EventServerOracle
    : public EventServerTest,
      public ::testing::WithParamInterface<TransportCase> {};

TEST_P(EventServerOracle, MatchesOfflineDriver) {
  const TransportCase& c = GetParam();
  expect_stream_matches_offline_driver(c.kind, c.async_workers, c.gc_every);
}

INSTANTIATE_TEST_SUITE_P(
    Transports, EventServerOracle,
    ::testing::Values(
        TransportCase{Endpoint::Kind::kUnix, 0, 0, "unix_inline"},
        TransportCase{Endpoint::Kind::kUnix, 2, 64, "unix_pooled_gc"},
        TransportCase{Endpoint::Kind::kTcp, 0, 0, "tcp_inline"},
        TransportCase{Endpoint::Kind::kTcp, 2, 64, "tcp_pooled_gc"}),
    [](const auto& info) { return info.param.name; });

// ---- frames already in the read buffer ----

}  // namespace

void EventServerTest::drain_pipelined_stream(
    const HelloBody& hello, const SyntheticEventStream::Params& params,
    std::uint64_t events) {
  FrameChannel channel = connect();
  set_read_timeout(channel);
  const std::vector<std::uint8_t> wire = pipelined_stream(hello, params, events);
  ASSERT_LT(wire.size(), FrameChannel::kReadChunk);
  ASSERT_EQ(::write(channel.fd(), wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));

  ASSERT_EQ(read_frame(channel).op, Op::kHelloAck);
  const DecodedFrame drained = read_frame(channel);
  ASSERT_EQ(drained.op, Op::kDrained);
  EXPECT_EQ(drained.counts.events, events);
  EXPECT_EQ(drained.counts.states, oracle_states(params, events));
  EXPECT_EQ(drained.counts.outstanding_pins, 0u);

  ASSERT_TRUE(channel.write_frame(encode_shutdown()));
  EXPECT_EQ(read_frame(channel).op, Op::kGoodbye);
  await_completed(1);
}

namespace {

// One recv() brings the whole pipelined stream into the connection's read
// buffer, more frames than a read quantum holds, and epoll does not report
// bytes already read: the quantum that stops with frames still buffered
// must come back to them, or Drained never arrives.
TEST_F(EventServerTest, PipelinedStreamInOneWriteDrains) {
  start_server();
  const SyntheticEventStream::Params params = oracle_params(11);
  HelloBody h;
  h.num_threads = params.num_threads;
  constexpr std::uint64_t kEvents = 200;
  drain_pipelined_stream(h, params, kEvents);
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.frames, kEvents + 3);  // Hello, Events, Drain, Shutdown
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.leaked_pins, 0u);
}

// The same stream against a submit budget of one event, with pooled
// intervals in flight: the gate blocks the connection while frames wait in
// its read buffer. The retry that wins admission must go on reading them;
// no new bytes will arrive to wake the connection.
TEST_F(EventServerTest, GateBlockedConnectionResumesBufferedFrames) {
  const SyntheticEventStream::Params params = oracle_params(12);
  EpollServer::Options options;
  options.submit_budget_bytes = event_cost_bytes(params.num_threads);
  start_server(std::move(options));
  HelloBody h;
  h.num_threads = params.num_threads;
  h.async_workers = 2;
  h.gc_every = 16;
  drain_pipelined_stream(h, params, 200);
  const ServerStats stats = server_->stats();
  EXPECT_GT(stats.submit_stalls, 0u) << "the gate never blocked the stream";
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.leaked_pins, 0u);
}

// ---- stream-id multiplexing ----

// Four logical sessions interleave over ONE connection; every stream must
// match its own per-seed oracle, and the connection must outlive them all
// (nonzero streams do not close the socket).
TEST_F(EventServerTest, MultiplexedStreamsEachMatchTheirOracle) {
  start_server();
  constexpr std::uint32_t kStreams = 4;
  const std::uint64_t total = 1200;
  FrameChannel channel = connect();

  struct Stream {
    std::uint32_t wire_id;
    SyntheticEventStream::Params params;
    std::unique_ptr<SyntheticEventStream> source;
    std::vector<VectorClock> prev;
  };
  std::vector<Stream> streams;
  for (std::uint32_t s = 0; s < kStreams; ++s) {
    Stream st;
    st.wire_id = s + 1;
    st.params = oracle_params(40 + s);
    st.source = std::make_unique<SyntheticEventStream>(st.params);
    st.prev.assign(st.params.num_threads,
                   VectorClock(st.params.num_threads));
    HelloBody h;
    h.num_threads = st.params.num_threads;
    h.async_workers = (s % 2 == 0) ? 0 : 2;
    h.gc_every = (s % 2 == 0) ? 0 : 64;
    hello(channel, h, st.wire_id);
    streams.push_back(std::move(st));
  }

  // Round-robin interleave: one event per stream per round, so the
  // demultiplexer constantly switches sessions.
  for (std::uint64_t i = 0; i < total; ++i) {
    for (Stream& st : streams) {
      stream_events(channel, *st.source, st.prev, 1, st.wire_id);
    }
  }

  for (Stream& st : streams) {
    ASSERT_TRUE(channel.write_frame(encode_shutdown(), st.wire_id));
    const DecodedFrame goodbye = read_frame(channel, st.wire_id);
    ASSERT_EQ(goodbye.op, Op::kGoodbye);
    EXPECT_EQ(goodbye.counts.events, total);
    EXPECT_EQ(goodbye.counts.outstanding_pins, 0u);
    EXPECT_EQ(goodbye.counts.states, oracle_states(st.params, total))
        << "stream " << st.wire_id;
  }

  // All four sessions ended; the connection is still alive — a fresh
  // stream on the same socket works.
  HelloBody h;
  h.num_threads = 2;
  hello(channel, h, 99);
  ASSERT_TRUE(channel.write_frame(encode_shutdown(), 99));
  EXPECT_EQ(read_frame(channel, 99).op, Op::kGoodbye);

  await_completed(kStreams + 1);
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.sessions_accepted, kStreams + 1);
  EXPECT_EQ(stats.clean_shutdowns, kStreams + 1);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.leaked_pins, 0u);
}

// The session limit applies per STREAM, answers the typed error on that
// stream only, keeps the connection and existing sessions alive — and (the
// S4 contract) counts as a rejection, not a protocol error.
TEST_F(EventServerTest, SessionLimitRejectsStreamNotConnection) {
  EpollServer::Options options;
  options.max_sessions = 1;
  start_server(std::move(options));
  FrameChannel channel = connect();
  HelloBody h;
  h.num_threads = 2;
  hello(channel, h, 1);

  // Stream 2 is over the limit: typed Error on stream 2, connection lives.
  ASSERT_TRUE(channel.write_frame(encode_hello(h), 2));
  const DecodedFrame err = read_frame(channel, 2);
  ASSERT_EQ(err.op, Op::kError);
  EXPECT_EQ(err.error.code, ErrorCode::kSessionLimit);

  // Later frames for the rejected stream are dropped silently (the error
  // went out once); stream 1 still answers.
  ASSERT_TRUE(channel.write_frame(encode_poll(), 2));
  ASSERT_TRUE(channel.write_frame(encode_poll(), 1));
  EXPECT_EQ(read_frame(channel, 1).op, Op::kStats);

  // Once stream 1 ends, a new stream fits under the limit again.
  ASSERT_TRUE(channel.write_frame(encode_shutdown(), 1));
  EXPECT_EQ(read_frame(channel, 1).op, Op::kGoodbye);
  await_completed(1);
  hello(channel, h, 3);
  ASSERT_TRUE(channel.write_frame(encode_shutdown(), 3));
  EXPECT_EQ(read_frame(channel, 3).op, Op::kGoodbye);

  await_completed(2);
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.sessions_accepted, 3u);
  EXPECT_EQ(stats.sessions_rejected, 1u);
  EXPECT_EQ(stats.clean_shutdowns, 2u);
  // The S4 regression: a limiter refusal is NOT a protocol error.
  EXPECT_EQ(stats.protocol_errors, 0u);
}

// ---- per-tenant backpressure ----

// Two streams sharing a tenant id share ONE submit gate: with a tiny
// tenant budget and pooled workers both still complete correctly, and the
// server records the backpressure engagements.
TEST_F(EventServerTest, TenantBudgetSharedAcrossStreams) {
  EpollServer::Options options;
  options.tenant_budget_bytes = 1;  // passage rule only: one interval at a time
  start_server(std::move(options));
  const std::uint64_t total = 600;
  FrameChannel channel = connect();

  std::vector<SyntheticEventStream::Params> params;
  std::vector<std::unique_ptr<SyntheticEventStream>> sources;
  std::vector<std::vector<VectorClock>> prevs;
  for (std::uint32_t s = 0; s < 2; ++s) {
    params.push_back(oracle_params(70 + s));
    sources.push_back(std::make_unique<SyntheticEventStream>(params.back()));
    prevs.emplace_back(params.back().num_threads,
                       VectorClock(params.back().num_threads));
    HelloBody h;
    h.num_threads = params.back().num_threads;
    h.async_workers = 2;  // pooled: intervals are in flight while we submit
    h.gc_every = 32;
    h.tenant_id = 42;  // both streams charge the same quota
    hello(channel, h, s + 1);
  }
  for (std::uint64_t i = 0; i < total; ++i) {
    for (std::uint32_t s = 0; s < 2; ++s) {
      stream_events(channel, *sources[s], prevs[s], 1, s + 1);
    }
  }
  for (std::uint32_t s = 0; s < 2; ++s) {
    ASSERT_TRUE(channel.write_frame(encode_shutdown(), s + 1));
    const DecodedFrame goodbye = read_frame(channel, s + 1);
    ASSERT_EQ(goodbye.op, Op::kGoodbye);
    EXPECT_EQ(goodbye.counts.events, total);
    EXPECT_EQ(goodbye.counts.states, oracle_states(params[s], total))
        << "stream " << (s + 1);
  }
  await_completed(2);
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.leaked_pins, 0u);
  // A 1-byte shared budget with pooled intervals must have engaged the
  // gate: the notify path ran, not just the happy path.
  EXPECT_GT(stats.submit_stalls, 0u);
}

// The configured eviction-alert threshold travels in every Stats reply;
// the flag trips once window_evictions reaches it. Under the EnumGuard pin
// protocol evictions stay at zero (see race_predicate.hpp), so a healthy
// windowed run must report the threshold WITHOUT the alert — the alert
// firing is reserved for the anomaly it exists to catch.
TEST_F(EventServerTest, EvictionAlertThresholdSurfacesInStats) {
  EpollServer::Options options;
  options.eviction_alert_threshold = 1;
  start_server(std::move(options));
  FrameChannel channel = connect();
  HelloBody h;
  h.num_threads = 2;
  h.gc_every = 8;  // aggressive window: evictions all but guaranteed
  hello(channel, h);

  // Before any events: threshold echoed, alert clear.
  ASSERT_TRUE(channel.write_frame(encode_poll()));
  DecodedFrame stats = read_frame(channel);
  ASSERT_EQ(stats.op, Op::kStats);
  EXPECT_EQ(stats.stats.eviction_alert_threshold, 1u);
  EXPECT_FALSE(stats.stats.eviction_alert);

  SyntheticEventStream::Params params;
  params.num_threads = 2;
  params.num_locks = 2;
  params.sync_probability = 0.8;
  SyntheticEventStream stream(params);
  std::vector<VectorClock> prev(2, VectorClock(2));
  stream_events(channel, stream, prev, 400);
  ASSERT_TRUE(channel.write_frame(encode_drain()));
  const DecodedFrame drained = read_frame(channel);
  ASSERT_EQ(drained.op, Op::kDrained);

  ASSERT_TRUE(channel.write_frame(encode_poll()));
  stats = read_frame(channel);
  ASSERT_EQ(stats.op, Op::kStats);
  EXPECT_EQ(stats.stats.eviction_alert_threshold, 1u);
  // Alert iff the counter crossed the threshold — and under the pin
  // protocol the counter must still be zero, so the flag stays down even
  // at threshold 1 on an aggressively windowed run.
  EXPECT_EQ(stats.stats.eviction_alert,
            stats.stats.counts.window_evictions >= 1);
  EXPECT_EQ(stats.stats.counts.window_evictions, 0u);
  EXPECT_GT(stats.stats.counts.reclaimed_events, 0u)
      << "gc_every=8 over 400 events should reclaim; workload drifted?";

  ASSERT_TRUE(channel.write_frame(encode_shutdown()));
  EXPECT_EQ(read_frame(channel).op, Op::kGoodbye);
}

// ---- the scale soak ----

// Thousands of idle multiplexed sessions plus a band of active streams on
// one reactor thread: every session must complete, no fd may leak, no pin
// may leak, and active streams must still match their oracles (idle load
// must not corrupt anyone).
TEST_F(EventServerTest, SoakIdleThousandsPlusActiveStreams) {
  constexpr std::uint32_t kConns = 8;
  constexpr std::uint32_t kStreamsPerConn = 256;   // 2048 idle sessions
  constexpr std::uint32_t kActive = 32;
  constexpr std::uint64_t kActiveEvents = 300;

  EpollServer::Options options;
  options.max_sessions = kConns * kStreamsPerConn + kActive + 8;
  start_server(std::move(options));
  const std::size_t fds_before = open_fd_count();

  // Ramp the idle fleet: Hello on every stream, then silence.
  std::vector<FrameChannel> idle;
  idle.reserve(kConns);
  HelloBody idle_hello;
  idle_hello.num_threads = 2;
  for (std::uint32_t c = 0; c < kConns; ++c) {
    idle.push_back(connect());
    for (std::uint32_t s = 0; s < kStreamsPerConn; ++s) {
      hello(idle.back(), idle_hello, s + 1);
    }
  }

  // The active band: one extra connection, kActive streams with real work.
  FrameChannel active = connect();
  std::vector<SyntheticEventStream::Params> params;
  std::vector<std::unique_ptr<SyntheticEventStream>> sources;
  std::vector<std::vector<VectorClock>> prevs;
  for (std::uint32_t s = 0; s < kActive; ++s) {
    params.push_back(oracle_params(900 + s));
    sources.push_back(std::make_unique<SyntheticEventStream>(params.back()));
    prevs.emplace_back(params.back().num_threads,
                       VectorClock(params.back().num_threads));
    HelloBody h;
    h.num_threads = params.back().num_threads;
    h.async_workers = (s % 4 == 0) ? 2 : 0;
    h.gc_every = (s % 2 == 0) ? 64 : 0;
    hello(active, h, s + 1);
  }
  for (std::uint64_t i = 0; i < kActiveEvents; ++i) {
    for (std::uint32_t s = 0; s < kActive; ++s) {
      stream_events(active, *sources[s], prevs[s], 1, s + 1);
    }
  }
  for (std::uint32_t s = 0; s < kActive; ++s) {
    ASSERT_TRUE(active.write_frame(encode_shutdown(), s + 1));
    const DecodedFrame goodbye = read_frame(active, s + 1);
    ASSERT_EQ(goodbye.op, Op::kGoodbye);
    EXPECT_EQ(goodbye.counts.states, oracle_states(params[s], kActiveEvents))
        << "active stream " << (s + 1);
    EXPECT_EQ(goodbye.counts.outstanding_pins, 0u);
  }

  // Wind the idle fleet down.
  for (std::uint32_t c = 0; c < kConns; ++c) {
    for (std::uint32_t s = 0; s < kStreamsPerConn; ++s) {
      ASSERT_TRUE(idle[c].write_frame(encode_shutdown(), s + 1));
      EXPECT_EQ(read_frame(idle[c], s + 1).op, Op::kGoodbye);
    }
  }

  const std::uint64_t expected = kConns * kStreamsPerConn + kActive;
  await_completed(expected);
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.sessions_completed, expected);
  EXPECT_EQ(stats.clean_shutdowns, expected);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.leaked_pins, 0u);

  // Close the client side; once the server reaps its connections the fd
  // table must be back at the baseline (small slack for the reactor's own
  // plumbing churn).
  idle.clear();
  server_->stop();
  server_.reset();
  EXPECT_LE(open_fd_count(), fds_before + 4);
}

// ---- transport counters ----

// The server adds each connection's recv calls and bytes to its stats when
// it closes the connection: every byte the client sent arrives, in fewer
// recv calls than frames. The client's sends number far fewer than its
// frames, the shape CI's service-mode job checks on paramount-client.
TEST_F(EventServerTest, TransportCountersAddUpWhenTheConnectionCloses) {
  start_server();
  const SyntheticEventStream::Params params = oracle_params(41);
  FrameChannel channel = connect();
  HelloBody h;
  h.num_threads = params.num_threads;
  hello(channel, h);
  SyntheticEventStream stream(params);
  std::vector<VectorClock> prev(params.num_threads,
                                VectorClock(params.num_threads));
  constexpr std::uint64_t kEvents = 3000;
  stream_events(channel, stream, prev, kEvents);
  ASSERT_TRUE(channel.write_frame(encode_shutdown()));
  ASSERT_EQ(read_frame(channel).op, Op::kGoodbye);
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(channel.read_frame(&payload), ReadStatus::kEof);
  server_->stop();
  const ServerStats stats = server_->stats();
  const FrameChannel::IoCounts& io = channel.io_counts();
  EXPECT_EQ(io.frames_sent, kEvents + 2);  // Hello, Events, Shutdown
  EXPECT_LT(io.send_calls * 8, io.frames_sent);
  EXPECT_EQ(stats.frames, kEvents + 2);
  EXPECT_EQ(stats.bytes_received, io.bytes_sent);
  EXPECT_GT(stats.recv_calls, 0u);
  EXPECT_LT(stats.recv_calls, stats.frames);
  EXPECT_GT(stats.reactor_wakes, 0u);
}

// ---- lingering close ----

// See flood_events in service_test_helpers.hpp: over both
// transports the client must read the typed Error and then EOF.
class EventServerLinger
    : public EventServerTest,
      public ::testing::WithParamInterface<Endpoint::Kind> {};

TEST_P(EventServerLinger, ErrorThenFloodReadsErrorThenEof) {
  start_server({}, GetParam());
  FrameChannel channel = connect();
  HelloBody h;
  h.num_threads = 2;
  hello(channel, h);
  ASSERT_TRUE(send_clock_regression(channel));
  ASSERT_TRUE(flood_events(channel));
  const DecodedFrame error = read_frame(channel);
  ASSERT_EQ(error.op, Op::kError);
  EXPECT_EQ(error.error.code, ErrorCode::kClockRegression);
  std::vector<std::uint8_t> payload;
  EXPECT_EQ(channel.read_frame(&payload), ReadStatus::kEof);
  // A peer that neither sends nor closes is still closed by the deadline
  // (observable as POLLHUP on Unix sockets only).
  if (GetParam() == Endpoint::Kind::kUnix) {
    EXPECT_TRUE(wait_for_full_close(channel.fd(), kWait));
  }
  await_completed(1);
  EXPECT_EQ(server_->stats().leaked_pins, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Transports, EventServerLinger,
    ::testing::Values(Endpoint::Kind::kUnix, Endpoint::Kind::kTcp),
    [](const ::testing::TestParamInfo<Endpoint::Kind>& info) {
      return info.param == Endpoint::Kind::kUnix ? "unix" : "tcp";
    });

// ---- TCP robustness ----

// A TCP client killed mid-frame (header promised, connection reset) must
// end its sessions with a typed accounting — pins released, no abort.
TEST_F(EventServerTest, TcpKillMidStreamReleasesEverything) {
  start_server({}, Endpoint::Kind::kTcp);
  {
    FrameChannel channel = connect();
    HelloBody h;
    h.num_threads = 4;
    h.async_workers = 2;
    h.gc_every = 8;  // pins active on in-flight intervals
    hello(channel, h);
    const SyntheticEventStream::Params params = oracle_params(17);
    SyntheticEventStream stream(params);
    std::vector<VectorClock> prev(4, VectorClock(4));
    stream_events(channel, stream, prev, 500);
    // Die mid-frame: half a header promising more (raw ::write on purpose —
    // the test needs bytes FrameChannel would never emit), then the channel
    // destructor closes the socket with intervals still in flight. The
    // events the channel still holds go out first, so the half header
    // follows them on the wire.
    ASSERT_EQ(channel.flush(), FrameChannel::FlushStatus::kDrained);
    const std::uint8_t half_header[4] = {100, 0, 0, 0};
    ASSERT_EQ(::write(channel.fd(), half_header, sizeof(half_header)), 4);
  }
  await_completed(1);
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.sessions_completed, 1u);
  EXPECT_EQ(stats.clean_shutdowns, 0u);
  EXPECT_EQ(stats.last_session.events, 500u);  // all ahead of the cut
  EXPECT_EQ(stats.leaked_pins, 0u);
}

// Half-close: the client shuts down its write side without Shutdown. The
// server treats the EOF as an orderly end, finishes the session, closes.
TEST_F(EventServerTest, TcpHalfCloseEndsSessionCleanly) {
  start_server({}, Endpoint::Kind::kTcp);
  FrameChannel channel = connect();
  HelloBody h;
  h.num_threads = 4;
  hello(channel, h);
  const SyntheticEventStream::Params params = oracle_params(23);
  SyntheticEventStream stream(params);
  std::vector<VectorClock> prev(4, VectorClock(4));
  stream_events(channel, stream, prev, 300);
  channel.shutdown_write();
  std::vector<std::uint8_t> payload;
  EXPECT_EQ(channel.read_frame(&payload), ReadStatus::kEof);
  await_completed(1);
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.sessions_completed, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u);  // EOF at a boundary is not an error
  EXPECT_EQ(stats.leaked_pins, 0u);
}

// Fuzzed well-framed garbage over TCP: every connection must get a typed
// Error frame and a close — never a hang, never an abort, never a pin.
TEST_F(EventServerTest, TcpFuzzedPayloadsAnswerTypedErrors) {
  start_server({}, Endpoint::Kind::kTcp);
  std::mt19937 rng(0xFEEDu);
  constexpr int kRounds = 24;
  for (int round = 0; round < kRounds; ++round) {
    FrameChannel channel = connect();
    std::vector<std::uint8_t> garbage(1 + rng() % 64);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
    // Keep a handful of rounds on established sessions so in-session
    // garbage is covered too.
    if (round % 3 == 0) {
      HelloBody h;
      h.num_threads = 2;
      hello(channel, h);
    }
    ASSERT_TRUE(channel.write_frame(garbage, rng() % 4));
    // Half-close so the server always has a reason to finish with us, then
    // drain its replies: every frame must decode (typed Errors included),
    // and the connection must reach EOF — never a hang, never an abort.
    channel.shutdown_write();
    std::vector<std::uint8_t> payload;
    std::uint32_t stream = 0;
    while (true) {
      const ReadStatus status = channel.read_frame(&payload, &stream);
      if (status != ReadStatus::kFrame) {
        EXPECT_EQ(status, ReadStatus::kEof);
        break;
      }
      DecodedFrame frame;
      const auto err = decode_frame(payload, &frame);
      ASSERT_FALSE(err.has_value()) << (err ? err->message : "");
    }
  }
  await_completed(1);  // at least the established-session rounds completed
  EXPECT_EQ(server_->stats().leaked_pins, 0u);
}

// ---- hangup surfacing and paused-reads teardown ----

// EPOLLERR/EPOLLHUP are level-triggered and unmaskable: epoll reports them
// even for an fd whose interest was dropped to 0 (exactly what the server
// does to a gate-blocked connection). The loop must surface them as
// kHangup so such a handler can tear the fd down instead of ignoring an
// event that will re-fire forever.
TEST(EventLoopHangup, SurfacedToZeroInterestFds) {
  int raw[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, raw), 0);
  UniqueFd ours(raw[0]);
  UniqueFd theirs(raw[1]);
  EventLoop loop;
  ASSERT_TRUE(loop.valid()) << loop.error();
  Mutex mutex;
  CondVar cv;
  std::uint32_t seen = 0;
  bool fired = false;
  // Interest 0: the paused-connection shape. Only ERR/HUP can arrive.
  ASSERT_TRUE(loop.add(ours.get(), 0, [&](std::uint32_t ready) {
    MutexLock lock(mutex);
    seen = ready;
    fired = true;
    cv.notify_all();
  }));
  std::thread runner([&] { loop.run(); });
  theirs.reset();  // peer dies
  {
    MutexLock lock(mutex);
    while (!fired) {
      ASSERT_TRUE(cv.wait_for(mutex, kWait)) << "hangup never surfaced";
    }
  }
  loop.stop();
  runner.join();
  EXPECT_NE(seen & EventLoop::kHangup, 0u);
  // Still folded into kReadable too, for the common read-error path.
  EXPECT_NE(seen & EventLoop::kReadable, 0u);
}

// A peer that dies by RST while the server has the connection's reads
// paused under submit backpressure must still be torn down (pins released,
// session finished) — the regression was a reactor that busy-spun on the
// unmaskable ERR/HUP event forever because the blocked connection never
// read and never tore down.
TEST_F(EventServerTest, TcpAbortWhileBackpressuredTearsConnectionDown) {
  EpollServer::Options options;
  options.submit_budget_bytes = 1;  // passage rule only: reads pause often
  start_server(std::move(options), Endpoint::Kind::kTcp);
  {
    FrameChannel channel = connect();
    HelloBody h;
    h.num_threads = 4;
    h.async_workers = 2;
    h.gc_every = 8;  // pins active on in-flight intervals
    hello(channel, h);
    const SyntheticEventStream::Params params = oracle_params(31);
    SyntheticEventStream stream(params);
    std::vector<VectorClock> prev(4, VectorClock(4));
    stream_events(channel, stream, prev, 400);
    // Die by RST, not FIN: SO_LINGER 0 discards the server's unread data
    // and raises EPOLLERR, hitting the paused-reads teardown whenever the
    // 1-byte budget had the connection blocked at that moment.
    struct linger lg = {1, 0};
    ASSERT_EQ(::setsockopt(channel.fd(), SOL_SOCKET, SO_LINGER, &lg,
                           sizeof(lg)),
              0);
  }
  await_completed(1);
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.sessions_completed, 1u);
  EXPECT_EQ(stats.clean_shutdowns, 0u);
  EXPECT_EQ(stats.leaked_pins, 0u);
}

// ---- rejected-stream flood ----

// At --max-sessions every new stream id costs the server a tracked
// rejected_streams entry plus an Error frame. The set is capped: a client
// spraying distinct over-limit stream ids gets its connection closed after
// a bounded number of typed refusals instead of growing server memory one
// entry per id from a single connection.
TEST_F(EventServerTest, RejectedStreamFloodClosesConnection) {
  EpollServer::Options options;
  options.max_sessions = 1;
  start_server(std::move(options));
  FrameChannel channel = connect();
  HelloBody h;
  h.num_threads = 2;
  hello(channel, h, 1);  // occupies the only session slot
  constexpr std::uint32_t kFlood = 64;  // comfortably past the cap
  bool cut_off_mid_flood = false;
  for (std::uint32_t s = 0; s < kFlood; ++s) {
    // A failed write means the server already dropped us — the cap at
    // work; keep going only while the pipe is up.
    if (!channel.write_frame(encode_hello(h), 2 + s)) {
      cut_off_mid_flood = true;
      break;
    }
  }
  // Guarantees eventual termination even on a server without the cap, so
  // the pre-fix failure mode is a bounded assertion failure, not a hang.
  if (!cut_off_mid_flood) channel.shutdown_write();
  std::vector<std::uint8_t> payload;
  std::uint32_t stream = 0;
  std::uint32_t errors = 0;
  while (true) {
    const ReadStatus status = channel.read_frame(&payload, &stream);
    if (status != ReadStatus::kFrame) {
      // The cutoff is abrupt by design (the client is hostile): the server
      // closes with flood frames still unread, so the client may see a
      // reset (kError) rather than an orderly EOF.
      EXPECT_TRUE(status == ReadStatus::kEof || status == ReadStatus::kError)
          << to_string(status);
      break;
    }
    DecodedFrame frame;
    const auto err = decode_frame(payload, &frame);
    ASSERT_FALSE(err.has_value()) << (err ? err->message : "");
    ASSERT_EQ(frame.op, Op::kError);
    EXPECT_EQ(frame.error.code, ErrorCode::kSessionLimit);
    ++errors;
  }
  // Pre-fix: one Error per sprayed id (= kFlood) and an orderly EOF only
  // after serving the full flood. Post-fix the connection dies at the cap,
  // well short of it (the reset may even discard buffered Errors).
  EXPECT_LT(errors, kFlood);
  await_completed(1);  // stream 1 went down with the connection
  EXPECT_EQ(server_->stats().leaked_pins, 0u);
}

}  // namespace
}  // namespace paramount::service
