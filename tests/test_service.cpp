// Service mode (paramountd): the single-session protocol over a real
// Unix-domain socket into an in-process EpollServer.
//
// The oracle suites require **bit-identical** results to the same events
// run through the offline driver: state counts from enumerate_paramount
// over an async-workers x gc-every matrix (tests/test_event_server.cpp runs
// the same check over both transports), race-variable sets from
// detect_races_offline_bfs. The robustness suite throws malformed bytes, half-closed connections, and
// mid-stream kills at the server and asserts it answers a typed Error frame
// or closes cleanly — never aborts (these tests run in-process: an abort
// kills the test binary) — and never leaks a pinned EnumGuard.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "detect/offline_bfs_detector.hpp"
#include "poset/clock_validator.hpp"
#include "poset/poset_builder.hpp"
#include "service/epoll_server.hpp"
#include "service/frame.hpp"
#include "service_test_helpers.hpp"
#include "test_helpers.hpp"
#include "workloads/event_stream.hpp"

namespace paramount::service {
namespace {

// The single-session suite runs on the shared server fixture, Unix endpoint.
class ServiceTest : public EventServerTest {};

// ---- differential oracle: state counts across the A/B matrix ----

struct OracleCase {
  std::uint32_t async_workers;
  std::uint64_t gc_every;
  const char* name;
};

class ServiceOracle : public ServiceTest,
                      public ::testing::WithParamInterface<OracleCase> {};

TEST_P(ServiceOracle, SocketStreamMatchesOfflineDriver) {
  const OracleCase& c = GetParam();
  expect_stream_matches_offline_driver(Endpoint::Kind::kUnix, c.async_workers,
                                       c.gc_every);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ServiceOracle,
    ::testing::Values(OracleCase{0, 0, "inline_unwindowed"},
                      OracleCase{0, 64, "inline_windowed"},
                      OracleCase{3, 0, "pooled_unwindowed"},
                      OracleCase{3, 64, "pooled_windowed"}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return info.param.name;
    });

// ---- differential oracle: race reports on collection traces ----

// A hand-built two-thread trace: per round, each thread emits a collection
// touching the round's variable (thread 0 writes, thread 1 reads), and
// rounds listed in `synced` interpose a lock hand-off from thread 0 to
// thread 1, ordering the pair. Unsynced rounds race.
struct CollectionTrace {
  struct Ev {
    ThreadId tid;
    OpKind kind;
    std::vector<AccessRecord> accesses;
    VectorClock clock;
  };
  std::vector<Ev> events;
  std::size_t num_threads = 2;
};

CollectionTrace make_collection_trace(int rounds,
                                      const std::vector<int>& synced) {
  CollectionTrace trace;
  VectorClock t0(2);
  VectorClock t1(2);
  VectorClock lock(2);
  for (int r = 0; r < rounds; ++r) {
    const auto var = static_cast<std::uint32_t>(r);
    t0[0] += 1;
    trace.events.push_back(
        {0, OpKind::kCollection, {{var, true, false}}, t0});
    if (std::find(synced.begin(), synced.end(), r) != synced.end()) {
      // Lock hand-off: release on t0, acquire on t1 (Algorithm 3).
      trace.events.push_back(
          {0, OpKind::kRelease, {}, calculate_vector_clock(0, t0, lock)});
      trace.events.push_back(
          {1, OpKind::kAcquire, {}, calculate_vector_clock(1, t1, lock)});
    }
    t1[1] += 1;
    trace.events.push_back(
        {1, OpKind::kCollection, {{var, false, false}}, t1});
  }
  return trace;
}

// Offline reference for a collection trace: poset + per-thread access table
// replayed exactly as the session builds them, through the offline BFS
// race detector (the RV-analogue all-pairs check).
std::vector<VarId> oracle_racy_vars(const CollectionTrace& trace) {
  PosetBuilder builder(trace.num_threads);
  AccessTable table(trace.num_threads);
  for (const CollectionTrace::Ev& ev : trace.events) {
    std::uint32_t object = 0;
    if (ev.kind == OpKind::kCollection) {
      AccessSet set;
      for (const AccessRecord& a : ev.accesses) {
        set.merge(a.var, a.is_write, a.is_init);
      }
      object = table.append(ev.tid, std::move(set));
    }
    builder.add_event_with_clock(ev.tid, ev.kind, object, ev.clock);
  }
  const Poset poset = std::move(builder).build();
  RaceReport report;
  detect_races_offline_bfs(poset, table, report);
  std::vector<VarId> vars;
  for (const RaceFinding& f : report.findings()) vars.push_back(f.var);
  return vars;
}

class ServiceRaceOracle : public ServiceTest,
                          public ::testing::WithParamInterface<std::uint32_t> {
};

TEST_P(ServiceRaceOracle, RaceReportMatchesOfflineBfs) {
  // Rounds 0..5; rounds 1 and 4 are lock-synchronized, so exactly the
  // variables {0, 2, 3, 5} race — and the test does not hardcode that: both
  // sides derive it independently.
  const CollectionTrace trace = make_collection_trace(6, {1, 4});
  const std::vector<VarId> expected = oracle_racy_vars(trace);
  ASSERT_FALSE(expected.empty());

  start_server();
  FrameChannel channel = connect();
  HelloBody h;
  h.num_threads = 2;
  h.async_workers = GetParam();
  hello(channel, h);

  std::vector<VectorClock> prev(2, VectorClock(2));
  for (const CollectionTrace::Ev& ev : trace.events) {
    EventBody body;
    body.tid = ev.tid;
    body.kind = ev.kind;
    body.object = 0;  // the session rebuilds collection payloads itself
    body.accesses = ev.accesses;
    for (std::size_t j = 0; j < ev.clock.size(); ++j) {
      if (ev.clock[j] != prev[ev.tid][j]) {
        body.delta.push_back({static_cast<std::uint32_t>(j), ev.clock[j]});
      }
    }
    prev[ev.tid] = ev.clock;
    ASSERT_TRUE(channel.write_frame(encode_event(body)));
  }
  ASSERT_TRUE(channel.write_frame(encode_shutdown()));
  const DecodedFrame goodbye = read_frame(channel);
  ASSERT_EQ(goodbye.op, Op::kGoodbye);
  EXPECT_EQ(goodbye.counts.racy_vars, expected.size());

  await_completed(1);
  // Bit-identical race report: the exact variable set, not just the count.
  EXPECT_EQ(server_->stats().last_racy_vars, expected);
}

INSTANTIATE_TEST_SUITE_P(InlineAndPooled, ServiceRaceOracle,
                         ::testing::Values(0u, 3u),
                         [](const ::testing::TestParamInfo<std::uint32_t>& i) {
                           return i.param == 0 ? "inline" : "pooled";
                         });

// ---- Poll / Drain semantics ----

TEST_F(ServiceTest, PollReturnsTelemetrySnapshot) {
  start_server();
  FrameChannel channel = connect();
  HelloBody h;
  h.num_threads = 2;
  h.gc_every = 8;
  hello(channel, h);

  SyntheticEventStream::Params params;
  params.num_threads = 2;
  params.num_locks = 2;
  params.sync_probability = 0.8;
  SyntheticEventStream stream(params);
  std::vector<VectorClock> prev(2, VectorClock(2));
  stream_events(channel, stream, prev, 200);

  ASSERT_TRUE(channel.write_frame(encode_poll()));
  const DecodedFrame stats = read_frame(channel);
  ASSERT_EQ(stats.op, Op::kStats);
  EXPECT_EQ(stats.stats.counts.events, 200u);
  EXPECT_GT(stats.stats.counts.resident_bytes, 0u);
  // The JSON snapshot carries the well-known instruments, with the gauges
  // refreshed to agree with the counts in the same frame.
  const std::string& json = stats.stats.metrics_json;
  EXPECT_NE(json.find("poset.resident_bytes"), std::string::npos);
  EXPECT_NE(json.find("pool.queue_depth"), std::string::npos);
  EXPECT_NE(json.find("detect.window_evictions"), std::string::npos);

  ASSERT_TRUE(channel.write_frame(encode_drain()));
  const DecodedFrame drained = read_frame(channel);
  ASSERT_EQ(drained.op, Op::kDrained);
  EXPECT_EQ(drained.counts.events, 200u);
  EXPECT_EQ(drained.counts.outstanding_pins, 0u);
  // Drained counts are exact: streaming may continue afterwards.
  stream_events(channel, stream, prev, 100);
  ASSERT_TRUE(channel.write_frame(encode_shutdown()));
  const DecodedFrame goodbye = read_frame(channel);
  ASSERT_EQ(goodbye.op, Op::kGoodbye);
  EXPECT_EQ(goodbye.counts.events, 300u);
}

// A daemon session exports only the metrics snapshot (Stats), so it records
// no spans: span buffers would keep up to 3 MiB per shard that window GC
// never frees. Every metric still reaches Stats, and no span counts as
// dropped. Driven through the transport-free SessionCore.
TEST(SessionCore, StreamedSessionRecordsNoSpansButEveryMetric) {
  std::vector<DecodedFrame> replies;
  SessionCore core(1, {}, [&](std::span<const std::uint8_t> payload) {
    DecodedFrame frame;
    EXPECT_FALSE(decode_frame(payload, &frame).has_value());
    replies.push_back(std::move(frame));
    return true;
  });
  HelloBody h;
  h.num_threads = 4;
  h.async_workers = 2;
  h.gc_every = 64;
  ASSERT_EQ(core.on_payload(encode_hello(h)),
            SessionCore::Disposition::kContinue);

  SyntheticEventStream::Params params;
  params.num_threads = 4;
  params.num_locks = 2;
  params.sync_probability = 0.8;
  SyntheticEventStream stream(params);
  std::vector<VectorClock> prev(4, VectorClock(4));
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(core.on_payload(encode_event(next_event(stream, prev))),
              SessionCore::Disposition::kContinue);
  }
  ASSERT_EQ(core.on_payload(encode_drain()),
            SessionCore::Disposition::kContinue);
  ASSERT_EQ(core.on_payload(encode_poll()),
            SessionCore::Disposition::kContinue);
  ASSERT_EQ(replies.back().op, Op::kStats);
  EXPECT_EQ(replies.back().stats.counts.events, 2000u);
  EXPECT_GT(replies.back().stats.counts.states, 2000u);

  const obs::Telemetry& tel = *core.telemetry();
  EXPECT_EQ(tel.tracer().recorded(), 0u);
  EXPECT_EQ(tel.tracer().dropped(), 0u);
  const obs::MetricsSnapshot snapshot = tel.snapshot();
  EXPECT_EQ(snapshot.find_counter("tracer.spans_dropped")->total, 0u);
  if constexpr (obs::kTelemetryEnabled) {
    EXPECT_GT(snapshot.find_counter("paramount.states")->total, 0u);
    EXPECT_GT(snapshot.find_histogram("paramount.gbnd_ns")->count, 0u);
  }

  // Every well-known instrument is in the Stats JSON.
  const std::string& json = replies.back().stats.metrics_json;
  const obs::MetricsSnapshot names = obs::Telemetry(1).snapshot();
  std::vector<std::string> expected;
  for (const auto& c : names.counters) expected.push_back(c.name);
  for (const auto& g : names.gauges) expected.push_back(g.name);
  for (const auto& hist : names.histograms) expected.push_back(hist.name);
  EXPECT_GE(expected.size(), 14u);
  for (const std::string& name : expected) {
    EXPECT_NE(json.find('"' + name + '"'), std::string::npos) << name;
  }
  core.finish();
}

// A transport-free session whose replies are decoded into `replies`.
std::unique_ptr<SessionCore> make_core(std::vector<DecodedFrame>& replies) {
  return std::make_unique<SessionCore>(
      1, SessionCore::Limits{},
      [&replies](std::span<const std::uint8_t> payload) {
        DecodedFrame frame;
        EXPECT_FALSE(decode_frame(payload, &frame).has_value());
        replies.push_back(std::move(frame));
        return true;
      });
}

// The session's telemetry counts every event and interval exactly once, in
// one shard for the thread that feeds it plus one per pool worker. The
// timed histograms hold the weighted count of the events its one
// submitting shard sampled (timed_count).
struct TelemetryCase {
  std::uint32_t async_workers;
  std::uint64_t gc_every;
  const char* name;
};

class SessionTelemetry : public ::testing::TestWithParam<TelemetryCase> {};

TEST_P(SessionTelemetry, TotalsAreExact) {
  const TelemetryCase& c = GetParam();
  std::vector<DecodedFrame> replies;
  const std::unique_ptr<SessionCore> core = make_core(replies);
  HelloBody h;
  h.num_threads = 8;
  h.async_workers = c.async_workers;
  h.gc_every = c.gc_every;
  ASSERT_EQ(core->on_payload(encode_hello(h)),
            SessionCore::Disposition::kContinue);
  SyntheticEventStream::Params params;
  params.num_threads = 8;
  params.num_locks = 2;
  params.sync_probability = 0.8;
  SyntheticEventStream stream(params);
  std::vector<VectorClock> prev(8, VectorClock(8));
  constexpr std::uint64_t kEvents = 3000;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    ASSERT_EQ(core->on_payload(encode_event(next_event(stream, prev))),
              SessionCore::Disposition::kContinue);
  }
  ASSERT_EQ(core->on_payload(encode_drain()),
            SessionCore::Disposition::kContinue);
  ASSERT_EQ(replies.back().op, Op::kDrained);
  const CountsBody counts = replies.back().counts;
  ASSERT_EQ(counts.events, kEvents);
  ASSERT_EQ(core->on_payload(encode_poll()),
            SessionCore::Disposition::kContinue);
  ASSERT_EQ(replies.back().op, Op::kStats);
  const std::string& json = replies.back().stats.metrics_json;
  const std::string shards =
      "\"num_shards\":" + std::to_string(1 + c.async_workers) + ",";
  EXPECT_NE(json.find(shards), std::string::npos) << json.substr(0, 64);

  const obs::MetricsSnapshot snap = core->telemetry()->snapshot();
  EXPECT_EQ(snap.num_shards, 1u + c.async_workers);
  if constexpr (obs::kTelemetryEnabled) {
    EXPECT_EQ(snap.find_counter("paramount.claims")->total, counts.events);
    EXPECT_EQ(snap.find_histogram("paramount.gbnd_ns")->count,
              paramount::testing::timed_count(counts.events));
    EXPECT_EQ(snap.find_counter("paramount.intervals")->total,
              counts.intervals);
    EXPECT_EQ(snap.find_histogram("paramount.interval_ns")->count,
              paramount::testing::timed_count(counts.events));
    EXPECT_EQ(snap.find_histogram("paramount.interval_states")->count,
              counts.intervals);
    EXPECT_EQ(snap.find_counter("paramount.states")->total, counts.states);
  }
  core->finish();
}

INSTANTIATE_TEST_SUITE_P(
    InlineAndPooled, SessionTelemetry,
    ::testing::Values(TelemetryCase{0, 0, "inline"},
                      TelemetryCase{2, 64, "pooled_windowed"}),
    [](const ::testing::TestParamInfo<TelemetryCase>& info) {
      return info.param.name;
    });

// The session checks each clock once, in the poset's insert pass. Its typed
// Error must stay what ClockValidator reports for the same stream, where
// the first defective component decides.

// Thread 0's last clock has seen the first events of threads 1 and 2. Each
// defective next clock forgets one of them (a regression) and references
// the other thread's second event (not yet published): the regression comes
// first in {2, 0, 2}, the forward reference first in {2, 2, 0}.
const std::vector<std::pair<ThreadId, VectorClock>> kCleanPrefix = {
    {1, VectorClock{0, 1, 0}},
    {2, VectorClock{0, 0, 1}},
    {0, VectorClock{1, 1, 1}}};
const std::vector<VectorClock> kBothDefects = {VectorClock{2, 0, 2},
                                               VectorClock{2, 2, 0}};

// `clock` as thread `tid`'s next Event, delta-encoded against `prev`.
EventBody delta_event(ThreadId tid, const VectorClock& clock,
                      std::vector<VectorClock>& prev) {
  EventBody body;
  body.tid = tid;
  for (std::size_t j = 0; j < clock.size(); ++j) {
    if (clock[j] != prev[tid][j]) {
      body.delta.push_back({static_cast<std::uint32_t>(j), clock[j]});
    }
  }
  prev[tid] = clock;
  return body;
}

// Expects the last reply to be the Error ClockValidator's verdict on
// thread 0's `clock` maps to.
void expect_validator_error(const std::vector<DecodedFrame>& replies,
                            const ClockValidator& validator,
                            const VectorClock& clock) {
  const ClockVerdict verdict = validator.validate(0, clock);
  ASSERT_NE(verdict, ClockVerdict::kOk);
  ASSERT_FALSE(replies.empty());
  ASSERT_EQ(replies.back().op, Op::kError);
  EXPECT_EQ(replies.back().error.code, verdict == ClockVerdict::kRegression
                                           ? ErrorCode::kClockRegression
                                           : ErrorCode::kBadEvent);
  EXPECT_EQ(replies.back().error.message, validator.describe(0, verdict));
}

TEST(SessionCore, ClockWithBothDefectsGetsTheValidatorsError) {
  std::vector<ClockVerdict> verdicts;
  for (const VectorClock& bad : kBothDefects) {
    std::vector<DecodedFrame> replies;
    const std::unique_ptr<SessionCore> core = make_core(replies);
    HelloBody h;
    h.num_threads = 3;
    ASSERT_EQ(core->on_payload(encode_hello(h)),
              SessionCore::Disposition::kContinue);
    ClockValidator validator(3);
    std::vector<VectorClock> prev(3, VectorClock(3));
    for (const auto& [tid, clock] : kCleanPrefix) {
      ASSERT_EQ(validator.validate_and_commit(tid, clock), ClockVerdict::kOk);
      ASSERT_EQ(core->on_payload(encode_event(delta_event(tid, clock, prev))),
                SessionCore::Disposition::kContinue);
    }
    EXPECT_EQ(core->on_payload(encode_event(delta_event(0, bad, prev))),
              SessionCore::Disposition::kClose);
    expect_validator_error(replies, validator, bad);
    verdicts.push_back(validator.validate(0, bad));
    EXPECT_EQ(core->result().counts.events, kCleanPrefix.size());
  }
  EXPECT_EQ(verdicts, (std::vector<ClockVerdict>{ClockVerdict::kRegression,
                                                 ClockVerdict::kUnpublished}));
}

// A defective clock that arrives while another holder has the whole submit
// budget gets the same Error, once the budget frees, and returns its
// admission charge.
TEST(SessionCore, DefectiveClockWhileGateIsFullGetsTheValidatorsError) {
  const std::size_t cost = event_cost_bytes(3);
  for (const VectorClock& bad : kBothDefects) {
    std::vector<DecodedFrame> replies;
    const std::unique_ptr<SessionCore> core = make_core(replies);
    const auto gate = std::make_shared<SubmitGate>(cost);
    core->set_gate_provider([gate](const HelloBody&) { return gate; });
    bool ready = false;
    core->set_gate_ready([&ready] { ready = true; });
    HelloBody h;
    h.num_threads = 3;
    ASSERT_EQ(core->on_payload(encode_hello(h)),
              SessionCore::Disposition::kContinue);
    ClockValidator validator(3);
    std::vector<VectorClock> prev(3, VectorClock(3));
    for (const auto& [tid, clock] : kCleanPrefix) {
      ASSERT_EQ(validator.validate_and_commit(tid, clock), ClockVerdict::kOk);
      ASSERT_EQ(core->on_payload(encode_event(delta_event(tid, clock, prev))),
                SessionCore::Disposition::kContinue);
    }
    // Inline intervals returned their charges; now the budget is taken.
    ASSERT_EQ(gate->in_flight_bytes(), 0u);
    ASSERT_TRUE(gate->acquire_or_notify(cost, [] {}));
    SessionCore::Disposition d =
        core->on_payload(encode_event(delta_event(0, bad, prev)));
    gate->release(cost);
    if (d == SessionCore::Disposition::kBlocked) {
      EXPECT_TRUE(ready);
      d = core->retry_pending();
    }
    EXPECT_EQ(d, SessionCore::Disposition::kClose);
    expect_validator_error(replies, validator, bad);
    EXPECT_EQ(gate->in_flight_bytes(), 0u);
    EXPECT_EQ(core->result().counts.events, kCleanPrefix.size());
  }
}

// ---- protocol robustness: never abort, never leak a pin ----

TEST_F(ServiceTest, TruncatedFrameGetsTypedErrorAndClose) {
  start_server();
  FrameChannel channel = connect();
  // Header promises 100 bytes (on stream 0); deliver 10 and half-close.
  const std::uint8_t prefix[8] = {100, 0, 0, 0, 0, 0, 0, 0};
  ASSERT_EQ(::write(channel.fd(), prefix, 8), 8);
  const std::uint8_t partial[10] = {};
  ASSERT_EQ(::write(channel.fd(), partial, 10), 10);
  channel.shutdown_write();
  expect_error_then_close(channel, ErrorCode::kTruncatedFrame);
  // No session ever opened: the connection itself answered, and counted it.
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.leaked_pins, 0u);
}

TEST_F(ServiceTest, OversizedLengthPrefixGetsTypedError) {
  start_server();
  FrameChannel channel = connect();
  // ~2 GiB length claim on stream 0.
  const std::uint8_t prefix[8] = {0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0};
  ASSERT_EQ(::write(channel.fd(), prefix, 8), 8);
  expect_error_then_close(channel, ErrorCode::kOversizedFrame);
  EXPECT_EQ(server_->stats().protocol_errors, 1u);  // no session to count it
}

TEST_F(ServiceTest, UnknownOpcodeGetsTypedError) {
  start_server();
  FrameChannel channel = connect();
  // len=1, stream 0, opcode 0x55
  const std::uint8_t frame[9] = {1, 0, 0, 0, 0, 0, 0, 0, 0x55};
  ASSERT_EQ(::write(channel.fd(), frame, 9), 9);
  expect_error_then_close(channel, ErrorCode::kUnknownOpcode);
  await_completed(1);
}

TEST_F(ServiceTest, EventBeforeHelloIsRejected) {
  start_server();
  FrameChannel channel = connect();
  EventBody body;
  body.tid = 0;
  body.delta.push_back({0, 1});
  ASSERT_TRUE(channel.write_frame(encode_event(body)));
  expect_error_then_close(channel, ErrorCode::kExpectedHello);
  await_completed(1);
}

TEST_F(ServiceTest, DuplicateHelloIsRejected) {
  start_server();
  FrameChannel channel = connect();
  HelloBody h;
  h.num_threads = 2;
  hello(channel, h);
  ASSERT_TRUE(channel.write_frame(encode_hello(h)));
  expect_error_then_close(channel, ErrorCode::kDuplicateHello);
  await_completed(1);
}

TEST_F(ServiceTest, BadHelloParametersAreRejected) {
  start_server();
  FrameChannel channel = connect();
  HelloBody h;
  h.num_threads = 0;  // out of range
  ASSERT_TRUE(channel.write_frame(encode_hello(h)));
  expect_error_then_close(channel, ErrorCode::kBadHello);
  await_completed(1);
}

TEST_F(ServiceTest, ServerDirectionOpcodeIsRejected) {
  start_server();
  FrameChannel channel = connect();
  HelloBody h;
  h.num_threads = 2;
  hello(channel, h);
  ASSERT_TRUE(channel.write_frame(encode_counts(Op::kGoodbye, {})));
  expect_error_then_close(channel, ErrorCode::kUnexpectedFrame);
  await_completed(1);
}

TEST_F(ServiceTest, MalformedEventBodiesAreRejectedNotAborted) {
  // Each case is an Event frame that OnlinePoset::insert() would PM_CHECK
  // on; the session must pre-validate and answer a typed Error instead.
  struct Case {
    const char* name;
    ErrorCode code;
    EventBody body;
  };
  std::vector<Case> cases;
  {
    EventBody b;  // tid out of range
    b.tid = 9;
    b.delta.push_back({0, 1});
    cases.push_back({"bad_tid", ErrorCode::kBadEvent, b});
  }
  {
    EventBody b;  // own component must be 1 for the first event
    b.tid = 0;
    b.delta.push_back({0, 5});
    cases.push_back({"own_component_skip", ErrorCode::kBadEvent, b});
  }
  {
    EventBody b;  // references thread 1's event 3: not yet published
    b.tid = 0;
    b.delta.push_back({0, 1});
    b.delta.push_back({1, 3});
    cases.push_back({"unpublished_reference", ErrorCode::kBadEvent, b});
  }
  {
    EventBody b;  // delta component out of range
    b.tid = 0;
    b.delta.push_back({7, 1});
    cases.push_back({"bad_component", ErrorCode::kBadEvent, b});
  }
  {
    EventBody b;  // accesses on a non-collection event
    b.tid = 0;
    b.delta.push_back({0, 1});
    b.accesses.push_back({3, true, false});
    cases.push_back({"accesses_on_internal", ErrorCode::kBadEvent, b});
  }
  std::uint64_t completed = 0;
  for (const Case& c : cases) {
    if (server_ == nullptr) start_server();
    FrameChannel channel = connect();
    HelloBody h;
    h.num_threads = 2;
    hello(channel, h);
    ASSERT_TRUE(channel.write_frame(encode_event(c.body))) << c.name;
    expect_error_then_close(channel, c.code);
    await_completed(++completed);
  }
  EXPECT_EQ(server_->stats().leaked_pins, 0u);
}

TEST_F(ServiceTest, ClockRegressionIsRejected) {
  start_server();
  FrameChannel channel = connect();
  HelloBody h;
  h.num_threads = 2;
  hello(channel, h);
  ASSERT_TRUE(send_clock_regression(channel));
  expect_error_then_close(channel, ErrorCode::kClockRegression);
  await_completed(1);
  EXPECT_EQ(server_->stats().leaked_pins, 0u);
}

TEST_F(ServiceTest, HalfClosedConnectionDrainsCleanly) {
  start_server();
  FrameChannel channel = connect();
  HelloBody h;
  h.num_threads = 2;
  h.async_workers = 2;
  h.gc_every = 16;
  hello(channel, h);
  SyntheticEventStream::Params params;
  params.num_threads = 2;
  params.num_locks = 2;
  params.sync_probability = 0.8;
  SyntheticEventStream stream(params);
  std::vector<VectorClock> prev(2, VectorClock(2));
  stream_events(channel, stream, prev, 500);
  // Half-close without the Shutdown handshake: the server must treat the
  // EOF as end-of-stream, drain, and release every pin.
  channel.shutdown_write();
  std::vector<std::uint8_t> payload;
  EXPECT_EQ(channel.read_frame(&payload), ReadStatus::kEof);
  await_completed(1);
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.leaked_pins, 0u);
  EXPECT_EQ(stats.last_session.events, 500u);
  EXPECT_EQ(stats.last_session.outstanding_pins, 0u);
  EXPECT_EQ(stats.clean_shutdowns, 0u);  // EOF path, not the handshake
}

TEST_F(ServiceTest, KillMidStreamReleasesPinsAndServerSurvives) {
  start_server();
  {
    FrameChannel channel = connect();
    HelloBody h;
    h.num_threads = 2;
    h.async_workers = 3;
    h.gc_every = 8;  // pins active on every in-flight interval
    hello(channel, h);
    SyntheticEventStream::Params params;
    params.num_threads = 2;
    params.num_locks = 2;
    params.sync_probability = 0.8;
    SyntheticEventStream stream(params);
    std::vector<VectorClock> prev(2, VectorClock(2));
    stream_events(channel, stream, prev, 300);
    // Die mid-frame: a bare header with no payload, then the channel
    // destructor closes the socket with intervals still in flight. The
    // events the channel still holds go out first, so the bare header
    // follows them on the wire.
    ASSERT_EQ(channel.flush(), FrameChannel::FlushStatus::kDrained);
    const std::uint8_t prefix[8] = {50, 0, 0, 0, 0, 0, 0, 0};
    ASSERT_EQ(::write(channel.fd(), prefix, 8), 8);
  }
  await_completed(1);
  const ServerStats after_kill = server_->stats();
  EXPECT_EQ(after_kill.last_session.events, 300u);  // all ahead of the cut
  EXPECT_EQ(after_kill.leaked_pins, 0u);
  EXPECT_EQ(after_kill.last_session.outstanding_pins, 0u);

  // The server must still serve fresh sessions bit-identically.
  SyntheticEventStream::Params params;
  params.num_threads = 4;
  params.num_locks = 2;
  params.sync_probability = 0.8;
  params.seed = 3;
  FrameChannel channel = connect();
  HelloBody h;
  h.num_threads = 4;
  hello(channel, h);
  SyntheticEventStream stream(params);
  std::vector<VectorClock> prev(4, VectorClock(4));
  stream_events(channel, stream, prev, 800);
  ASSERT_TRUE(channel.write_frame(encode_shutdown()));
  const DecodedFrame goodbye = read_frame(channel);
  ASSERT_EQ(goodbye.op, Op::kGoodbye);
  EXPECT_EQ(goodbye.counts.states, oracle_states(params, 800));
  await_completed(2);
  EXPECT_EQ(server_->stats().leaked_pins, 0u);
}

TEST_F(ServiceTest, InterleavedSessionsStayIsolated) {
  start_server();
  // Two concurrent sessions with different stream shapes; each must match
  // its own oracle (shared server, fully isolated per-session state).
  struct Job {
    std::uint64_t seed;
    std::uint32_t workers;
    std::uint64_t total;
    std::uint64_t states = 0;
  };
  std::vector<Job> jobs = {{11, 0, 1200}, {22, 2, 900}};
  std::vector<std::thread> threads;
  for (Job& job : jobs) {
    threads.emplace_back([this, &job] {
      SyntheticEventStream::Params params;
      params.num_threads = 3;
      params.num_locks = 2;
      params.sync_probability = 0.8;
      params.seed = job.seed;
      FrameChannel channel = connect();
      HelloBody h;
      h.num_threads = 3;
      h.async_workers = job.workers;
      h.gc_every = 32;
      hello(channel, h);
      SyntheticEventStream stream(params);
      std::vector<VectorClock> prev(3, VectorClock(3));
      stream_events(channel, stream, prev, job.total);
      ASSERT_TRUE(channel.write_frame(encode_shutdown()));
      const DecodedFrame goodbye = read_frame(channel);
      ASSERT_EQ(goodbye.op, Op::kGoodbye);
      job.states = goodbye.counts.states;
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Job& job : jobs) {
    SyntheticEventStream::Params params;
    params.num_threads = 3;
    params.num_locks = 2;
    params.sync_probability = 0.8;
    params.seed = job.seed;
    EXPECT_EQ(job.states, oracle_states(params, job.total))
        << "seed " << job.seed;
  }
  await_completed(2);
  EXPECT_EQ(server_->stats().leaked_pins, 0u);
}

// A session refused at --max-sessions on stream 0 ends its connection like
// any other stream-0 session: the client reads the typed Error, then EOF —
// even one that pipelined more frames behind its Hello.
TEST_F(ServiceTest, SessionLimitAnswersTypedError) {
  EpollServer::Options options;
  options.max_sessions = 1;
  start_server(std::move(options));
  FrameChannel first = connect();
  HelloBody h;
  h.num_threads = 2;
  hello(first, h);  // occupies the only slot
  FrameChannel second = connect();
  set_read_timeout(second);  // a connection left open fails, not hangs
  // Admission happens at a connection's first frame.
  ASSERT_TRUE(second.write_frame(encode_hello(h)));
  ASSERT_TRUE(second.write_frame(encode_drain()));
  expect_error_then_close(second, ErrorCode::kSessionLimit);
  ASSERT_TRUE(first.write_frame(encode_shutdown()));
  EXPECT_EQ(read_frame(first).op, Op::kGoodbye);
  await_completed(1);
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.sessions_rejected, 1u);
  EXPECT_EQ(stats.sessions_accepted, 2u);
  // The S4 regression: a limiter refusal is an admission decision, not a
  // client mistake — it must NOT count as a protocol error (the double
  // count made "protocol_errors: 0" useless once the limiter engaged).
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.clean_shutdowns, 1u);
}

// A second server on a live server's socket path must fail with the typed
// kLiveListener refusal (paramountd maps it to exit 3), and the live
// server's socket must be left untouched.
TEST_F(ServiceTest, SecondServerGetsTypedLiveListenerRefusal) {
  start_server();
  EpollServer::Options options;
  options.endpoint = endpoint_;
  EpollServer second(std::move(options));
  std::string error;
  ListenUnixError why = ListenUnixError::kNone;
  EXPECT_FALSE(second.start(&error, &why));
  EXPECT_EQ(why, ListenUnixError::kLiveListener) << error;
  // The refused instance did not steal the socket: the live server still
  // answers on it.
  FrameChannel channel = connect();
  HelloBody h;
  h.num_threads = 2;
  hello(channel, h);
  ASSERT_TRUE(channel.write_frame(encode_shutdown()));
  EXPECT_EQ(read_frame(channel).op, Op::kGoodbye);
  await_completed(1);
}

// Window GC keeps the session's poset at a plateau: the final resident
// footprint after teardown-drain must be far below the unwindowed footprint
// of the same stream, and pins must all be gone.
TEST_F(ServiceTest, ResidentBytesReturnToPlateauAfterTeardown) {
  start_server();
  // At 4 threads a full poset segment holds 512 rows, so 15k events per
  // thread fill about 30 of them: the segments GC frees dwarf the partly
  // covered one it must keep.
  const std::uint64_t total = 60000;
  auto run = [&](std::uint64_t gc_every) -> CountsBody {
    SyntheticEventStream::Params params;
    params.num_threads = 4;
    params.num_locks = 2;
    params.sync_probability = 0.8;
    FrameChannel channel = connect();
    HelloBody h;
    h.num_threads = 4;
    h.async_workers = 2;
    h.gc_every = gc_every;
    hello(channel, h);
    SyntheticEventStream stream(params);
    std::vector<VectorClock> prev(4, VectorClock(4));
    stream_events(channel, stream, prev, total);
    EXPECT_TRUE(channel.write_frame(encode_shutdown()));
    const DecodedFrame goodbye = read_frame(channel);
    EXPECT_EQ(goodbye.op, Op::kGoodbye);
    return goodbye.counts;
  };
  const CountsBody unwindowed = run(0);
  const CountsBody windowed = run(64);
  await_completed(2);
  EXPECT_EQ(windowed.states, unwindowed.states);  // GC never changes counts
  EXPECT_EQ(windowed.outstanding_pins, 0u);
  EXPECT_GT(windowed.reclaimed_events, 0u);
  // Plateau: the drained windowed poset holds a small suffix, not the run.
  EXPECT_LT(windowed.resident_bytes, unwindowed.resident_bytes / 2);
  EXPECT_EQ(server_->stats().leaked_pins, 0u);
}

// ---- backpressure ----

TEST_F(ServiceTest, SubmitBudgetEngagesAndPreservesCounts) {
  // Budget of exactly one event: admission degrades to near-serial, the
  // gate must stall (the reactor stops reading the socket), and the final
  // counts must still match the oracle exactly.
  SyntheticEventStream::Params params;
  params.num_threads = 4;
  params.num_locks = 2;
  params.sync_probability = 0.8;
  EpollServer::Options options;
  options.submit_budget_bytes = event_cost_bytes(4);
  start_server(std::move(options));
  FrameChannel channel = connect();
  HelloBody h;
  h.num_threads = 4;
  h.async_workers = 3;  // pooled: submits outpace retirements
  hello(channel, h);
  SyntheticEventStream stream(params);
  std::vector<VectorClock> prev(4, VectorClock(4));
  const std::uint64_t total = 2000;
  stream_events(channel, stream, prev, total);
  ASSERT_TRUE(channel.write_frame(encode_shutdown()));
  const DecodedFrame goodbye = read_frame(channel);
  ASSERT_EQ(goodbye.op, Op::kGoodbye);
  EXPECT_EQ(goodbye.counts.events, total);
  EXPECT_EQ(goodbye.counts.states, oracle_states(params, total));
  await_completed(1);
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.leaked_pins, 0u);
  EXPECT_GT(stats.submit_stalls, 0u);
}

}  // namespace
}  // namespace paramount::service
