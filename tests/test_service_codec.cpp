// Frame codec robustness: round-trips, truncation, trailing bytes, and
// seeded-RNG byte-mutation fuzzing (the decode-never-reads-OOB contract is
// enforced by the ASan CI job running this suite), plus the SubmitGate
// admission rules and the paramountd flag validation (invalid values exit 2).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "service/daemon_config.hpp"
#include "service/frame.hpp"
#include "util/rng.hpp"
#include "util/submit_gate.hpp"

namespace paramount::service {
namespace {

// Every client- and server-direction frame the protocol defines, with
// non-trivial field values so round-trips exercise real byte patterns.
std::vector<std::vector<std::uint8_t>> corpus() {
  std::vector<std::vector<std::uint8_t>> frames;
  HelloBody hello;
  hello.num_threads = 4;
  hello.async_workers = 3;
  hello.gc_every = 256;
  hello.window_bytes = std::uint64_t{64} << 20;
  frames.push_back(encode_hello(hello));

  EventBody event;
  event.tid = 2;
  event.kind = OpKind::kCollection;
  event.object = 7;
  event.delta = {{2, 9}, {0, 4}};
  event.accesses = {{11, true, false}, {12, false, true}};
  frames.push_back(encode_event(event));

  frames.push_back(encode_poll());
  frames.push_back(encode_drain());
  frames.push_back(encode_shutdown());
  frames.push_back(encode_hello_ack({kProtocolVersion, 42}));

  CountsBody counts;
  counts.events = 1000;
  counts.states = 159849;
  counts.intervals = 1000;
  counts.racy_vars = 3;
  counts.resident_bytes = 1 << 16;
  counts.reclaimed_events = 987;
  counts.window_evictions = 12;
  frames.push_back(encode_counts(Op::kDrained, counts));
  frames.push_back(encode_counts(Op::kGoodbye, counts));
  StatsBody stats;
  stats.counts = counts;
  stats.eviction_alert_threshold = 10;
  stats.eviction_alert = true;
  stats.metrics_json = R"({"counters":{}})";
  frames.push_back(encode_stats(stats));
  frames.push_back(encode_error(ErrorCode::kBadEvent, "tid out of range"));
  return frames;
}

TEST(ServiceFrame, HelloRoundTrip) {
  HelloBody body;
  body.num_threads = 8;
  body.async_workers = 2;
  body.gc_every = 1024;
  body.window_bytes = 1 << 30;
  DecodedFrame out;
  ASSERT_FALSE(decode_frame(encode_hello(body), &out).has_value());
  EXPECT_EQ(out.op, Op::kHello);
  EXPECT_EQ(out.hello, body);
}

TEST(ServiceFrame, EventRoundTrip) {
  EventBody body;
  body.tid = 3;
  body.kind = OpKind::kAcquire;
  body.object = 1;
  body.delta = {{3, 17}, {1, 2}, {0, 5}};
  DecodedFrame out;
  ASSERT_FALSE(decode_frame(encode_event(body), &out).has_value());
  EXPECT_EQ(out.op, Op::kEvent);
  EXPECT_EQ(out.event, body);
}

TEST(ServiceFrame, CollectionEventRoundTripsAccessFlags) {
  EventBody body;
  body.tid = 0;
  body.kind = OpKind::kCollection;
  body.delta = {{0, 1}};
  body.accesses = {{5, false, false},  // read
                   {6, true, false},   // write
                   {7, false, true},   // init read
                   {8, true, true}};   // init write
  DecodedFrame out;
  ASSERT_FALSE(decode_frame(encode_event(body), &out).has_value());
  EXPECT_EQ(out.event.accesses, body.accesses);
}

TEST(ServiceFrame, ServerFramesRoundTrip) {
  CountsBody counts;
  counts.events = 5;
  counts.states = 6;
  counts.outstanding_pins = 1;
  DecodedFrame out;
  ASSERT_FALSE(
      decode_frame(encode_hello_ack({kProtocolVersion, 99}), &out).has_value());
  EXPECT_EQ(out.op, Op::kHelloAck);
  EXPECT_EQ(out.hello_ack.session_id, 99u);

  ASSERT_FALSE(decode_frame(encode_counts(Op::kGoodbye, counts), &out)
                   .has_value());
  EXPECT_EQ(out.op, Op::kGoodbye);
  EXPECT_EQ(out.counts, counts);

  StatsBody stats;
  stats.counts = counts;
  stats.eviction_alert_threshold = 7;
  stats.eviction_alert = true;
  stats.metrics_json = R"({"gauges":{"poset.resident_bytes":512}})";
  ASSERT_FALSE(decode_frame(encode_stats(stats), &out).has_value());
  EXPECT_EQ(out.op, Op::kStats);
  EXPECT_EQ(out.stats, stats);

  ASSERT_FALSE(
      decode_frame(encode_error(ErrorCode::kClockRegression, "m"), &out)
          .has_value());
  EXPECT_EQ(out.op, Op::kError);
  EXPECT_EQ(out.error.code, ErrorCode::kClockRegression);
  EXPECT_EQ(out.error.message, "m");
}

TEST(ServiceFrame, EmptyFramesDecode) {
  for (const Op op : {Op::kPoll, Op::kDrain, Op::kShutdown}) {
    const std::vector<std::uint8_t> payload = {static_cast<std::uint8_t>(op)};
    DecodedFrame out;
    ASSERT_FALSE(decode_frame(payload, &out).has_value());
    EXPECT_EQ(out.op, op);
  }
}

// Every strict prefix of every corpus frame must decode to a typed error —
// a truncated body can never silently pass as a shorter valid frame.
TEST(ServiceFrame, RejectsEveryTruncationPoint) {
  for (const std::vector<std::uint8_t>& frame : corpus()) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      DecodedFrame out;
      const auto err = decode_frame(
          std::span<const std::uint8_t>(frame.data(), len), &out);
      ASSERT_TRUE(err.has_value())
          << "prefix of length " << len << " of a " << frame.size()
          << "-byte frame decoded successfully";
      EXPECT_TRUE(err->code == ErrorCode::kTruncatedFrame ||
                  err->code == ErrorCode::kMalformedFrame)
          << to_string(err->code);
    }
  }
}

TEST(ServiceFrame, RejectsTrailingBytes) {
  for (std::vector<std::uint8_t> frame : corpus()) {
    frame.push_back(0);
    DecodedFrame out;
    const auto err = decode_frame(frame, &out);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, ErrorCode::kMalformedFrame);
  }
}

TEST(ServiceFrame, RejectsUnknownOpcode) {
  const std::vector<std::uint8_t> payload = {0x55, 1, 2, 3};
  DecodedFrame out;
  const auto err = decode_frame(payload, &out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::kUnknownOpcode);
}

TEST(ServiceFrame, RejectsOversizedPayload) {
  std::vector<std::uint8_t> payload(kMaxFramePayload + 1,
                                    static_cast<std::uint8_t>(Op::kPoll));
  DecodedFrame out;
  const auto err = decode_frame(payload, &out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::kOversizedFrame);
}

TEST(ServiceFrame, RejectsUnknownEventKindAndAccessFlags) {
  EventBody body;
  body.tid = 0;
  body.kind = OpKind::kCollection;
  body.delta = {{0, 1}};
  body.accesses = {{1, true, false}};
  std::vector<std::uint8_t> frame = encode_event(body);
  // Byte layout: opcode(1) tid(4) kind(1) object(4) ...; flags is the last
  // byte of the single access record.
  std::vector<std::uint8_t> bad_kind = frame;
  bad_kind[5] = 0x7f;
  DecodedFrame out;
  auto err = decode_frame(bad_kind, &out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::kMalformedFrame);

  std::vector<std::uint8_t> bad_flags = frame;
  bad_flags.back() = 0x04;  // neither write nor init bit
  err = decode_frame(bad_flags, &out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::kMalformedFrame);
}

// An element count implying more bytes than the payload holds must be
// rejected before any allocation is sized from it.
TEST(ServiceFrame, RejectsHostileElementCounts) {
  EventBody body;
  body.tid = 0;
  body.delta = {{0, 1}};
  std::vector<std::uint8_t> frame = encode_event(body);
  // The delta count lives at offset 10 (opcode 1 + tid 4 + kind 1 + object 4).
  frame[10] = 0xff;
  frame[11] = 0xff;  // claims 65535 deltas in a ~30-byte payload
  DecodedFrame out;
  const auto err = decode_frame(frame, &out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::kTruncatedFrame);
}

// Seeded byte-mutation fuzz: flip random bytes (and lengths) of valid
// frames; decode must return either success or a typed error — never crash,
// never read out of bounds (the ASan job is the OOB oracle).
TEST(ServiceFrameFuzz, MutatedCorpusNeverCrashesDecode) {
  Rng rng(0x5eedf00d);
  const std::vector<std::vector<std::uint8_t>> frames = corpus();
  std::uint64_t decoded_ok = 0;
  std::uint64_t rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<std::uint8_t> mutated =
        frames[rng.next_below(frames.size())];
    const std::uint64_t flips = 1 + rng.next_below(8);
    for (std::uint64_t f = 0; f < flips && !mutated.empty(); ++f) {
      mutated[rng.next_below(mutated.size())] =
          static_cast<std::uint8_t>(rng.next_u64());
    }
    if (rng.next_bool(0.25) && !mutated.empty()) {
      mutated.resize(rng.next_below(mutated.size() + 1));  // truncate
    } else if (rng.next_bool(0.1)) {
      mutated.push_back(static_cast<std::uint8_t>(rng.next_u64()));  // extend
    }
    DecodedFrame out;
    if (decode_frame(mutated, &out).has_value()) {
      ++rejected;
    } else {
      ++decoded_ok;
    }
  }
  // Sanity: the mutator must exercise both outcomes, otherwise it is not
  // actually probing the boundary.
  EXPECT_GT(decoded_ok, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(ServiceFrameFuzz, RandomGarbageNeverCrashesDecode) {
  Rng rng(0xbadc0de);
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<std::uint8_t> garbage(rng.next_below(96));
    for (std::uint8_t& b : garbage) {
      b = static_cast<std::uint8_t>(rng.next_u64());
    }
    DecodedFrame out;
    (void)decode_frame(garbage, &out);  // must simply not crash / read OOB
  }
}

// ---- SubmitGate admission rules ----

// The budget rule: a request is charged while it fits the budget and
// refused, uncharged, once it would overflow it.
TEST(SubmitGate, ChargesAndReleasesWithinBudget) {
  SubmitGate gate(100);
  EXPECT_TRUE(gate.acquire_or_notify(60, [] {}));
  EXPECT_EQ(gate.in_flight_bytes(), 60u);
  EXPECT_FALSE(gate.acquire_or_notify(50, [] {}));  // 60 + 50 > 100
  EXPECT_EQ(gate.in_flight_bytes(), 60u);
  EXPECT_TRUE(gate.acquire_or_notify(40, [] {}));  // exactly fills it
  EXPECT_EQ(gate.in_flight_bytes(), 100u);
  gate.release(60);
  gate.release(40);
  EXPECT_EQ(gate.in_flight_bytes(), 0u);
}

TEST(SubmitGate, OversizedItemPassesWhenIdle) {
  // budget < item size must degrade to serial execution, not deadlock: the
  // oversized item passes alone, and even a 1-byte item waits behind it.
  SubmitGate gate(10);
  EXPECT_TRUE(gate.acquire_or_notify(100, [] {}));
  EXPECT_EQ(gate.in_flight_bytes(), 100u);
  bool fired = false;
  EXPECT_FALSE(gate.acquire_or_notify(1, [&] { fired = true; }));
  gate.release(100);
  EXPECT_TRUE(fired);
  EXPECT_TRUE(gate.acquire_or_notify(1, [] {}));
  gate.release(1);
}

TEST(SubmitGate, ZeroBudgetDisablesTheGate) {
  // Nothing is charged: any number of huge requests pass, and a release
  // needs no matching charge.
  SubmitGate gate(0);
  EXPECT_TRUE(gate.acquire_or_notify(std::size_t{1} << 40, [] {}));
  EXPECT_TRUE(gate.acquire_or_notify(std::size_t{1} << 40, [] {}));
  EXPECT_EQ(gate.in_flight_bytes(), 0u);
  gate.release(std::size_t{1} << 40);
  EXPECT_EQ(gate.in_flight_bytes(), 0u);
}

// The event loop's non-blocking admission: a refused acquire_or_notify
// queues the notify WITHOUT charging, and release() wakes every FIFO-prefix
// waiter that now fits, in order (each re-attempts its own admission —
// a wake is only an invitation, so handing out exactly one would lose it
// whenever the woken waiter never re-acquires).
TEST(SubmitGate, AcquireOrNotifyQueuesWithoutChargingAndWakesInFifoOrder) {
  SubmitGate gate(100);
  EXPECT_TRUE(gate.acquire_or_notify(80, [] {}));  // fits: charged
  EXPECT_EQ(gate.in_flight_bytes(), 80u);

  std::vector<int> fired;
  EXPECT_FALSE(gate.acquire_or_notify(50, [&] { fired.push_back(1); }));
  EXPECT_FALSE(gate.acquire_or_notify(30, [&] { fired.push_back(2); }));
  // Refusals queue, they do not charge.
  EXPECT_EQ(gate.in_flight_bytes(), 80u);
  EXPECT_TRUE(fired.empty());

  // The release empties the gate, so the whole queue fits: both waiters
  // wake, FIFO order.
  gate.release(80);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], 1);
  EXPECT_EQ(fired[1], 2);

  // The woken waiters re-attempt for themselves; both now fit.
  EXPECT_TRUE(gate.acquire_or_notify(50, [] {}));
  EXPECT_TRUE(gate.acquire_or_notify(30, [] {}));
  EXPECT_EQ(gate.in_flight_bytes(), 80u);
}

// Head-of-line order survives the cascade: release() stops at the first
// waiter that does not fit, so a big waiter is never starved by small ones
// queued behind it.
TEST(SubmitGate, ReleaseCascadeStopsAtFirstNonFittingWaiter) {
  SubmitGate gate(100);
  EXPECT_TRUE(gate.acquire_or_notify(98, [] {}));
  std::vector<int> fired;
  EXPECT_FALSE(gate.acquire_or_notify(60, [&] { fired.push_back(1); }));
  EXPECT_FALSE(gate.acquire_or_notify(5, [&] { fired.push_back(2); }));
  // 98 → 78 in flight: the 60-byte head still does not fit, so the 5-byte
  // waiter behind it (which now would fit) must wait its turn.
  gate.release(20);
  EXPECT_TRUE(fired.empty());
  // 78 → 38: now the head fits (38+60 ≤ 100), and so does the 5 behind it.
  gate.release(40);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], 1);
  EXPECT_EQ(fired[1], 2);
}

// The lost-wakeup regression: a waiter whose session was torn down between
// queueing and firing consumes its wake without re-acquiring. With a
// wake-exactly-one release, the last in-flight charge retiring woke only
// that dead waiter and everyone behind it stalled forever; the cascade
// must wake the live waiter too.
TEST(SubmitGate, DeadHeadWaiterDoesNotStrandWaitersBehindIt) {
  SubmitGate gate(100);
  EXPECT_TRUE(gate.acquire_or_notify(100, [] {}));
  int dead_fired = 0;  // the torn-down session: notified, never re-acquires
  bool live_admitted = false;
  EXPECT_FALSE(gate.acquire_or_notify(40, [&] { ++dead_fired; }));
  EXPECT_FALSE(gate.acquire_or_notify(
      40, [&] { live_admitted = gate.acquire_or_notify(40, [] {}); }));
  // The ONLY charge retires: no further release will ever come.
  gate.release(100);
  EXPECT_EQ(dead_fired, 1);
  EXPECT_TRUE(live_admitted);
  EXPECT_EQ(gate.in_flight_bytes(), 40u);
}

// cancel() retracts a queued registration: a finishing session's waiter
// must neither fire later nor occupy the FIFO head gating live waiters.
TEST(SubmitGate, CancelledWaiterNeverFiresAndFreesTheQueueHead) {
  SubmitGate gate(100);
  int owner = 0;  // any stable address works as the cancel key
  EXPECT_TRUE(gate.acquire_or_notify(60, [] {}));
  bool cancelled_fired = false;
  bool live_fired = false;
  // The big dead waiter would not fit after a partial release and, queued
  // at the head, would gate the small live waiter behind it.
  EXPECT_FALSE(gate.acquire_or_notify(
      90, [&] { cancelled_fired = true; }, &owner));
  EXPECT_FALSE(gate.acquire_or_notify(50, [&] { live_fired = true; }));
  gate.cancel(&owner);
  gate.release(20);  // 60 → 40 in flight: 50 fits, 90 would not have
  EXPECT_FALSE(cancelled_fired);
  EXPECT_TRUE(live_fired);
  // Cancelling an owner with nothing queued is a no-op.
  gate.cancel(&owner);
  gate.cancel(nullptr);
}

TEST(SubmitGate, AcquireOrNotifyPassageRuleAdmitsOversizedWhenIdle) {
  // The passage rule: an item larger than the whole budget must pass when
  // nothing is in flight (or nothing would ever run).
  SubmitGate gate(10);
  EXPECT_TRUE(gate.acquire_or_notify(100, [] {}));
  bool fired = false;
  EXPECT_FALSE(gate.acquire_or_notify(100, [&] { fired = true; }));
  gate.release(100);
  EXPECT_TRUE(fired);
  EXPECT_TRUE(gate.acquire_or_notify(100, [] {}));
  gate.release(100);
  EXPECT_EQ(gate.in_flight_bytes(), 0u);
}

TEST(SubmitGate, AcquireOrNotifyZeroBudgetNeverQueues) {
  SubmitGate gate(0);
  bool fired = false;
  EXPECT_TRUE(gate.acquire_or_notify(std::size_t{1} << 40,
                                     [&] { fired = true; }));
  gate.release(std::size_t{1} << 40);
  EXPECT_FALSE(fired);
}

// ---- paramountd flag validation (exit 2 on invalid values) ----

DaemonConfig resolve(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "paramountd");
  CliFlags flags("test");
  register_daemon_flags(flags);
  EXPECT_TRUE(flags.parse(static_cast<int>(argv.size()),
                          const_cast<char**>(argv.data())));
  return resolve_daemon_config(flags);
}

TEST(DaemonFlags, AcceptsValidValues) {
  const DaemonConfig config =
      resolve({"--listen=/tmp/pm.sock", "--max-sessions=4",
               "--submit-budget=4M"});
  EXPECT_EQ(config.endpoint.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(config.endpoint.path, "/tmp/pm.sock");
  EXPECT_EQ(config.max_sessions, 4u);
  EXPECT_EQ(config.submit_budget_bytes, std::size_t{4} << 20);
  EXPECT_EQ(config.tenant_budget_bytes, 0u);
  EXPECT_EQ(config.eviction_alert_threshold, 0u);
}

TEST(DaemonFlags, ParsesTcpListenSpec) {
  const DaemonConfig config = resolve({"--listen=tcp:127.0.0.1:7000"});
  EXPECT_EQ(config.endpoint.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(config.endpoint.host, "127.0.0.1");
  EXPECT_EQ(config.endpoint.port, 7000u);
}

TEST(DaemonFlags, ParsesTenantBudgetAndAlert) {
  const DaemonConfig config =
      resolve({"--tenant-budget=16M", "--eviction-alert=500"});
  EXPECT_EQ(config.tenant_budget_bytes, std::size_t{16} << 20);
  EXPECT_EQ(config.eviction_alert_threshold, 500u);
}

TEST(DaemonFlags, RejectsMalformedTcpPort) {
  EXPECT_EXIT(resolve({"--listen=tcp:localhost:http"}),
              ::testing::ExitedWithCode(2), "--listen");
}

TEST(DaemonFlags, EmptyBudgetMeansUnbounded) {
  EXPECT_EQ(resolve({}).submit_budget_bytes, 0u);
}

// The flags' defaults and DaemonConfig's member defaults are one set.
TEST(DaemonFlags, FlagDefaultsMatchConfigDefaults) {
  const DaemonConfig parsed = resolve({});
  const DaemonConfig defaults;
  EXPECT_EQ(parsed.max_sessions, defaults.max_sessions);
  EXPECT_EQ(parsed.submit_budget_bytes, defaults.submit_budget_bytes);
  EXPECT_EQ(parsed.tenant_budget_bytes, defaults.tenant_budget_bytes);
  EXPECT_EQ(parsed.eviction_alert_threshold,
            defaults.eviction_alert_threshold);
}

TEST(DaemonFlags, RejectsEmptyListenPath) {
  EXPECT_EXIT(resolve({"--listen="}), ::testing::ExitedWithCode(2),
              "--listen");
}

TEST(DaemonFlags, RejectsOverlongListenPath) {
  const std::string path(200, 'x');  // above the sockaddr_un sun_path limit
  EXPECT_EXIT(resolve({"--listen", path.c_str()}),
              ::testing::ExitedWithCode(2), "--listen");
}

TEST(DaemonFlags, RejectsZeroMaxSessions) {
  EXPECT_EXIT(resolve({"--max-sessions=0"}), ::testing::ExitedWithCode(2),
              "max-sessions");
}

TEST(DaemonFlags, RejectsOutOfRangeMaxSessions) {
  // The ceiling is fd-table scale (2^20); only values beyond it are
  // refused.
  EXPECT_EXIT(resolve({"--max-sessions=2000000"}),
              ::testing::ExitedWithCode(2), "max-sessions");
}

TEST(DaemonFlags, RejectsMalformedSubmitBudget) {
  EXPECT_EXIT(resolve({"--submit-budget=12XYZ"}),
              ::testing::ExitedWithCode(2), "submit-budget");
}

}  // namespace
}  // namespace paramount::service
