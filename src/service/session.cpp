#include "service/session.hpp"

#include <limits>
#include <string>
#include <utility>

namespace paramount::service {

namespace {

// Frame scratch, one per thread that feeds SessionCores: a core is fed by
// one thread at a time and on_payload never re-enters another core, so
// every session on the reactor shares these buffers. The Event path then
// allocates nothing once they are warm, and an idle session holds none.
thread_local DecodedFrame tls_frame;
thread_local VectorClock tls_clock;

}  // namespace

std::size_t event_cost_bytes(std::size_t num_threads) {
  // Event struct + one clock component per thread + queued-task overhead.
  return sizeof(Event) + num_threads * sizeof(EventIndex) + 64;
}

SessionCore::Disposition SessionCore::on_payload(
    std::span<const std::uint8_t> payload) {
  if (state_ == State::kClosed) return Disposition::kClose;
  // A frame arriving while an event is stashed means the owner kept reading
  // past a kBlocked — a driver bug, not a client one; fail closed rather
  // than reorder the stream.
  if (pending_.has_value()) {
    send_error(ErrorCode::kUnexpectedFrame,
               "frame while submission is blocked");
    return close();
  }
  if (const auto err = decode_frame(payload, &tls_frame)) {
    send_error(err->code, err->message);
    return close();
  }
  ++result_.frames;
  return handle_frame(tls_frame);
}

std::optional<ErrorBody> transport_error(ReadStatus status) {
  switch (status) {
    case ReadStatus::kTruncated:
      return ErrorBody{ErrorCode::kTruncatedFrame, "stream ended mid-frame"};
    case ReadStatus::kOversized:
      // Framing is lost (the payload was never read); the connection closes
      // after the error frame.
      return ErrorBody{ErrorCode::kOversizedFrame,
                       "length prefix above " +
                           std::to_string(kMaxFramePayload) + " bytes"};
    case ReadStatus::kFrame:
    case ReadStatus::kEof:  // orderly close: nothing was malformed
    case ReadStatus::kWouldBlock:
    case ReadStatus::kError:
      break;
  }
  return std::nullopt;
}

SessionCore::Disposition SessionCore::on_transport_status(ReadStatus status) {
  if (state_ == State::kClosed) return Disposition::kClose;
  // An EOF without Shutdown finishes silently (not "clean" — the handshake
  // was skipped, but nothing was malformed either).
  if (const std::optional<ErrorBody> error = transport_error(status)) {
    send_error(error->code, error->message);
  }
  return close();
}

SessionCore::Disposition SessionCore::handle_frame(const DecodedFrame& frame) {
  // Server→client opcodes arriving from a client are protocol violations in
  // any state.
  switch (frame.op) {
    case Op::kHelloAck:
    case Op::kStats:
    case Op::kDrained:
    case Op::kGoodbye:
    case Op::kError:
      send_error(ErrorCode::kUnexpectedFrame,
                 std::string(to_string(frame.op)) +
                     " is a server-to-client frame");
      return close();
    default:
      break;
  }
  if (state_ == State::kAwaitHello) {
    if (frame.op != Op::kHello) {
      send_error(ErrorCode::kExpectedHello,
                 std::string("expected Hello, got ") + to_string(frame.op));
      return close();
    }
    return handle_hello(frame.hello);
  }
  switch (frame.op) {
    case Op::kHello:
      send_error(ErrorCode::kDuplicateHello, "session already established");
      return close();
    case Op::kEvent:
      return handle_event(frame.event);
    case Op::kPoll:
      return handle_poll();
    case Op::kDrain:
      return handle_drain();
    case Op::kShutdown:
      return handle_shutdown();
    default:
      return close();  // unreachable: covered above
  }
}

SessionCore::Disposition SessionCore::handle_hello(const HelloBody& body) {
  if (body.version != kProtocolVersion) {
    send_error(ErrorCode::kBadHello,
               "unsupported protocol version " + std::to_string(body.version));
    return close();
  }
  if (body.num_threads == 0 || body.num_threads > limits_.max_threads) {
    send_error(ErrorCode::kBadHello,
               "num_threads must be in [1, " +
                   std::to_string(limits_.max_threads) + "]");
    return close();
  }
  if (body.async_workers > limits_.max_workers) {
    send_error(ErrorCode::kBadHello,
               "async_workers above " + std::to_string(limits_.max_workers));
    return close();
  }
  num_threads_ = body.num_threads;
  windowed_ = body.gc_every > 0 || body.window_bytes > 0;
  event_cost_ = event_cost_bytes(num_threads_);
  // One shard for the thread that feeds this core, which alone submits,
  // plus one per pool worker (OnlineParamount::Options::single_submitter).
  // Spans off: a session exports only the metrics snapshot (Stats), and
  // span buffers would keep up to 3 MiB per shard for the session's life.
  telemetry_ = std::make_unique<obs::Telemetry>(
      1 + body.async_workers, /*trace_capacity_per_shard=*/0);
  access_table_ = std::make_unique<AccessTable>(num_threads_);
  gate_ = gate_provider_ ? gate_provider_(body)
                         : std::make_shared<SubmitGate>(0);
  OnlineRaceDetector::Options options;
  options.async_workers = body.async_workers;
  options.telemetry = telemetry_.get();
  options.single_submitter = true;
  options.window_policy = {body.gc_every,
                           static_cast<std::size_t>(body.window_bytes)};
  // The gate outlives the detector only through this shared_ptr copy: a
  // tenant gate is shared across sessions, and pooled workers may still be
  // retiring intervals while another session's Hello re-fetches it.
  options.interval_done = [gate = gate_, cost = event_cost_](EventId) {
    gate->release(cost);
  };
  detector_ = std::make_unique<OnlineRaceDetector>(num_threads_,
                                                   std::move(options));
  detector_->attach(*access_table_);
  state_ = State::kStreaming;
  result_.hello_seen = true;
  const auto ack = encode_hello_ack({kProtocolVersion, session_id_});
  if (!send_(ack)) return close();
  return Disposition::kContinue;
}

SessionCore::Disposition SessionCore::handle_event(const EventBody& body) {
  if (body.tid >= num_threads_) {
    send_error(ErrorCode::kBadEvent,
               "tid " + std::to_string(body.tid) + " out of range");
    return close();
  }
  const ThreadId tid = body.tid;
  // Reconstruct the absolute clock from the delta against this thread's
  // previous clock: the poset's last row for the thread, which window GC
  // never frees (the watermark stays at or below every thread's newest
  // event). The copy reuses the scratch clock's buffer. The clock itself is
  // checked once, by the insert in commit_event().
  VectorClock& clock = tls_clock;
  const OnlinePoset& poset = detector_->poset();
  const EventIndex last = poset.num_events(tid);
  if (last == 0) {
    clock.assign_zero(num_threads_);
  } else {
    clock.assign(poset.vc(tid, last));
  }
  for (const ClockDelta& d : body.delta) {
    if (d.component >= num_threads_) {
      send_error(ErrorCode::kBadEvent, "clock delta component out of range");
      return close();
    }
    if (d.value > std::numeric_limits<EventIndex>::max()) {
      send_error(ErrorCode::kBadEvent, "clock component above 2^32-1");
      return close();
    }
    clock[d.component] = static_cast<EventIndex>(d.value);
  }
  if (!body.accesses.empty() && body.kind != OpKind::kCollection) {
    send_error(ErrorCode::kBadEvent,
               "accesses are only valid on collection events");
    return close();
  }
  // Storage that is never released (an unwindowed poset, the access table)
  // fills after 2^18 segments per thread; refuse the event rather than let
  // the append abort. This thread alone inserts, so the room holds.
  if (!poset.has_room(tid) ||
      (body.kind == OpKind::kCollection && !access_table_->has_room(tid))) {
    send_error(ErrorCode::kStorageFull,
               "thread " + std::to_string(tid) +
                   " has no room for another event");
    return close();
  }
  // Nothing is committed yet: commit now if the gate admits the event, or
  // stash a copy until budget frees (retrying a stash repeats no side
  // effects).
  if (!admit()) {
    pending_ = PendingEvent{body, clock};
    return Disposition::kBlocked;
  }
  return commit_event(body, clock);
}

bool SessionCore::admit() {
  // Backpressure: admit against the in-flight interval budget; whichever
  // thread finishes the interval returns the charge via interval_done (a
  // pooled worker, or this thread before commit_event() returns when the
  // interval holds a single state).
  if (gate_->acquire_or_notify(event_cost_, gate_ready_, this)) return true;
  // The owner stops reading this session until the gate's release fires
  // gate_ready_ and retry_pending() wins admission.
  ++result_.submit_stalls;
  return false;
}

SessionCore::Disposition SessionCore::retry_pending() {
  if (state_ == State::kClosed) return Disposition::kClose;
  if (!pending_.has_value()) return Disposition::kContinue;
  if (!admit()) return Disposition::kBlocked;
  const PendingEvent pending = std::move(*pending_);
  pending_.reset();
  return commit_event(pending.body, pending.clock);
}

SessionCore::Disposition SessionCore::commit_event(const EventBody& body,
                                                   const VectorClock& clock) {
  // The wire `object` is never trusted: collection payloads are rebuilt in
  // the session's own AccessTable and the event points at that copy.
  std::uint32_t object = body.object;
  if (body.kind == OpKind::kCollection) {
    AccessSet set;
    for (const AccessRecord& a : body.accesses) {
      set.merge(a.var, a.is_write, a.is_init);
    }
    object = access_table_->append(body.tid, std::move(set));
  }
  const ClockVerdict verdict =
      detector_->try_on_event(body.tid, body.kind, object, clock);
  if (verdict != ClockVerdict::kOk) {
    // Nothing was inserted, so no interval will return the admission
    // charge; an access set appended above stays unreferenced, and the
    // session closes.
    gate_->release(event_cost_);
    send_error(verdict == ClockVerdict::kRegression
                   ? ErrorCode::kClockRegression
                   : ErrorCode::kBadEvent,
               describe(verdict, body.tid,
                        detector_->poset().num_events(body.tid) + 1));
    return close();
  }
  ++events_accepted_;
  return Disposition::kContinue;
}

CountsBody SessionCore::current_counts() {
  CountsBody c;
  c.events = events_accepted_;
  c.states = detector_->states_enumerated();
  c.intervals = detector_->paramount().intervals_processed();
  c.racy_vars = detector_->report().num_racy_vars();
  c.resident_bytes = detector_->poset().heap_bytes();
  c.reclaimed_events = detector_->poset().reclaimed_events();
  c.window_evictions = detector_->window_evictions();
  c.outstanding_pins = detector_->poset().outstanding_pins();
  return c;
}

SessionCore::Disposition SessionCore::handle_poll() {
  const CountsBody counts = current_counts();
  // Refresh the poset-wide gauges before the snapshot so the JSON agrees
  // with the counts (shard 0 only: gauge totals sum over shards, and the
  // submitting thread is shard 0's single writer).
  obs::Telemetry& tel = *telemetry_;
  tel.metrics().set(tel.poset_resident_bytes, 0, counts.resident_bytes);
  tel.metrics().set(tel.poset_reclaimed_events, 0, counts.reclaimed_events);
  tel.metrics().set(tel.window_evictions, 0, counts.window_evictions);
  StatsBody stats;
  stats.counts = counts;
  stats.eviction_alert_threshold = limits_.eviction_alert_threshold;
  stats.eviction_alert = limits_.eviction_alert_threshold > 0 &&
                         counts.window_evictions >=
                             limits_.eviction_alert_threshold;
  stats.metrics_json = tel.snapshot().to_json();
  if (!send_(encode_stats(stats))) return close();
  return Disposition::kContinue;
}

SessionCore::Disposition SessionCore::handle_drain() {
  detector_->drain();
  if (windowed_) detector_->paramount().collect();
  if (!send_(encode_counts(Op::kDrained, current_counts()))) return close();
  return Disposition::kContinue;
}

SessionCore::Disposition SessionCore::handle_shutdown() {
  detector_->drain();
  if (windowed_) detector_->paramount().collect();
  result_.clean_shutdown = true;
  send_(encode_counts(Op::kGoodbye, current_counts()));
  return close();  // always close after Goodbye
}

void SessionCore::send_error(ErrorCode code, const std::string& message) {
  ++result_.protocol_errors;
  send_(encode_error(code, message));
}

SessionCore::Disposition SessionCore::close(Disposition why) {
  state_ = State::kClosed;
  finish();
  return why;
}

void SessionCore::finish() {
  if (finished_) return;
  finished_ = true;
  state_ = State::kClosed;
  // A stashed-but-never-admitted event was never charged or committed;
  // dropping it leaks nothing. Retract any still-queued gate registration
  // too: on a shared tenant gate a dead session's waiter would otherwise
  // consume a wake-up without ever re-acquiring (and a big one at the
  // head of the FIFO would hold up smaller live waiters behind it).
  if (gate_ != nullptr) gate_->cancel(this);
  pending_.reset();
  if (detector_ != nullptr) {
    // Whatever ended the session, retire in-flight intervals: drain() waits
    // for every queued enumeration (each releases its EnumGuard pin), and —
    // when window GC is on — a final collect() folds the settled prefix back
    // to the watermark. Unwindowed sessions never reclaim: reclaimed_events
    // stays 0, which the oracle tests rely on.
    detector_->drain();
    if (windowed_) detector_->paramount().collect();
    result_.counts = current_counts();
    for (const RaceFinding& f : detector_->report().findings()) {
      result_.racy_vars.push_back(f.var);
    }
  }
}

}  // namespace paramount::service
