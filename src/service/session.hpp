// One paramountd client session: the frame-level state machine that turns an
// event stream into OnlineRaceDetector submissions.
//
// States: AwaitHello → Streaming → Closed. Every input byte is untrusted:
// decode errors and semantic violations (bad tid, clock regression,
// references to unpublished events, an event no storage has room for) are
// answered with a typed Error frame and a clean close, so no byte stream
// can reach an abort. The frame-level checks run here; the clock itself is
// checked once, by the pass of OnlinePoset::try_append (the insert core),
// whose verdict the session turns into the Error. Whatever way a session ends
// (Shutdown handshake, plain EOF, a protocol error, or the peer dying
// mid-frame), finish() drains in-flight intervals and runs a final
// collect(), so every EnumGuard pin is released and the final counts are
// exact.
//
// SessionCore is transport-free: it consumes decoded payloads and emits
// reply frames through a send callback. EpollServer drives one SessionCore
// per multiplexed stream. Submit backpressure never blocks: a full submit
// budget returns kBlocked with the event stashed, the gate's release wakes
// the reactor, which calls retry_pending() and resumes reading that
// connection.
//
// A single thread (the reactor) feeds any given SessionCore, so the core's
// Telemetry holds one shard for that thread, whatever the session's thread
// count, and one per pooled enumeration worker above it (1 + async_workers
// shards; OnlineParamount::Options::single_submitter) — the
// single-writer-per-shard contract holds with one Telemetry per session.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "detect/online_detector.hpp"
#include "obs/telemetry.hpp"
#include "service/channel.hpp"
#include "service/frame.hpp"
#include "util/submit_gate.hpp"

namespace paramount::service {

// Per-event budget charged against the submit gate: a conservative estimate
// of what one queued interval holds resident (event + clock + task).
std::size_t event_cost_bytes(std::size_t num_threads);

// The typed Error a failed frame read is answered with: truncated and
// oversized frames get one; EOF and socket errors end without a reply.
std::optional<ErrorBody> transport_error(ReadStatus status);

class SessionCore {
 public:
  struct Limits {
    std::uint32_t max_threads = 512;    // Hello::num_threads ceiling
    std::uint32_t max_workers = 64;     // Hello::async_workers ceiling
    // Stats replies flag eviction_alert once window_evictions reaches this
    // (0 = alerting off); the daemon's --eviction-alert flag.
    std::uint64_t eviction_alert_threshold = 0;
  };

  struct Result {
    CountsBody counts;           // final, exact (post-drain) counts
    std::vector<VarId> racy_vars;  // sorted; the exact race-report var set
    std::uint64_t frames = 0;    // well-formed frames handled
    std::uint64_t protocol_errors = 0;  // Error frames sent
    std::uint64_t submit_stalls = 0;  // submissions that had to wait
    bool hello_seen = false;
    bool clean_shutdown = false;  // ended via the Shutdown/Goodbye handshake
  };

  // What the caller must do next after feeding the core.
  enum class Disposition {
    kContinue,  // keep reading
    kClose,     // session over (Goodbye sent, Error sent, or transport dead)
    kBlocked,   // submit budget full: event stashed; stop reading this
                // session and call retry_pending() after on_gate_ready fires
  };

  // Emits one reply frame; returns false when the transport is dead (the
  // core then treats the session as closed). The callback owns framing —
  // the core never sees a socket.
  using SendFn = std::function<bool(std::span<const std::uint8_t>)>;

  // Supplies the submit gate once Hello arrives (sessions of the same
  // tenant may share one gate). Null → an unbounded private gate.
  using GateProvider =
      std::function<std::shared_ptr<SubmitGate>(const HelloBody&)>;

  SessionCore(std::uint64_t session_id, Limits limits, SendFn send)
      : session_id_(session_id), limits_(limits), send_(std::move(send)) {}

  SessionCore(const SessionCore&) = delete;
  SessionCore& operator=(const SessionCore&) = delete;

  // Optional hooks, set before the first payload:
  void set_gate_provider(GateProvider provider) {
    gate_provider_ = std::move(provider);
  }
  // Invoked (from SubmitGate::release, any thread) when budget may have
  // freed after a kBlocked; the owner schedules retry_pending().
  void set_gate_ready(std::function<void()> on_ready) {
    gate_ready_ = std::move(on_ready);
  }

  std::uint64_t session_id() const { return session_id_; }

  // Feeds one frame payload (undecoded bytes; the core decodes). Never
  // throws, never aborts on malformed input.
  Disposition on_payload(std::span<const std::uint8_t> payload);

  // Ends the session on a failed frame read: the transport_error() reply,
  // if any, then close. Call only with a status that ends the connection
  // (not kFrame or kWouldBlock).
  Disposition on_transport_status(ReadStatus status);

  // Re-attempts the stashed event after a kBlocked. Returns kBlocked again
  // if the budget is still full (the gate callback re-queues), kContinue
  // once submitted.
  Disposition retry_pending();

  // Drains the detector, runs a final collect(), and seals result().
  // Idempotent; called automatically when the protocol closes the session,
  // and by owners on teardown/disconnect.
  void finish();

  const Result& result() const { return result_; }

  // The session's metrics and (empty) span tracer; null before Hello.
  const obs::Telemetry* telemetry() const { return telemetry_.get(); }

 private:
  enum class State { kAwaitHello, kStreaming, kClosed };

  // An event waiting on submit budget, copied out of the frame scratch:
  // clock reconstructed and the frame checked, but nothing committed (the
  // clock is checked at commit) — retry is idempotent.
  struct PendingEvent {
    EventBody body;
    VectorClock clock;
  };

  // Frame handlers; each returns the next disposition.
  Disposition handle_frame(const DecodedFrame& frame);
  Disposition handle_hello(const HelloBody& body);
  Disposition handle_event(const EventBody& body);
  Disposition handle_poll();
  Disposition handle_drain();
  Disposition handle_shutdown();

  // Charges one event against the gate; false (a stall, counted) when the
  // event must wait for gate_ready_.
  bool admit();
  // The post-admission half: access-table append and the detector's
  // insert, which checks the clock; a defective clock returns the
  // admission charge and closes with the typed Error.
  Disposition commit_event(const EventBody& body, const VectorClock& clock);

  // Sends a typed Error frame (best effort) and counts it.
  void send_error(ErrorCode code, const std::string& message);

  Disposition close(Disposition why = Disposition::kClose);

  CountsBody current_counts();

  const std::uint64_t session_id_;
  const Limits limits_;
  SendFn send_;
  GateProvider gate_provider_;
  std::function<void()> gate_ready_;

  State state_ = State::kAwaitHello;
  Result result_;
  bool finished_ = false;

  // Established by Hello:
  std::uint32_t num_threads_ = 0;
  bool windowed_ = false;  // gc_every or window_bytes set: collect on drain
  std::size_t event_cost_ = 0;
  std::unique_ptr<obs::Telemetry> telemetry_;
  std::unique_ptr<AccessTable> access_table_;
  std::shared_ptr<SubmitGate> gate_;
  std::unique_ptr<OnlineRaceDetector> detector_;
  std::uint64_t events_accepted_ = 0;
  std::optional<PendingEvent> pending_;
};

}  // namespace paramount::service
