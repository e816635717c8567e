// EpollServer: paramountd's front end. One reactor thread runs every
// connection: non-blocking FrameChannels, sessions as readiness-driven
// SessionCore state machines, interval work still handed to each
// detector's thread pool. The v2 frame header's stream id lets one
// connection carry many logical sessions — a fleet-wide collector can
// multiplex thousands of enumeration streams over a few sockets.
//
// Listener: Unix path or TCP ("tcp:HOST:PORT"), same wire protocol either
// way — the oracle-differential tests run bit-identical over both.
//
// Backpressure without blocking the loop: a session whose submit budget is
// full returns kBlocked with the event stashed; the connection's reads are
// disarmed and the SubmitGate's release wakes the loop (post) to retry.
// With Options::tenant_budget_bytes set, sessions sharing a Hello tenant_id
// share one gate — a flooding tenant stalls its own streams, not the
// daemon. Per-connection read quanta (kReadQuantum frames per readiness
// dispatch) keep one hot connection from starving the rest, which is what
// holds p99 Poll latency flat as idle-session count grows. Frames are
// dispatched straight from each FrameChannel's read buffer; epoll does not
// fire for those bytes, so a quantum that ends with frames still buffered
// posts its connection's next read, and a gate-blocked connection resumes
// its buffered frames as soon as the gate admits it.
//
// Close semantics per stream: stream 0 is the plain
// one-session-per-connection client, so its session's end closes the
// connection — a Goodbye, an Error, or a session-limit refusal alike.
// Sessions on nonzero streams come and go while the connection stays up.
// A frame the connection cannot read (truncated, or an oversized length
// prefix) ends every session on it with a typed Error; with no session
// open, the Error goes out on stream 0. Buffered replies are flushed via
// EPOLLOUT before the close happens, and the close itself lingers (see
// kLingerTimeout) so the peer reads them before EOF.
//
// The aggregated ServerStats are how the tests prove the teardown
// invariants: leaked_pins sums every finished session's final
// outstanding_pins (must be 0 — an EnumGuard that survives its session
// would pin the watermark forever), and last_session carries the final
// exact counts for differential comparison against the offline oracle.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "service/channel.hpp"
#include "service/event_loop.hpp"
#include "service/session.hpp"
#include "util/submit_gate.hpp"
#include "util/sync.hpp"

namespace paramount::service {

struct ServerStats {
  std::uint64_t connections_accepted = 0;  // accept() successes (fewer than
                                           // sessions when a connection
                                           // multiplexes streams)
  std::uint64_t sessions_accepted = 0;
  std::uint64_t sessions_completed = 0;
  // Admission refusals over --max-sessions. Deliberately NOT counted as
  // protocol_errors: the client spoke the protocol correctly and the server
  // turned it away — conflating the two made "protocol_errors: 0" useless
  // as a client-correctness check whenever the limiter engaged.
  std::uint64_t sessions_rejected = 0;
  std::uint64_t clean_shutdowns = 0;     // ended via Shutdown/Goodbye
  std::uint64_t protocol_errors = 0;     // Error frames sent, refusals aside
  std::uint64_t frames = 0;              // well-formed frames handled
  std::uint64_t leaked_pins = 0;         // sum of final outstanding_pins
  std::uint64_t submit_stalls = 0;       // backpressure engagements, summed
  // Transport: recv calls made to read frames and the bytes they brought,
  // summed over connections as each closes, and returns from the reactor's
  // epoll_wait, as of the last connection close or stop().
  std::uint64_t recv_calls = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t reactor_wakes = 0;
  CountsBody last_session;               // final counts of the last session
  std::vector<VarId> last_racy_vars;     // last session's race-report vars
};

class EpollServer {
 public:
  struct Options {
    Endpoint endpoint;
    std::uint32_t max_sessions = 1024;    // live streams, across connections
    std::size_t submit_budget_bytes = 0;  // per-session gate (0 = off)
    // Nonzero switches admission to shared per-tenant gates of this budget
    // (sessions grouped by Hello::tenant_id).
    std::size_t tenant_budget_bytes = 0;
    std::uint64_t eviction_alert_threshold = 0;  // Stats alert (0 = off)
    int backlog = 128;
  };

  explicit EpollServer(Options options) : options_(std::move(options)) {}
  ~EpollServer() { stop(); }

  EpollServer(const EpollServer&) = delete;
  EpollServer& operator=(const EpollServer&) = delete;

  // Binds, starts the reactor thread. Returns false with *error on failure;
  // *why carries the typed listen_unix reason (kLiveListener when another
  // daemon already owns the Unix socket — paramountd exits 3 on it).
  bool start(std::string* error, ListenUnixError* why = nullptr);

  // Idempotent: stops the loop, finishes every live session (draining
  // detectors, releasing pins), closes every connection.
  void stop();

  // The bound TCP port (resolves port 0 for tests/bench); 0 for Unix.
  std::uint16_t tcp_port() const { return tcp_port_; }

  ServerStats stats() const;

  // Blocks until at least `n` sessions have completed (or the timeout
  // expires; returns false then). The tests' sanctioned alternative to
  // sleep-polling the stats.
  bool wait_sessions_completed(std::uint64_t n,
                               std::chrono::milliseconds timeout) const;

 private:
  // All Connection state is loop-thread-only (stop() touches it only after
  // joining the loop thread).
  struct Connection {
    explicit Connection(UniqueFd fd) : channel(std::move(fd)) {}
    FrameChannel channel;
    std::unordered_map<std::uint32_t, std::unique_ptr<SessionCore>> streams;
    // Streams refused at --max-sessions: the typed Error went out once;
    // later frames for them are dropped silently instead of re-erroring.
    std::unordered_set<std::uint32_t> rejected_streams;
    // Nonzero iff a stream's submission is gate-blocked: reads stay
    // disarmed until retry_pending() wins admission.
    bool blocked = false;
    std::uint32_t blocked_stream = 0;
    bool close_after_flush = false;  // connection ending; drain then close
    // The interest set registered with the loop (update_interest skips the
    // epoll_ctl when it would not change).
    std::uint32_t interest = EventLoop::kReadable;
    // A posted read_quantum is pending for frames left in the read buffer.
    bool read_scheduled = false;
  };

  // A torn-down connection in its lingering close: write side half-closed,
  // input discarded on readability until the peer's EOF or the discard cap,
  // or until `timer` (a timerfd armed to kLingerTimeout) fires.
  struct Lingering {
    FrameChannel channel;
    UniqueFd timer;
    std::size_t discarded = 0;
  };

  // Frames drained per readiness dispatch before yielding to other
  // connections — the fairness quantum.
  static constexpr int kReadQuantum = 64;

  // Ceiling on rejected_streams per connection. Re-rejecting is cheap but
  // the tracking set is not free: a client at --max-sessions spraying
  // frames across distinct stream ids would otherwise grow it (one entry +
  // one Error frame per id) without bound from a single connection. A
  // legitimate multiplexer backs off after a handful of refusals; past the
  // cap the connection is closed.
  static constexpr std::size_t kMaxRejectedStreams = 32;

  void loop_main();
  void on_acceptable();
  void on_connection_ready(std::uint64_t conn_id, std::uint32_t ready);
  void read_quantum(const std::shared_ptr<Connection>& conn,
                    std::uint64_t conn_id);
  // Posts a read of frames already in the connection's read buffer, which
  // level-triggered epoll does not signal.
  void schedule_read(std::uint64_t conn_id, Connection& conn);
  // Routes one decoded-enough frame (payload + stream id); returns false
  // when the connection must be torn down.
  bool dispatch_frame(const std::shared_ptr<Connection>& conn,
                      std::uint64_t conn_id, std::uint32_t stream_id,
                      std::span<const std::uint8_t> payload);
  SessionCore* open_stream(const std::shared_ptr<Connection>& conn,
                           std::uint64_t conn_id, std::uint32_t stream_id);
  // Tears the connection down once its buffered replies are written: now,
  // or after EPOLLOUT drains them.
  void close_when_flushed(std::uint64_t conn_id, Connection& conn);
  void finish_stream(Connection& conn, std::uint32_t stream_id);
  void finish_session(SessionCore& core);
  void update_interest(std::uint64_t conn_id, Connection& conn);
  void teardown(std::uint64_t conn_id, ReadStatus why);
  void linger(FrameChannel channel);
  void end_linger(int fd);
  void retry_blocked(std::uint64_t conn_id);
  std::shared_ptr<SubmitGate> gate_for(const HelloBody& hello);

  Options options_;
  UniqueFd listener_;
  std::uint16_t tcp_port_ = 0;
  std::string bound_unix_path_;  // unlinked on stop
  std::unique_ptr<EventLoop> loop_;
  std::thread loop_thread_;
  bool started_ = false;

  // Loop-thread-only:
  std::unordered_map<std::uint64_t, std::shared_ptr<Connection>> connections_;
  std::unordered_map<int, std::uint64_t> conn_by_fd_;
  std::unordered_map<std::uint32_t, std::weak_ptr<SubmitGate>> tenant_gates_;
  std::unordered_map<int, Lingering> lingering_;  // keyed by socket fd
  std::uint64_t next_conn_id_ = 1;
  std::uint64_t next_session_id_ = 1;
  std::uint64_t live_sessions_ = 0;

  mutable Mutex stats_mutex_;
  mutable CondVar stats_cv_;
  ServerStats stats_ PM_GUARDED_BY(stats_mutex_);
};

}  // namespace paramount::service
