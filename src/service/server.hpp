// ParamountServer: the long-lived paramountd core — accepts Unix-domain
// connections and runs one Session per client on its own thread.
//
// Lifecycle: start() binds the socket and spawns the accept thread; stop()
// shuts the listener down, half-closes every live connection (which
// unblocks the session threads' reads; each session then drains and
// releases its pins), and joins everything. Sessions over --max-sessions
// are answered with Error(session-limit) and closed without ever touching
// the enumeration machinery.
//
// The aggregated ServerStats are how the tests prove the teardown
// invariants: leaked_pins sums every finished session's final
// outstanding_pins (must be 0 — an EnumGuard that survives its session
// would pin the watermark forever), and last_session carries the final
// exact counts for differential comparison against the offline oracle.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/channel.hpp"
#include "service/session.hpp"
#include "util/sync.hpp"

namespace paramount::service {

struct ServerStats {
  std::uint64_t connections_accepted = 0;  // accept() successes (= sessions
                                           // here; > sessions when an epoll
                                           // connection multiplexes streams)
  std::uint64_t sessions_accepted = 0;
  std::uint64_t sessions_completed = 0;
  // Admission refusals over --max-sessions. Deliberately NOT counted as
  // protocol_errors: the client spoke the protocol correctly and the server
  // turned it away — conflating the two made "protocol_errors: 0" useless
  // as a client-correctness check whenever the limiter engaged.
  std::uint64_t sessions_rejected = 0;
  std::uint64_t clean_shutdowns = 0;     // ended via Shutdown/Goodbye
  std::uint64_t protocol_errors = 0;     // in-session Error frames sent
  std::uint64_t frames = 0;              // well-formed frames handled
  std::uint64_t leaked_pins = 0;         // sum of final outstanding_pins
  std::uint64_t submit_stalls = 0;       // backpressure engagements, summed
  CountsBody last_session;               // final counts of the last session
  std::vector<VarId> last_racy_vars;     // last session's race-report vars
};

class ParamountServer {
 public:
  struct Options {
    std::string socket_path;
    std::uint32_t max_sessions = 8;       // concurrent session ceiling
    std::size_t submit_budget_bytes = 0;  // per-session SubmitGate (0 = off)
    std::uint64_t eviction_alert_threshold = 0;  // Stats alert (0 = off)
    int backlog = 16;
  };

  explicit ParamountServer(Options options) : options_(std::move(options)) {}
  ~ParamountServer() { stop(); }

  ParamountServer(const ParamountServer&) = delete;
  ParamountServer& operator=(const ParamountServer&) = delete;

  // Binds and starts accepting. Returns false with *error on bind failure;
  // *why carries the typed listen_unix reason (kLiveListener when another
  // daemon already owns the socket — paramountd exits 3 on it, for either
  // front end).
  bool start(std::string* error, ListenUnixError* why = nullptr);

  // Idempotent: stops accepting, unblocks and joins every session thread
  // (one still lingering over its closed session ends within
  // kLingerTimeout).
  void stop();

  const std::string& socket_path() const { return options_.socket_path; }

  ServerStats stats() const;

  // Blocks until at least `n` sessions have completed (or the timeout
  // expires; returns false then). The tests' sanctioned alternative to
  // sleep-polling the stats.
  bool wait_sessions_completed(std::uint64_t n,
                               std::chrono::milliseconds timeout) const;

  // Number of std::thread handles the server currently retains (live
  // sessions plus not-yet-reaped finished ones). The regression probe for
  // the handle leak: the pre-fix server kept one joinable handle per
  // session ever accepted, so a long-lived daemon's vector grew without
  // bound; post-fix this stays within live_sessions + O(1).
  std::size_t session_thread_handles() const;

 private:
  void accept_loop();
  void run_session(std::uint64_t session_id, UniqueFd fd);

  Options options_;
  UniqueFd listener_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> next_session_id_{1};

  mutable Mutex mutex_;
  mutable CondVar stats_cv_;
  ServerStats stats_ PM_GUARDED_BY(mutex_);
  std::uint64_t live_sessions_ PM_GUARDED_BY(mutex_) = 0;
  // fds of live sessions, for stop() to half-close; a session removes its
  // entry (under mutex_) before its channel closes the fd, so the shutdown
  // in stop() can never hit a recycled descriptor.
  std::vector<int> live_fds_ PM_GUARDED_BY(mutex_);
  // Thread handles, keyed by session id while the session runs. A finishing
  // session moves its own handle (which it cannot join) to
  // finished_threads_ and joins the handles parked there by earlier
  // sessions — so the retained-handle count tracks the live-session count
  // instead of the accepted-session count. stop() joins whatever is left.
  std::unordered_map<std::uint64_t, std::thread> session_threads_
      PM_GUARDED_BY(mutex_);
  std::vector<std::thread> finished_threads_ PM_GUARDED_BY(mutex_);
};

}  // namespace paramount::service
