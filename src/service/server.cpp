#include "service/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <iterator>
#include <utility>

namespace paramount::service {

bool ParamountServer::start(std::string* error, ListenUnixError* why) {
  listener_ = listen_unix(options_.socket_path, options_.backlog, error, why);
  if (!listener_.valid()) return false;
  // relaxed: stopping_ is a plain shutdown flag; the accept thread is
  // unblocked by the listener shutdown() syscall, not by this store, so no
  // ordering beyond the flag value itself is needed.
  stopping_.store(false, std::memory_order_relaxed);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void ParamountServer::stop() {
  if (!accept_thread_.joinable()) return;
  // relaxed: see start() — the shutdown() below is the real wake-up; the
  // flag only tells the woken accept loop why accept() failed.
  stopping_.store(true, std::memory_order_relaxed);
  // Unblock accept(); closing alone does not wake a blocked accept on all
  // kernels, shutdown does.
  ::shutdown(listener_.get(), SHUT_RDWR);
  accept_thread_.join();
  listener_.reset();
  ::unlink(options_.socket_path.c_str());
  // Half-close every live connection so its session thread's read returns,
  // then wait for the sessions to finish (each drains its detector and
  // releases its pins on the way out) and join whatever handles remain —
  // running sessions still park their handle in finished_threads_ on the
  // way out, so once live_sessions_ hits 0 the keyed map is empty.
  std::vector<std::thread> threads;
  {
    MutexLock lock(mutex_);
    for (const int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
    while (live_sessions_ != 0) stats_cv_.wait(mutex_);
    for (auto& [id, t] : session_threads_) threads.push_back(std::move(t));
    session_threads_.clear();
    threads.insert(threads.end(),
                   std::make_move_iterator(finished_threads_.begin()),
                   std::make_move_iterator(finished_threads_.end()));
    finished_threads_.clear();
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

void ParamountServer::accept_loop() {
  // relaxed: both loads below only consult the flag after a syscall
  // (accept) returns; a stale read costs one extra loop iteration at most.
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int raw = ::accept(listener_.get(), nullptr, nullptr);
    if (raw < 0) {
      if (errno == EINTR) continue;
      // Listener was shut down (stop()) or is otherwise unusable.
      return;
    }
    UniqueFd fd(raw);
    if (stopping_.load(std::memory_order_relaxed)) return;

    bool admit = false;
    {
      MutexLock lock(mutex_);
      ++stats_.connections_accepted;
      ++stats_.sessions_accepted;
      if (live_sessions_ < options_.max_sessions) {
        admit = true;
        ++live_sessions_;
        live_fds_.push_back(fd.get());
      } else {
        // Rejection is an admission event, not a protocol violation — the
        // client's frames were well-formed. protocol_errors stays untouched
        // (it once double-counted here, which broke "protocol_errors: 0" as
        // a correctness signal under load shedding).
        ++stats_.sessions_rejected;
      }
    }
    if (!admit) {
      FrameChannel channel(std::move(fd));
      channel.write_frame(encode_error(
          ErrorCode::kSessionLimit,
          "server at --max-sessions=" + std::to_string(options_.max_sessions)));
      continue;  // channel destructor closes the connection
    }
    // relaxed: session ids only need uniqueness, not ordering.
    const std::uint64_t id =
        next_session_id_.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(mutex_);
    // Construct-and-insert under the lock: the new thread's own unregister
    // path takes this mutex, so its map entry is in place before the
    // session can try to move it out.
    session_threads_.emplace(
        id, std::thread([this, id, raw = fd.release()] {
          run_session(id, UniqueFd(raw));
        }));
  }
}

void ParamountServer::run_session(std::uint64_t session_id, UniqueFd fd) {
  const int raw = fd.get();
  Session::Limits limits;
  limits.submit_budget_bytes = options_.submit_budget_bytes;
  limits.eviction_alert_threshold = options_.eviction_alert_threshold;
  Session session(FrameChannel(std::move(fd)), session_id, limits);
  const Session::Result result = session.run();
  std::vector<std::thread> reap;
  {
    MutexLock lock(mutex_);
    // Unregister before the session (and its fd) is destroyed on return, so
    // stop() never shutdowns a recycled descriptor.
    live_fds_.erase(std::find(live_fds_.begin(), live_fds_.end(), raw));
    // This thread cannot join itself: park the handle for a successor (or
    // stop()) and reap every handle parked before it — those threads have
    // already passed this point, so each join returns almost immediately.
    auto self = session_threads_.find(session_id);
    if (self != session_threads_.end()) {
      if (!finished_threads_.empty()) {
        reap.assign(std::make_move_iterator(finished_threads_.begin()),
                    std::make_move_iterator(finished_threads_.end()));
        finished_threads_.clear();
      }
      finished_threads_.push_back(std::move(self->second));
      session_threads_.erase(self);
    }
    --live_sessions_;
    ++stats_.sessions_completed;
    if (result.clean_shutdown) ++stats_.clean_shutdowns;
    stats_.protocol_errors += result.protocol_errors;
    stats_.frames += result.frames;
    stats_.leaked_pins += result.counts.outstanding_pins;
    stats_.submit_stalls += result.submit_stalls;
    if (result.hello_seen) {
      stats_.last_session = result.counts;
      stats_.last_racy_vars = result.racy_vars;
    }
    stats_cv_.notify_all();
  }
  // The session is already counted complete; lingering only holds this
  // thread and its fd until the peer's EOF or the linger bound.
  session.close_lingering();
  for (std::thread& t : reap) {
    if (t.joinable()) t.join();
  }
}

std::size_t ParamountServer::session_thread_handles() const {
  MutexLock lock(mutex_);
  return session_threads_.size() + finished_threads_.size();
}

ServerStats ParamountServer::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

bool ParamountServer::wait_sessions_completed(
    std::uint64_t n, std::chrono::milliseconds timeout) const {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(mutex_);
  while (stats_.sessions_completed < n) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    stats_cv_.wait_for(
        mutex_, std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - now));
  }
  return true;
}

}  // namespace paramount::service
