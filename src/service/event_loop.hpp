// A minimal epoll reactor for the paramountd front end.
//
// One thread calls run(); fds are registered with a callback receiving the
// ready-event bits (level-triggered, so a callback that leaves data unread
// in the kernel is re-invoked on the next wait — the natural shape for
// per-connection read quanta and for pausing reads under submit
// backpressure; data it already read into its own buffer is its own to
// come back to, through post()). Other
// threads talk to the loop exclusively through post(), which enqueues a
// closure and wakes the loop via an eventfd; everything else (add/modify/
// remove, the handler table, all Connection state in the server above) is
// loop-thread-only and needs no locks.
//
// This is deliberately the ltsmin/hre-io shape: a flat fd → handler table
// and a wake pipe, not a futures framework. The server built on top owns
// all protocol state; the loop only turns readiness into calls.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/channel.hpp"
#include "util/sync.hpp"

namespace paramount::service {

class EventLoop {
 public:
  // Ready-bit mask passed to handlers. EPOLLERR / EPOLLHUP are folded into
  // kReadable — the subsequent read reports the precise failure, so the
  // common read path needs only one error branch — AND surfaced as
  // kHangup, because epoll reports them even for an fd whose interest was
  // dropped to 0 (they are level-triggered and unmaskable). A handler that
  // is deliberately not reading (a gate-blocked connection) must check
  // kHangup and tear the fd down, or the dead peer re-fires the event
  // forever and the loop busy-spins.
  static constexpr std::uint32_t kReadable = 1u << 0;
  static constexpr std::uint32_t kWritable = 1u << 1;
  static constexpr std::uint32_t kHangup = 1u << 2;

  using Handler = std::function<void(std::uint32_t ready)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // True iff epoll + eventfd came up; error() explains when not.
  bool valid() const { return epoll_.valid() && wake_.valid(); }
  const std::string& error() const { return error_; }

  // Loop-thread-only (or before run() starts):
  bool add(int fd, std::uint32_t interest, Handler handler);
  bool modify(int fd, std::uint32_t interest);
  void remove(int fd);
  bool watched(int fd) const { return handlers_.count(fd) != 0; }

  // Thread-safe: runs `task` on the loop thread at the next wake-up.
  void post(std::function<void()> task);

  // Runs until stop(); dispatches readiness and posted tasks.
  void run();

  // Thread-safe, idempotent: makes run() return after the current batch.
  void stop();

  // How many times run()'s epoll_wait has returned (EINTR aside), each
  // return one reactor wake-up. Loop-thread-only, or after run() returned.
  std::uint64_t wakes() const { return wakes_; }

 private:
  static std::uint32_t to_epoll(std::uint32_t interest);
  void drain_wake_and_run_posted();

  UniqueFd epoll_;
  UniqueFd wake_;  // eventfd: post()/stop() wake-up
  std::string error_;
  std::unordered_map<int, Handler> handlers_;  // loop-thread-only
  std::uint64_t wakes_ = 0;                    // loop-thread-only

  // relaxed would suffice for the flag alone, but posted-task visibility
  // rides on the mutex below; keep the default ordering for clarity.
  std::atomic<bool> stopping_{false};

  Mutex post_mutex_;
  std::vector<std::function<void()>> posted_ PM_GUARDED_BY(post_mutex_);
};

}  // namespace paramount::service
