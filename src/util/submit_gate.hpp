// Byte-budget admission gate for producer → worker-pool handoffs.
//
// The sliding-window GC bounds the *poset*, but in pooled online mode the
// submit queue itself can become the resident-memory driver — a client
// streaming events faster than the enumeration workers retire them grows
// the ThreadPool's task queue without bound. The gate charges a byte cost
// per submission and refuses admission once the in-flight total would
// exceed the budget, so paramountd's reactor stops reading that connection
// and the *client* absorbs the backlog instead of the server ballooning.
//
// Admission rule: a request is admitted when it fits the budget, or when
// nothing is in flight (an oversized single item must still make progress —
// the classic bounded-queue passage rule, so budget < item size degrades to
// serial execution rather than deadlock). Budget 0 disables the gate.
//
// The gate never blocks: when admission fails, acquire_or_notify() queues a
// one-shot callback fired on a later release() — the reactor's "pause this
// connection's reads, resume when quota frees" hook. One gate may be shared
// by many sessions (per-tenant quotas); released budget wakes queued
// notifiers FIFO-first.
//
// A queued notifier only ever RE-ATTEMPTS admission — it may not win, and
// (when its session died between queueing and firing) it may not even try.
// release() therefore wakes every FIFO-prefix waiter that currently fits
// rather than exactly one: a single wake handed to a waiter that never
// re-acquires would otherwise be lost, stranding the waiters behind it
// forever once nothing is left in flight to trigger another release.
// Owners should still cancel() their queued waiter on teardown so dead
// sessions don't sit at the head of the queue blocking bigger releases.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/sync.hpp"

namespace paramount {

class SubmitGate {
 public:
  explicit SubmitGate(std::size_t budget_bytes) : budget_(budget_bytes) {}

  SubmitGate(const SubmitGate&) = delete;
  SubmitGate& operator=(const SubmitGate&) = delete;

  // Charges and returns true if `bytes` is admissible now; otherwise queues
  // a copy of `notify` (FIFO; an admitted request copies nothing) to be
  // invoked exactly once after a release() frees enough budget for it, and
  // returns false WITHOUT charging. Every charge must be paired with
  // exactly one release of the same size once the work retires. The
  // callback re-attempts admission itself (capacity may have been taken
  // again by the time it runs); it is invoked outside the gate lock.
  // `owner` tags the queued waiter for cancel() — pass the session (or any
  // stable address) that would re-attempt, so its teardown can retract the
  // registration.
  bool acquire_or_notify(std::size_t bytes,
                         const std::function<void()>& notify,
                         const void* owner = nullptr) {
    if (budget_ == 0) return true;
    MutexLock lock(mutex_);
    if (in_flight_ == 0 || in_flight_ + bytes <= budget_) {
      in_flight_ += bytes;
      return true;
    }
    waiters_.push_back({bytes, notify, owner});
    return false;
  }

  // Drops every queued waiter tagged with `owner` without invoking it.
  // Owners MUST call this on teardown after a refused acquire_or_notify:
  // a dead waiter left queued never re-acquires, and while the cascading
  // release() keeps it from stranding waiters behind it, a big dead waiter
  // at the head would still gate smaller releases until in-flight hits 0.
  // A notify already popped by a concurrent release() may still run after
  // cancel() returns; it must no-op safely (the epoll server's does — the
  // posted retry finds the connection gone).
  void cancel(const void* owner) {
    if (budget_ == 0 || owner == nullptr) return;
    MutexLock lock(mutex_);
    for (auto it = waiters_.begin(); it != waiters_.end();) {
      it = it->owner == owner ? waiters_.erase(it) : std::next(it);
    }
  }

  // Returns budget charged by a completed submission and wakes queued
  // notifiers by popping every FIFO-prefix entry that now fits (stop at the
  // first that does not — head-of-line order keeps one big waiter from
  // starving). Cascading over the whole fitting prefix (not just the head)
  // is what makes a wake handed to a waiter that never re-acquires — a
  // session torn down with its registration still queued — harmless: the
  // waiters behind it were woken too, and when the last charge retires the
  // in_flight_ == 0 arm drains the entire queue.
  void release(std::size_t bytes) {
    if (budget_ == 0) return;
    std::vector<std::function<void()>> ready;
    {
      MutexLock lock(mutex_);
      PM_CHECK_MSG(bytes <= in_flight_, "SubmitGate release exceeds charge");
      in_flight_ -= bytes;
      while (!waiters_.empty() &&
             (in_flight_ == 0 ||
              in_flight_ + waiters_.front().bytes <= budget_)) {
        ready.push_back(std::move(waiters_.front().notify));
        waiters_.pop_front();
      }
    }
    for (std::function<void()>& fn : ready) fn();
  }

  std::size_t in_flight_bytes() const {
    if (budget_ == 0) return 0;
    MutexLock lock(mutex_);
    return in_flight_;
  }

 private:
  struct Waiter {
    std::size_t bytes;
    std::function<void()> notify;
    const void* owner;  // cancel() key; null = uncancellable
  };

  const std::size_t budget_;  // immutable after construction; 0 = unbounded
  mutable Mutex mutex_;
  std::size_t in_flight_ PM_GUARDED_BY(mutex_) = 0;
  std::deque<Waiter> waiters_ PM_GUARDED_BY(mutex_);
};

}  // namespace paramount
