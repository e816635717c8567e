// SyntheticEventStream: an unbounded, online-generated event stream for
// long-run monitoring experiments (the 1M-event bounded-memory smoke runs).
//
// Unlike make_random_poset, nothing is materialized up front: per-thread and
// per-lock clocks are rolled forward with Algorithm 3 (ClockEngine) and each
// next() yields one ready-to-submit event — so the generator itself runs in
// O(num_threads) memory regardless of how many events are drawn, and the
// poset under test is the only thing whose footprint the experiment
// measures.
//
// Threads take turns round-robin (every thread keeps producing, which lets
// the sliding-window watermark advance); each event is a lock synchronization
// with probability sync_probability (joining the thread's clock with a
// uniformly chosen lock's clock) and a local step otherwise.
#pragma once

#include <cstdint>

#include "poset/clock_engine.hpp"
#include "poset/event.hpp"
#include "poset/vector_clock.hpp"
#include "util/rng.hpp"

namespace paramount {

class SyntheticEventStream {
 public:
  struct Params {
    std::size_t num_threads = 8;
    std::size_t num_locks = 4;
    double sync_probability = 0.2;
    std::uint64_t seed = 1;
  };

  struct StreamEvent {
    ThreadId tid;
    OpKind kind;
    std::uint32_t object;  // lock id for kAcquire, 0 for kInternal
    VectorClock clock;
  };

  explicit SyntheticEventStream(Params params)
      : params_(params), rng_(params.seed), engine_(params.num_threads) {
    PM_CHECK(params.num_threads > 0);
    PM_CHECK(params.num_locks > 0);
  }

  std::size_t num_threads() const { return params_.num_threads; }

  // Generates the next event of the stream (round-robin over threads).
  StreamEvent next() {
    const ThreadId tid = next_tid_;
    next_tid_ = static_cast<ThreadId>((next_tid_ + 1) % params_.num_threads);

    StreamEvent ev;
    ev.tid = tid;
    if (rng_.next_double() < params_.sync_probability) {
      const auto lock =
          static_cast<std::uint32_t>(rng_.next_below(params_.num_locks));
      ev.kind = OpKind::kAcquire;
      ev.object = lock;
      engine_.sync_step(tid, lock, &ev.clock);
    } else {
      ev.kind = OpKind::kInternal;
      ev.object = 0;
      engine_.local_step(tid, &ev.clock);
    }
    return ev;
  }

 private:
  Params params_;
  Rng rng_;
  ThreadId next_tid_ = 0;
  ClockEngine engine_;
};

}  // namespace paramount
