// Online ParaMount (Algorithm 4 of the paper).
//
// Events stream in while the monitored program runs. Each submission inserts
// the event into the concurrently readable OnlinePoset (the atomic block of
// Algorithm 4: →p = insertion order, Gmin = the event's clock, Gbnd = a
// snapshot of the maximal frontier), then enumerates the interval I(e) with
// the bounded subroutine. By Theorem 3 the enumeration may run concurrently
// with further insertions, so multiple intervals are processed in parallel.
//
// Two execution modes:
//   * inline (async_workers == 0): the submitting thread enumerates its own
//     interval before returning — the configuration of the paper's online
//     detector ("after a thread executes an event, the thread is immediately
//     used to enumerate the interval");
//   * pooled (async_workers > 0): intervals whose box holds more than one
//     state (Gmin != Gbnd) are queued to a dedicated worker pool and
//     submission returns immediately; call drain() to synchronize. A
//     single-state interval (Gmin == Gbnd: the event causally follows every
//     event inserted before it) is cheaper to enumerate than to hand off, so
//     it still finishes inside submit() on the submitting thread, and a
//     visitor exception thrown from it propagates out of submit().
//
// In both modes a single-state interval is visited directly — its one state
// is the submitted clock itself — without running the enumeration
// subroutine or copying either bound, and submit() fills a per-thread
// reused Inserted, one per nesting depth, so the path of such an event
// allocates nothing once its thread has submitted one event at that depth.
//
// Events of one program thread are submitted one at a time: submit() for
// thread t returns before the next submit() for t starts (the session's
// single reactor, the traced runtime's per-thread sinks and a single reader
// all do this). So while the submitting thread enumerates an interval, its
// event is its thread's newest, and the sliding window's clock floor keeps
// every event the box can reach resident: such an interval takes no window
// pin. Only an interval handed to the pool, which outlives its submit(),
// pins its Gmin (OnlinePoset::pin_newest) and copies its bounds.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "enumeration/dispatch.hpp"
#include "poset/online_poset.hpp"
#include "util/thread_pool.hpp"

namespace paramount {

class OnlineParamount {
 public:
  // Sliding-window reclamation policy (see OnlinePoset). When enabled, an
  // interval handed to the pool pins its Gmin for the duration of its
  // enumeration (one enumerated by the submitting thread needs no pin; see
  // the file comment) and submit() periodically runs OnlinePoset::collect()
  // to retire settled prefix storage, keeping week-long monitored runs in
  // bounded memory.
  struct WindowPolicy {
    std::uint64_t gc_every = 0;   // collect() every N inserts (0 = off)
    std::size_t window_bytes = 0;  // collect() when heap_bytes() exceeds this
    bool enabled() const { return gc_every > 0 || window_bytes > 0; }
  };

  struct Options {
    EnumAlgorithm subroutine = EnumAlgorithm::kLexical;
    std::size_t async_workers = 0;  // 0 = enumerate inline on submit
    // Optional telemetry sink (see src/obs/). Shard layout: the submitting
    // side writes the low shards, including the intervals it enumerates
    // itself, and pooled enumeration worker w writes the shard after them
    // plus w. The submitting side holds one shard per program thread
    // (thread t writes shard t; num_threads + async_workers shards), or
    // one shard alone with single_submitter (1 + async_workers shards).
    // The counters and interval_states count every event and interval.
    // Only one event in obs::Telemetry::kTimedEventEvery per submitting
    // shard reads the clock, as decided before its insert. A timed event
    // records gbnd_ns and a "gbnd_snapshot" span, then interval_ns,
    // event_to_done_ns and an "interval" span wherever its interval runs,
    // each observation with weight kTimedEventEvery.
    obs::Telemetry* telemetry = nullptr;
    // One thread at a time calls submit(), whatever the events' thread ids
    // (the service session's reactor): it alone writes shard 0, so the
    // sink's shard count no longer grows with num_threads. Only the shard
    // layout changes; with several concurrent submitters it would break the
    // one-writer-per-shard contract.
    bool single_submitter = false;
    WindowPolicy window_policy;  // default: no reclamation (unbounded)
    // Invoked once per interval after its enumeration finished AND its
    // window pin (if any) was released — the point where the interval has
    // stopped holding any poset storage alive. Service-mode backpressure
    // returns submit-queue budget here. Runs on whichever thread enumerated
    // the interval: a pool worker for a multi-state interval in pooled
    // mode, otherwise the submitting thread before submit() returns. It must
    // be thread-safe and must not call back into this driver.
    std::function<void(EventId)> interval_done;
  };

  // Visitor invoked once per enumerated global state, possibly from several
  // threads at once. `owner` is the event whose interval is being enumerated
  // (the predicate's "new event e"); `state` is only valid during the call.
  // It may call submit() on another driver: each nesting depth of submit()
  // on a thread fills its own Inserted. It must not call submit() on this
  // driver.
  using IntervalStateVisitor =
      std::function<void(const OnlinePoset& poset, EventId owner,
                         const Frontier& state)>;

  OnlineParamount(std::size_t num_threads, Options options,
                  IntervalStateVisitor visit);
  ~OnlineParamount();

  OnlineParamount(const OnlineParamount&) = delete;
  OnlineParamount& operator=(const OnlineParamount&) = delete;

  // Inserts an event (clock already computed per Algorithm 3) and enumerates
  // its interval per the execution mode. Thread-safe, with one rule: events
  // of one program thread are submitted one at a time (see the file
  // comment). An interval enumerated on the submitting thread checks, when
  // it finishes, that its event is still its thread's newest, and aborts
  // if not. Returns the event id. Aborts on a defective clock
  // (OnlinePoset::check_insert).
  EventId submit(ThreadId tid, OpKind kind, std::uint32_t object,
                 const VectorClock& clock);

  // submit() for a clock from an untrusted source: a defective clock comes
  // back as OnlinePoset::try_append's verdict, with nothing inserted,
  // enumerated or recorded, instead of aborting. On kOk, *id (if given)
  // receives the event id. The one-at-a-time rule of submit() holds here
  // too.
  ClockVerdict try_submit(ThreadId tid, OpKind kind, std::uint32_t object,
                          const VectorClock& clock, EventId* id = nullptr);

  // Waits until every queued interval has been enumerated (no-op inline).
  void drain();

  // One explicit sliding-window reclamation pass (also runs automatically
  // per the window policy). Updates the poset.* telemetry gauges.
  OnlinePoset::CollectStats collect();

  const OnlinePoset& poset() const { return poset_; }

  // relaxed: monotone statistics counters — exact once drain() returned,
  // merely fresh while intervals are still in flight.
  std::uint64_t states_enumerated() const {
    return states_.load(std::memory_order_relaxed);
  }
  std::uint64_t intervals_processed() const {
    return intervals_.load(std::memory_order_relaxed);
  }

 private:
  // The tracer times of a timed event (see Options::telemetry).
  struct Stamps {
    std::uint64_t insert_ns;  // the first clock read of its insert
    std::uint64_t start_ns;   // where its interval's timing starts
  };

  // Visits every state of ins.id's interval: the box [gmin, ins.gbnd], or
  // gmin alone when ins.one_state (ins.gmin is not read). `shard` is the
  // telemetry shard of the calling thread (see Options::telemetry);
  // `stamps` is null unless the event is timed.
  void enumerate_interval(const OnlinePoset::Inserted& ins,
                          const Frontier& gmin, std::size_t shard,
                          const Stamps* stamps);
  void maybe_collect();

  OnlinePoset poset_;
  Options options_;
  // Telemetry shard of pool worker 0 (see Options::telemetry).
  std::size_t pool_shard_base_;
  IntervalStateVisitor visit_;
  std::unique_ptr<ThreadPool> pool_;  // null in inline mode
  std::atomic<std::uint64_t> states_{0};
  std::atomic<std::uint64_t> intervals_{0};
  std::atomic<std::uint64_t> inserts_since_gc_{0};
};

}  // namespace paramount
