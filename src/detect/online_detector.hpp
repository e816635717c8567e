// Online-and-parallel predicate detector (§4, Figure 7 of the paper).
//
// A TraceSink that feeds every recorded event into online ParaMount
// (Algorithm 4) and evaluates the data-race predicate (Algorithm 6) on each
// enumerated global state. In the default inline mode, the monitored
// program's own thread enumerates the interval of the event it just produced
// — the configuration evaluated in Table 2. With async_workers > 0 only
// multi-state intervals go to the pool; an event whose interval holds a
// single state is still checked on the thread that produced it, inside
// on_event().
#pragma once

#include <memory>

#include "core/online_paramount.hpp"
#include "detect/race_predicate.hpp"
#include "detect/race_report.hpp"
#include "runtime/trace_sink.hpp"

namespace paramount {

class OnlineRaceDetector final : public TraceSink {
 public:
  // The driver's options, passed through whole (see OnlineParamount).
  using Options = OnlineParamount::Options;

  OnlineRaceDetector(std::size_t num_threads, Options options)
      : paramount_(num_threads, std::move(options),
                   [this](const OnlinePoset& poset, EventId owner,
                          const Frontier& state) {
                     check_races(poset, *access_table_, owner, state, report_,
                                 &window_evictions_);
                   }) {}

  // Must be called with the runtime's access table before tracing starts.
  void attach(const AccessTable& table) { access_table_ = &table; }

  // Events of one program thread arrive one at a time: on_event() for
  // thread t returns before the next on_event() or try_on_event() for t
  // starts, as the traced runtime delivers each thread's events from that
  // thread. An interval checked on the calling thread takes no window pin
  // and relies on this (OnlineParamount::submit aborts if it sees the rule
  // broken).
  void on_event(ThreadId tid, OpKind kind, std::uint32_t object,
                const VectorClock& clock) override {
    PM_CHECK_MSG(access_table_ != nullptr,
                 "attach() the runtime's access table before tracing");
    paramount_.submit(tid, kind, object, clock);
  }

  // on_event() for a clock from an untrusted source: a defective clock comes
  // back as a verdict, with nothing inserted or enumerated, instead of
  // aborting (OnlineParamount::try_submit). The same one-at-a-time rule
  // holds: the service session's single reactor keeps it.
  ClockVerdict try_on_event(ThreadId tid, OpKind kind, std::uint32_t object,
                            const VectorClock& clock) {
    PM_CHECK_MSG(access_table_ != nullptr,
                 "attach() the runtime's access table before tracing");
    return paramount_.try_submit(tid, kind, object, clock);
  }

  // Waits for queued intervals in async mode; no-op inline.
  void drain() { paramount_.drain(); }

  const RaceReport& report() const { return report_; }
  const OnlinePoset& poset() const { return paramount_.poset(); }
  OnlineParamount& paramount() { return paramount_; }
  std::uint64_t states_enumerated() const {
    return paramount_.states_enumerated();
  }

  // Candidate pairs dropped because the older event left the sliding window
  // (zero under the pin protocol; see check_races).
  std::uint64_t window_evictions() const {
    // relaxed: monotone statistics counter, read after drain().
    return window_evictions_.load(std::memory_order_relaxed);
  }

 private:
  const AccessTable* access_table_ = nullptr;
  RaceReport report_;
  std::atomic<std::uint64_t> window_evictions_{0};
  OnlineParamount paramount_;
};

}  // namespace paramount
