// Telemetry bundle handed to the enumeration drivers, the thread pool, and
// the detectors: one metrics registry plus one span tracer sharing a shard
// space, with the well-known ParaMount instruments pre-registered.
//
// Shard = worker identity. Construct with at least as many shards as the
// largest worker index that will report (the drivers PM_CHECK this); each
// shard must have a single writer at a time. A null `Telemetry*` anywhere in
// the stack disables instrumentation at that call site; building with
// -DPARAMOUNT_NO_TELEMETRY removes the instrumentation bodies entirely.
//
// The online driver times one submitted event in kTimedEventEvery per
// submitting shard (time_next_event); every counter stays exact.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"

namespace paramount::obs {

class Telemetry {
 public:
  explicit Telemetry(std::size_t num_shards,
                     std::size_t trace_capacity_per_shard =
                         SpanTracer::kDefaultCapacityPerShard);

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  std::size_t num_shards() const { return metrics_.num_shards(); }
  MetricsRegistry& metrics() { return metrics_; }
  SpanTracer& tracer() { return tracer_; }
  const SpanTracer& tracer() const { return tracer_; }

  MetricsSnapshot snapshot() const { return metrics_.snapshot(); }

  // Writes `metrics().snapshot().to_json()` / the Chrome trace to a file.
  // Returns false (and prints to stderr) on I/O failure.
  bool write_metrics_json(const std::string& path) const;
  bool write_chrome_trace(const std::string& path) const;

  // ---- well-known instruments ----
  // Counters (one value per worker shard).
  MetricId states;           // consistent states delivered to the visitor
  MetricId intervals;        // intervals fully enumerated
  MetricId claims;           // work acquisitions (cursor claims, submits)
  MetricId predicate_evals;  // detector predicate evaluations
  MetricId pool_tasks;       // thread-pool tasks executed
  MetricId spans_dropped;    // trace spans lost to a full shard buffer
  MetricId window_evictions;  // detector pairs dropped: event left the window
  // Gauges. Poset-wide values (not per-worker); gauge totals sum across
  // shards, so the drivers write these on shard 0 only.
  MetricId poset_resident_bytes;    // event storage resident after last GC
  MetricId poset_reclaimed_events;  // cumulative events reclaimed by GC
  // Live depth of the thread pool's one task queue, written on the pool's
  // first shard at every push and pop. Unlike the counters this cell is
  // written by whichever thread last touched the queue, the submitter or a
  // worker, but always under the pool's lock, so one at a time.
  MetricId queue_depth;
  // Histograms. interval_states observes every interval and queue_wait_ns
  // every pool task or cursor claim. The offline driver observes
  // interval_ns and gbnd_ns once per claim. The online driver observes
  // them and event_to_done_ns for its timed events only (time_next_event),
  // each with weight kTimedEventEvery, so their counts and sums estimate
  // those of every event.
  MetricId interval_states;  // states per interval (log2 buckets)
  MetricId interval_ns;      // wall time per interval enumeration
  MetricId queue_wait_ns;    // time spent waiting on the shared queue/cursor
  MetricId gbnd_ns;          // time computing the Gbnd boundary snapshot
  // Online only: from the first clock read of an event's insert to the end
  // of its interval's enumeration, on the shard that finished the interval.
  MetricId event_to_done_ns;

  // One online event in this many runs the submit path's clock reads.
  static constexpr std::uint32_t kTimedEventEvery = 64;

  // Counts one event submitted on `shard` and returns whether to time it:
  // the shard's first event, and every kTimedEventEvery-th after it. The
  // online driver asks before the insert, since a timed event reads the
  // clock before it, so a refused event counts too. Each shard's countdown
  // has the shard's single writer, like its metrics cells.
  bool time_next_event(std::size_t shard) {
    if constexpr (!kTelemetryEnabled) return false;
    PM_DCHECK(shard < num_shards());
    std::atomic<std::uint32_t>& left = countdowns_[shard].left;
    // relaxed: single writer per shard, which reads its own last store;
    // a load and a store, not an RMW, since no other thread writes here.
    const std::uint32_t n = left.load(std::memory_order_relaxed);
    left.store(n == 0 ? kTimedEventEvery - 1 : n - 1,
               std::memory_order_relaxed);
    return n == 0;
  }

 private:
  // One cache line per shard, so submitting threads share no line.
  struct alignas(64) Countdown {
    std::atomic<std::uint32_t> left{0};  // untimed events before the next
  };

  MetricsRegistry metrics_;
  SpanTracer tracer_;
  std::unique_ptr<Countdown[]> countdowns_;
};

}  // namespace paramount::obs
