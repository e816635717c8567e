// Telemetry bundle handed to the enumeration drivers, the thread pool, and
// the detectors: one metrics registry plus one span tracer sharing a shard
// space, with the well-known ParaMount instruments pre-registered.
//
// Shard = worker identity. Construct with at least as many shards as the
// largest worker index that will report (the drivers PM_CHECK this); each
// shard must have a single writer at a time. A null `Telemetry*` anywhere in
// the stack disables instrumentation at that call site; building with
// -DPARAMOUNT_NO_TELEMETRY removes the instrumentation bodies entirely.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"

namespace paramount::obs {

class Telemetry {
 public:
  explicit Telemetry(
      std::size_t num_shards,
      std::size_t trace_capacity_per_shard = SpanTracer::kDefaultCapacityPerShard,
      SpanTracer::OverflowPolicy trace_overflow =
          SpanTracer::OverflowPolicy::kDropNewest);

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
  // Histograms.
  MetricId interval_states;  // states per interval (log2 buckets)
  MetricId interval_ns;      // wall time per interval enumeration
  MetricId queue_wait_ns;    // time spent waiting on the shared queue/cursor
  MetricId gbnd_ns;          // time computing the Gbnd boundary snapshot

 private:
  MetricsRegistry metrics_;
  SpanTracer tracer_;
};

}  // namespace paramount::obs
