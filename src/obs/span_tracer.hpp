// Span tracer: per-worker begin/end event recording with Chrome trace export.
//
// Workers record *complete* spans (name, category, start, duration, one
// optional integer argument) into a preallocated per-shard buffer they own
// exclusively — recording is two loads, a handful of stores, and no
// synchronization. `to_chrome_json()` renders the buffers in the Chrome
// `trace_event` format, directly loadable in chrome://tracing and Perfetto
// (ui.perfetto.dev); each shard appears as its own named thread track.
//
// `name`, `category`, and `arg_name` must be string literals (or otherwise
// outlive the tracer): only the pointer is stored.
//
// Buffers are bounded. When a shard's buffer fills up, the incoming span is
// discarded and counted in dropped() — and mirrored into a metrics counter
// when set_drop_counter() is wired — so a truncated trace never looks
// complete.
// A capacity of 0 turns recording off: record() keeps nothing and counts
// nothing as dropped (daemon sessions, which export only metrics).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"  // kTelemetryEnabled
#include "util/check.hpp"

namespace paramount::obs {

struct TraceEvent {
  const char* name;
  const char* category;
  std::uint64_t start_ns;  // relative to the tracer's epoch
  std::uint64_t duration_ns;
  const char* arg_name;  // nullptr = no argument
  std::uint64_t arg_value;
};

class SpanTracer {
 public:
  static constexpr std::size_t kDefaultCapacityPerShard = 1 << 16;

  explicit SpanTracer(std::size_t num_shards,
                      std::size_t capacity_per_shard = kDefaultCapacityPerShard);

  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  std::size_t num_shards() const { return shards_.size(); }

  // Mirror every drop into `metrics` (bumping `id` on the recording shard, so
  // the single-writer-per-shard contract is preserved). Wire before any
  // recording starts; Telemetry does this with its tracer.spans_dropped
  // counter.
  void set_drop_counter(MetricsRegistry* metrics, MetricId id) {
    drop_metrics_ = metrics;
    drop_metric_ = id;
  }

  // Nanoseconds since the tracer was constructed (monotonic).
  std::uint64_t now_ns() const {
    if constexpr (!kTelemetryEnabled) return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  // Hot path; single writer per shard.
  void record(std::size_t shard, const char* name, const char* category,
              std::uint64_t start_ns, std::uint64_t duration_ns,
              const char* arg_name = nullptr, std::uint64_t arg_value = 0) {
    if constexpr (!kTelemetryEnabled) return;
    PM_DCHECK(shard < shards_.size());
    ShardBuffer& buf = shards_[shard];
    if (buf.events.size() >= capacity_) {
      if (capacity_ == 0) return;  // recording off: nothing is lost
      ++buf.dropped;
      if (drop_metrics_ != nullptr) drop_metrics_->add(drop_metric_, shard);
      return;
    }
    buf.events.push_back(TraceEvent{name, category, start_ns, duration_ns,
                                    arg_name, arg_value});
  }

  // Total spans discarded across shards because a buffer filled up.
  std::uint64_t dropped() const;
  std::uint64_t recorded() const;

  // Chrome trace_event JSON ({"traceEvents":[...]}); safe to call only when
  // no worker is concurrently recording.
  std::string to_chrome_json() const;

 private:
  struct alignas(64) ShardBuffer {
    std::vector<TraceEvent> events;
    std::uint64_t dropped = 0;
  };

  std::chrono::steady_clock::time_point epoch_;
  std::size_t capacity_;
  MetricsRegistry* drop_metrics_ = nullptr;
  MetricId drop_metric_ = 0;
  std::vector<ShardBuffer> shards_;
};

// RAII span: measures from construction to destruction (or finish()) and
// records into the tracer. A default-constructed or null-tracer span is
// inert, so call sites need no null checks of their own.
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(SpanTracer* tracer, std::size_t shard, const char* name,
            const char* category, const char* arg_name = nullptr,
            std::uint64_t arg_value = 0)
      : tracer_(tracer), shard_(shard), name_(name), category_(category),
        arg_name_(arg_name), arg_value_(arg_value) {
    if constexpr (!kTelemetryEnabled) return;
    if (tracer_ != nullptr) start_ns_ = tracer_->now_ns();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() { finish(); }

  void set_arg(std::uint64_t value) { arg_value_ = value; }

  std::uint64_t finish() {
    if constexpr (!kTelemetryEnabled) return 0;
    if (tracer_ == nullptr) return 0;
    const std::uint64_t end = tracer_->now_ns();
    const std::uint64_t dur = end - start_ns_;
    tracer_->record(shard_, name_, category_, start_ns_, dur, arg_name_,
                    arg_value_);
    tracer_ = nullptr;
    return dur;
  }

 private:
  SpanTracer* tracer_ = nullptr;
  std::size_t shard_ = 0;
  const char* name_ = nullptr;
  const char* category_ = nullptr;
  const char* arg_name_ = nullptr;
  std::uint64_t arg_value_ = 0;
  std::uint64_t start_ns_ = 0;
};

}  // namespace paramount::obs
