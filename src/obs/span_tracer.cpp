#include "obs/span_tracer.hpp"

#include "obs/json_writer.hpp"

namespace paramount::obs {

SpanTracer::SpanTracer(std::size_t num_shards, std::size_t capacity_per_shard)
    : epoch_(std::chrono::steady_clock::now()),
      capacity_(capacity_per_shard),
      shards_(num_shards) {
  PM_CHECK(num_shards > 0);
  for (ShardBuffer& buf : shards_) buf.events.reserve(capacity_);
}

std::uint64_t SpanTracer::dropped() const {
  std::uint64_t total = 0;
  for (const ShardBuffer& buf : shards_) total += buf.dropped;
  return total;
}

std::uint64_t SpanTracer::recorded() const {
  std::uint64_t total = 0;
  for (const ShardBuffer& buf : shards_) total += buf.events.size();
  return total;
}

std::string SpanTracer::to_chrome_json() const {
  // Chrome trace_event timestamps are in microseconds; fractional values are
  // accepted, which preserves the nanosecond resolution.
  const auto us = [](std::uint64_t ns) {
    return static_cast<double>(ns) / 1e3;
  };
  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ns");
  w.key("traceEvents").begin_array();
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    // Name the track so Perfetto shows "worker 3" instead of a bare tid.
    w.begin_object();
    w.key("ph").value("M");
    w.key("name").value("thread_name");
    w.key("pid").value(std::uint64_t{1});
    w.key("tid").value(static_cast<std::uint64_t>(shard));
    w.key("args").begin_object();
    w.key("name").value("worker " + std::to_string(shard));
    w.end_object();
    w.end_object();
    for (const TraceEvent& e : shards_[shard].events) {
      w.begin_object();
      w.key("ph").value("X");
      w.key("name").value(e.name);
      w.key("cat").value(e.category);
      w.key("ts").value(us(e.start_ns));
      w.key("dur").value(us(e.duration_ns));
      w.key("pid").value(std::uint64_t{1});
      w.key("tid").value(static_cast<std::uint64_t>(shard));
      if (e.arg_name != nullptr) {
        w.key("args").begin_object();
        w.key(e.arg_name).value(e.arg_value);
        w.end_object();
      }
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  return std::move(w).take();
}

}  // namespace paramount::obs
