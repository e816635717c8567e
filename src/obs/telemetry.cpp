#include "obs/telemetry.hpp"

#include <cstdio>

namespace paramount::obs {

namespace {

bool write_file(const std::string& path, const std::string& contents,
                const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open %s for %s output\n", path.c_str(),
                 what);
    return false;
  }
  const std::size_t written =
      std::fwrite(contents.data(), 1, contents.size(), f);
  const bool ok = written == contents.size() && std::fclose(f) == 0;
  if (!ok) std::fprintf(stderr, "error: short write to %s\n", path.c_str());
  return ok;
}

}  // namespace

Telemetry::Telemetry(std::size_t num_shards,
                     std::size_t trace_capacity_per_shard)
    : metrics_(num_shards),
      tracer_(num_shards, trace_capacity_per_shard),
      countdowns_(new Countdown[num_shards]) {
  states = metrics_.counter("paramount.states");
  intervals = metrics_.counter("paramount.intervals");
  claims = metrics_.counter("paramount.claims");
  predicate_evals = metrics_.counter("detect.predicate_evals");
  pool_tasks = metrics_.counter("pool.tasks");
  spans_dropped = metrics_.counter("tracer.spans_dropped");
  window_evictions = metrics_.counter("detect.window_evictions");
  poset_resident_bytes = metrics_.gauge("poset.resident_bytes");
  poset_reclaimed_events = metrics_.gauge("poset.reclaimed_events");
  queue_depth = metrics_.gauge("pool.queue_depth");
  tracer_.set_drop_counter(&metrics_, spans_dropped);
  interval_states = metrics_.histogram("paramount.interval_states");
  interval_ns = metrics_.histogram("paramount.interval_ns");
  queue_wait_ns = metrics_.histogram("pool.queue_wait_ns");
  gbnd_ns = metrics_.histogram("paramount.gbnd_ns");
  event_to_done_ns = metrics_.histogram("online.event_to_done_ns");
}

bool Telemetry::write_metrics_json(const std::string& path) const {
  return write_file(path, metrics_.snapshot().to_json(), "metrics");
}

bool Telemetry::write_chrome_trace(const std::string& path) const {
  return write_file(path, tracer_.to_chrome_json(), "trace");
}

}  // namespace paramount::obs
