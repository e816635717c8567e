// Sharded metrics registry: named counters, gauges, and log-scale histograms.
//
// The hot path is designed for enumeration workers: every metric is backed by
// one cell (or, for histograms, a run of cells) *per shard*, where a shard is
// a cache-line-padded block owned by exactly one worker thread. An increment
// is therefore a relaxed load + relaxed store on a line no other writer
// touches — the compiler folds it to a plain memory add — and the shards are
// only summed when `snapshot()` is called. The single-writer-per-shard
// contract is the caller's: hand each worker its own shard index.
//
// Compiling with -DPARAMOUNT_NO_TELEMETRY turns every mutation into a no-op
// (registration and snapshots still work, reporting zeros), so instrumented
// call sites need no #ifdefs of their own.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/sync.hpp"

namespace paramount::obs {

inline constexpr bool kTelemetryEnabled =
#ifdef PARAMOUNT_NO_TELEMETRY
    false;
#else
    true;
#endif

// Index of a metric's first cell inside every shard.
using MetricId = std::uint32_t;

// Log2 buckets: bucket 0 holds the value 0, bucket b >= 1 holds values in
// [2^(b-1), 2^b). bit_width of a uint64_t is at most 64, hence 65 buckets.
inline constexpr std::size_t kHistogramBuckets = 65;

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::vector<std::uint64_t> per_shard_count;
  std::vector<std::uint64_t> per_shard_sum;

  double mean() const {
    return count == 0 ? std::numeric_limits<double>::quiet_NaN()
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  // Inclusive lower / exclusive upper value bound of bucket `b`.
  static std::uint64_t bucket_lo(std::size_t b) {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }
  static std::uint64_t bucket_hi(std::size_t b) {
    if (b == 0) return 1;
    if (b == kHistogramBuckets - 1) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    return std::uint64_t{1} << b;
  }

  // Approximate q-quantile (q in [0,1]) by linear interpolation inside the
  // bucket that crosses the target rank; NaN when empty.
  double quantile(double q) const;
};

struct CounterSnapshot {
  std::string name;
  std::uint64_t total = 0;
  std::vector<std::uint64_t> per_shard;
};

struct MetricsSnapshot {
  std::size_t num_shards = 0;
  std::vector<CounterSnapshot> counters;
  std::vector<CounterSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  const CounterSnapshot* find_counter(const std::string& name) const;
  const CounterSnapshot* find_gauge(const std::string& name) const;
  const HistogramSnapshot* find_histogram(const std::string& name) const;

  // Machine-readable export; schema documented in README "Observability".
  std::string to_json() const;
};

class MetricsRegistry {
 public:
  // Cells available per shard; registration past this capacity aborts.
  static constexpr std::size_t kCellsPerShard = 1024;

  explicit MetricsRegistry(std::size_t num_shards);

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  std::size_t num_shards() const { return num_shards_; }

  // Registration is mutex-guarded and idempotent per name (re-registering a
  // name with the same kind returns the existing id). Safe to call while
  // workers are mutating other metrics; never call on the hot path.
  MetricId counter(const std::string& name);
  MetricId gauge(const std::string& name);
  MetricId histogram(const std::string& name);

  // ---- hot path (single writer per shard) ----

  void add(MetricId id, std::size_t shard, std::uint64_t delta = 1) {
    if constexpr (!kTelemetryEnabled) return;
    bump(cell(id, shard), delta);
  }

  void set(MetricId id, std::size_t shard, std::uint64_t value) {
    if constexpr (!kTelemetryEnabled) return;
    // relaxed: pure store — gauges may be refreshed by whichever thread last
    // touched the instrumented resource, a benign last-writer-wins race.
    cell(id, shard).store(value, std::memory_order_relaxed);
  }

  // One observation standing for `weight` equal ones: it adds `weight` to
  // its bucket and to the count and weight * value to the sum, so a sampled
  // instrument that observes one value in N with weight N keeps count, sum
  // and quantiles as estimates over every value.
  void observe(MetricId histogram_id, std::size_t shard, std::uint64_t value,
               std::uint64_t weight = 1) {
    if constexpr (!kTelemetryEnabled) return;
    // Layout per shard: [buckets x65][count][sum].
    std::atomic<std::uint64_t>* const cells = &cell(histogram_id, shard);
    const std::size_t bucket = value == 0 ? 0 : std::bit_width(value);
    bump(cells[bucket], weight);
    bump(cells[kHistogramBuckets], weight);
    bump(cells[kHistogramBuckets + 1], weight * value);
  }

  // ---- cold path ----

  // Sums every shard; callable concurrently with writers (relaxed reads —
  // an in-flight increment may or may not be included, nothing tears).
  MetricsSnapshot snapshot() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct MetricInfo {
    std::string name;
    Kind kind;
    MetricId first_cell;
  };

  struct alignas(64) Shard {
    std::atomic<std::uint64_t> cells[kCellsPerShard];
  };

  static void bump(std::atomic<std::uint64_t>& c, std::uint64_t delta) {
    // relaxed: single-writer-per-shard contract — the load observes this
    // thread's own prior store, and concurrent snapshot() readers tolerate
    // missing an in-flight increment. Deliberately load+store (not RMW) so
    // the compiler emits a plain add on the uncontended line.
    c.store(c.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t>& cell(MetricId id, std::size_t shard) {
    PM_DCHECK(shard < num_shards_);
    return shards_[shard].cells[id];
  }
  const std::atomic<std::uint64_t>& cell(MetricId id, std::size_t shard) const {
    return shards_[shard].cells[id];
  }

  MetricId register_metric(const std::string& name, Kind kind,
                           std::size_t cells);

  std::size_t num_shards_;
  std::unique_ptr<Shard[]> shards_;
  mutable Mutex registration_mutex_;
  std::vector<MetricInfo> metrics_ PM_GUARDED_BY(registration_mutex_);
  std::size_t next_cell_ PM_GUARDED_BY(registration_mutex_) = 0;
};

}  // namespace paramount::obs
