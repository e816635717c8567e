// Tests for the src/obs/ telemetry subsystem: sharded metric aggregation
// under concurrency, log-scale histogram bucketing, Chrome-trace and metrics
// JSON well-formedness (parsed back by a minimal JSON reader), and the
// ThreadPool queue-wait instrumentation under a wait_idle() stress load.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/online_paramount.hpp"
#include "core/paramount.hpp"
#include "obs/json_writer.hpp"
#include "obs/telemetry.hpp"
#include "poset/poset_builder.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"
#include "workloads/random_poset.hpp"

namespace paramount {
namespace {

using obs::HistogramSnapshot;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::SpanTracer;
using obs::Telemetry;
using obs::TraceSpan;

// ---- a minimal JSON reader (enough to parse back our own exports) ----

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>
      v;

  bool is_object() const { return v.index() == 5; }
  bool is_array() const { return v.index() == 4; }
  const JsonObject& object() const { return *std::get<5>(v); }
  const JsonArray& array() const { return *std::get<4>(v); }
  double number() const { return std::get<double>(v); }
  const std::string& string() const { return std::get<std::string>(v); }
  const JsonValue& at(const std::string& key) const {
    auto it = object().find(key);
    EXPECT_NE(it, object().end()) << "missing key " << key;
    return it->second;
  }
  bool has(const std::string& key) const {
    return is_object() && object().count(key) != 0;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  // Parses the full document; EXPECTs there is no trailing garbage.
  JsonValue parse() {
    const JsonValue v = parse_value();
    skip_ws();
    EXPECT_EQ(pos_, text_.size()) << "trailing JSON garbage";
    return v;
  }

  bool failed() const { return failed_; }

 private:
  void fail(const std::string& why) {
    if (!failed_) ADD_FAILURE() << "JSON parse error at " << pos_ << ": " << why;
    failed_ = true;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end");
      return '\0';
    }
    return text_[pos_];
  }

  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  JsonValue parse_value() {
    if (failed_) return JsonValue{nullptr};
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue{parse_string()};
      case 't': return parse_literal("true", JsonValue{true});
      case 'f': return parse_literal("false", JsonValue{false});
      case 'n': return parse_literal("null", JsonValue{nullptr});
      default: return parse_number();
    }
  }

  JsonValue parse_literal(const std::string& lit, JsonValue v) {
    if (text_.compare(pos_, lit.size(), lit) != 0) {
      fail("bad literal");
      return JsonValue{nullptr};
    }
    pos_ += lit.size();
    return v;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected number");
      ++pos_;
      return JsonValue{nullptr};
    }
    return JsonValue{std::stod(text_.substr(start, pos_ - start))};
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'u':
            // Our exporters only emit \u00XX control escapes.
            if (pos_ + 4 <= text_.size()) {
              c = static_cast<char>(
                  std::stoi(text_.substr(pos_, 4), nullptr, 16));
              pos_ += 4;
            }
            break;
          default: fail("bad escape"); return out;
        }
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) {
      fail("unterminated string");
      return out;
    }
    ++pos_;  // closing quote
    return out;
  }

  JsonValue parse_object() {
    expect('{');
    auto obj = std::make_shared<JsonObject>();
    if (!consume('}')) {
      do {
        std::string key = parse_string();
        expect(':');
        (*obj)[std::move(key)] = parse_value();
        if (failed_) break;
      } while (consume(','));
      expect('}');
    }
    return JsonValue{std::move(obj)};
  }

  JsonValue parse_array() {
    expect('[');
    auto arr = std::make_shared<JsonArray>();
    if (!consume(']')) {
      do {
        arr->push_back(parse_value());
        if (failed_) break;
      } while (consume(','));
      expect(']');
    }
    return JsonValue{std::move(arr)};
  }

  std::string text_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

// ---- metrics registry ----

// Most assertions below check live instrument values, which are all zero in
// a -DPARAMOUNT_NO_TELEMETRY build (mutations compile to no-ops).
#define PM_SKIP_IF_NO_TELEMETRY()                                       \
  if constexpr (!obs::kTelemetryEnabled)                                \
  GTEST_SKIP() << "built with PARAMOUNT_NO_TELEMETRY"

TEST(Metrics, CounterAggregatesShardsExactlyUnderContention) {
  PM_SKIP_IF_NO_TELEMETRY();
  constexpr std::size_t kShards = 8;
  constexpr std::uint64_t kPerShard = 200000;
  MetricsRegistry registry(kShards);
  const obs::MetricId id = registry.counter("test.counter");

  // A concurrent reader snapshots while the writers run: relaxed reads must
  // tear nothing and the counter must be monotonically plausible.
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load()) {
      const MetricsSnapshot snap = registry.snapshot();
      const obs::CounterSnapshot* c = snap.find_counter("test.counter");
      ASSERT_NE(c, nullptr);
      ASSERT_LE(c->total, kShards * kPerShard);
    }
  });

  // One thread per shard: the single-writer-per-shard contract under real
  // threads.
  std::vector<std::thread> writers;
  writers.reserve(kShards);
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    writers.emplace_back([&registry, id, shard] {
      for (std::uint64_t i = 0; i < kPerShard; ++i) registry.add(id, shard);
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true);
  snapshotter.join();

  const MetricsSnapshot snap = registry.snapshot();
  const obs::CounterSnapshot* c = snap.find_counter("test.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->total, kShards * kPerShard);
  ASSERT_EQ(c->per_shard.size(), kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(c->per_shard[s], kPerShard);
  }
}

TEST(Metrics, RegistrationIsIdempotentAndKindChecked) {
  PM_SKIP_IF_NO_TELEMETRY();
  MetricsRegistry registry(2);
  const obs::MetricId a = registry.counter("x");
  const obs::MetricId b = registry.counter("x");
  EXPECT_EQ(a, b);
  registry.add(a, 0, 3);
  registry.add(b, 1, 4);
  EXPECT_EQ(registry.snapshot().find_counter("x")->total, 7u);
}

TEST(Metrics, GaugeSumsLastStoredValues) {
  PM_SKIP_IF_NO_TELEMETRY();
  MetricsRegistry registry(3);
  const obs::MetricId g = registry.gauge("depth");
  registry.set(g, 0, 5);
  registry.set(g, 0, 2);  // overwrite, not accumulate
  registry.set(g, 2, 10);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.find_gauge("depth")->total, 12u);
  EXPECT_EQ(snap.find_gauge("depth")->per_shard[0], 2u);
}

TEST(Metrics, HistogramBucketBoundaries) {
  PM_SKIP_IF_NO_TELEMETRY();
  MetricsRegistry registry(1);
  const obs::MetricId h = registry.histogram("sizes");
  // Bucket 0 = {0}; bucket b >= 1 = [2^(b-1), 2^b).
  registry.observe(h, 0, 0);                      // bucket 0
  registry.observe(h, 0, 1);                      // bucket 1
  registry.observe(h, 0, 2);                      // bucket 2
  registry.observe(h, 0, 3);                      // bucket 2
  registry.observe(h, 0, 4);                      // bucket 3
  registry.observe(h, 0, 7);                      // bucket 3
  registry.observe(h, 0, 8);                      // bucket 4
  registry.observe(h, 0, (1ULL << 20) - 1);       // bucket 20
  registry.observe(h, 0, 1ULL << 20);             // bucket 21
  registry.observe(h, 0, ~0ULL);                  // bucket 64 (top)

  const MetricsSnapshot snap = registry.snapshot();
  const HistogramSnapshot* s = snap.find_histogram("sizes");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 10u);
  EXPECT_EQ(s->sum, 0 + 1 + 2 + 3 + 4 + 7 + 8 + ((1ULL << 20) - 1) +
                        (1ULL << 20) + ~0ULL);
  EXPECT_EQ(s->buckets[0], 1u);
  EXPECT_EQ(s->buckets[1], 1u);
  EXPECT_EQ(s->buckets[2], 2u);
  EXPECT_EQ(s->buckets[3], 2u);
  EXPECT_EQ(s->buckets[4], 1u);
  EXPECT_EQ(s->buckets[20], 1u);
  EXPECT_EQ(s->buckets[21], 1u);
  EXPECT_EQ(s->buckets[64], 1u);

  EXPECT_EQ(HistogramSnapshot::bucket_lo(0), 0u);
  EXPECT_EQ(HistogramSnapshot::bucket_hi(0), 1u);
  EXPECT_EQ(HistogramSnapshot::bucket_lo(4), 8u);
  EXPECT_EQ(HistogramSnapshot::bucket_hi(4), 16u);
  EXPECT_EQ(HistogramSnapshot::bucket_hi(64), ~0ULL);
}

// A weighted observation stands for `weight` equal ones: it adds the
// weight to its bucket and to the count, and weight * value to the sum.
TEST(Metrics, WeightedObserveCountsAsThatManyObservations) {
  PM_SKIP_IF_NO_TELEMETRY();
  MetricsRegistry weighted(1);
  MetricsRegistry repeated(1);
  const obs::MetricId w = weighted.histogram("ns");
  const obs::MetricId r = repeated.histogram("ns");
  for (const std::uint64_t value : {0ULL, 5ULL, 1000ULL, 1ULL << 40}) {
    weighted.observe(w, 0, value, 64);
    for (int i = 0; i < 64; ++i) repeated.observe(r, 0, value);
  }
  const MetricsSnapshot weighted_snap = weighted.snapshot();
  const MetricsSnapshot repeated_snap = repeated.snapshot();
  const HistogramSnapshot* a = weighted_snap.find_histogram("ns");
  const HistogramSnapshot* b = repeated_snap.find_histogram("ns");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->count, 4u * 64);
  EXPECT_EQ(a->count, b->count);
  EXPECT_EQ(a->sum, b->sum);
  EXPECT_EQ(a->buckets, b->buckets);
  EXPECT_EQ(a->quantile(0.5), b->quantile(0.5));
}

TEST(Metrics, HistogramQuantiles) {
  PM_SKIP_IF_NO_TELEMETRY();
  MetricsRegistry registry(1);
  const obs::MetricId h = registry.histogram("q");
  EXPECT_TRUE(std::isnan(
      registry.snapshot().find_histogram("q")->quantile(0.5)));
  for (std::uint64_t v = 1; v <= 1024; ++v) registry.observe(h, 0, v);
  const MetricsSnapshot snap = registry.snapshot();
  const HistogramSnapshot* s = snap.find_histogram("q");
  // Log-bucket resolution: the median of 1..1024 must land within the
  // surrounding power-of-two range.
  EXPECT_GE(s->quantile(0.5), 256.0);
  EXPECT_LE(s->quantile(0.5), 1024.0);
  EXPECT_LE(s->quantile(0.1), s->quantile(0.9));
  EXPECT_LE(s->quantile(1.0), 2048.0);
}

TEST(Metrics, JsonSnapshotParsesBack) {
  PM_SKIP_IF_NO_TELEMETRY();
  MetricsRegistry registry(2);
  registry.add(registry.counter("a.count"), 0, 41);
  registry.add(registry.counter("a.count"), 1, 1);
  registry.set(registry.gauge("g"), 0, 9);
  registry.observe(registry.histogram("h"), 1, 100);

  const std::string json = registry.snapshot().to_json();
  JsonParser parser(json);
  const JsonValue doc = parser.parse();
  ASSERT_FALSE(parser.failed()) << json;

  EXPECT_EQ(doc.at("num_shards").number(), 2.0);
  const JsonArray& counters = doc.at("counters").array();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].at("name").string(), "a.count");
  EXPECT_EQ(counters[0].at("total").number(), 42.0);
  ASSERT_EQ(counters[0].at("per_shard").array().size(), 2u);
  EXPECT_EQ(counters[0].at("per_shard").array()[1].number(), 1.0);

  const JsonArray& histograms = doc.at("histograms").array();
  ASSERT_EQ(histograms.size(), 1u);
  EXPECT_EQ(histograms[0].at("count").number(), 1.0);
  EXPECT_EQ(histograms[0].at("sum").number(), 100.0);
  const JsonArray& buckets = histograms[0].at("buckets").array();
  ASSERT_EQ(buckets.size(), 1u);  // only non-empty buckets are exported
  EXPECT_EQ(buckets[0].array().size(), 3u);
  EXPECT_EQ(buckets[0].array()[2].number(), 1.0);  // [lo, hi, count]
}

// ---- span tracer ----

TEST(Metrics, JsonWriterIntegersAreExact) {
  const auto render = [](auto v) {
    obs::JsonWriter w;
    w.value(v);
    return std::move(w).take();
  };
  EXPECT_EQ(render(std::uint64_t{0}), "0");
  EXPECT_EQ(render(std::uint64_t{1}), "1");
  EXPECT_EQ(render(std::numeric_limits<std::uint64_t>::max()),
            "18446744073709551615");
  EXPECT_EQ(render(std::numeric_limits<std::int64_t>::min()),
            "-9223372036854775808");
  EXPECT_EQ(render(std::int64_t{-1}), "-1");
  // Doubles keep their %.6g form.
  EXPECT_EQ(render(0.125), "0.125");
  EXPECT_EQ(render(1234567.0), "1.23457e+06");
}

TEST(Tracer, ChromeTraceJsonParsesBack) {
  PM_SKIP_IF_NO_TELEMETRY();
  SpanTracer tracer(2);
  tracer.record(0, "alpha", "cat0", 100, 50, "states", 7);
  tracer.record(1, "needs \"escaping\"\n", "cat\\1", 200, 25);
  {
    TraceSpan span(&tracer, 0, "raii", "cat0");
  }
  EXPECT_EQ(tracer.recorded(), 3u);

  const std::string json = tracer.to_chrome_json();
  JsonParser parser(json);
  const JsonValue doc = parser.parse();
  ASSERT_FALSE(parser.failed()) << json;

  const JsonArray& events = doc.at("traceEvents").array();
  std::size_t complete = 0, metadata = 0;
  bool saw_escaped = false;
  for (const JsonValue& e : events) {
    const std::string& ph = e.at("ph").string();
    if (ph == "X") {
      ++complete;
      EXPECT_TRUE(e.has("ts"));
      EXPECT_TRUE(e.has("dur"));
      EXPECT_TRUE(e.has("pid"));
      EXPECT_TRUE(e.has("tid"));
      if (e.at("name").string() == "needs \"escaping\"\n") {
        saw_escaped = true;
        EXPECT_EQ(e.at("cat").string(), "cat\\1");
        EXPECT_EQ(e.at("tid").number(), 1.0);
      }
      if (e.at("name").string() == "alpha") {
        EXPECT_EQ(e.at("args").at("states").number(), 7.0);
        EXPECT_DOUBLE_EQ(e.at("ts").number(), 0.1);    // 100 ns = 0.1 us
        EXPECT_DOUBLE_EQ(e.at("dur").number(), 0.05);  // 50 ns
      }
    } else if (ph == "M") {
      ++metadata;
    }
  }
  EXPECT_EQ(complete, 3u);
  EXPECT_EQ(metadata, 2u);  // one thread_name record per shard
  EXPECT_TRUE(saw_escaped);
}

TEST(Tracer, DropsBeyondCapacityAndCounts) {
  PM_SKIP_IF_NO_TELEMETRY();
  SpanTracer tracer(1, /*capacity_per_shard=*/4);
  for (int i = 0; i < 10; ++i) tracer.record(0, "e", "c", i, 1);
  EXPECT_EQ(tracer.recorded(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // The export must still be valid JSON.
  JsonParser parser(tracer.to_chrome_json());
  parser.parse();
  EXPECT_FALSE(parser.failed());
}

TEST(Tracer, SpansDroppedCounterMirrorsLostSpansExactly) {
  PM_SKIP_IF_NO_TELEMETRY();
  Telemetry telemetry(2, /*trace_capacity_per_shard=*/4);
  // Shard 0 overflows by 3; shard 1 stays within capacity.
  for (int i = 0; i < 7; ++i) telemetry.tracer().record(0, "e", "c", i, 1);
  for (int i = 0; i < 2; ++i) telemetry.tracer().record(1, "e", "c", i, 1);

  const MetricsSnapshot snap = telemetry.snapshot();
  const auto* drops = snap.find_counter("tracer.spans_dropped");
  ASSERT_NE(drops, nullptr);
  EXPECT_EQ(drops->total, telemetry.tracer().dropped());
  EXPECT_EQ(drops->per_shard[0], 3u);
  EXPECT_EQ(drops->per_shard[1], 0u);
}

TEST(Tracer, SpansDroppedCounterZeroWhenNothingLost) {
  PM_SKIP_IF_NO_TELEMETRY();
  Telemetry telemetry(1, /*trace_capacity_per_shard=*/16);
  for (int i = 0; i < 10; ++i) telemetry.tracer().record(0, "e", "c", i, 1);
  const MetricsSnapshot snap = telemetry.snapshot();
  const auto* drops = snap.find_counter("tracer.spans_dropped");
  ASSERT_NE(drops, nullptr);
  EXPECT_EQ(drops->total, 0u);
  EXPECT_EQ(telemetry.tracer().dropped(), 0u);
}

TEST(Tracer, PosetGaugesRegisteredInTelemetry) {
  Telemetry telemetry(1);
  telemetry.metrics().set(telemetry.poset_resident_bytes, 0, 12345);
  telemetry.metrics().set(telemetry.poset_reclaimed_events, 0, 67);
  const MetricsSnapshot snap = telemetry.snapshot();
  const auto* resident = snap.find_gauge("poset.resident_bytes");
  const auto* reclaimed = snap.find_gauge("poset.reclaimed_events");
  ASSERT_NE(resident, nullptr);
  ASSERT_NE(reclaimed, nullptr);
  if constexpr (obs::kTelemetryEnabled) {
    EXPECT_EQ(resident->total, 12345u);
    EXPECT_EQ(reclaimed->total, 67u);
  }
}

TEST(Tracer, NullTracerSpanIsInert) {
  [[maybe_unused]] TraceSpan inactive;  // default constructed
  TraceSpan null_span(nullptr, 0, "n", "c");
  null_span.set_arg(1);
  EXPECT_EQ(null_span.finish(), 0u);
}

// ---- thread pool queue-wait instrumentation ----

TEST(ThreadPoolTelemetry, WaitIdleStressAccountsEveryTask) {
  PM_SKIP_IF_NO_TELEMETRY();
  constexpr std::size_t kWorkers = 4;
  constexpr int kRounds = 20;
  constexpr int kTasksPerRound = 100;
  Telemetry telemetry(kWorkers);
  ThreadPool pool(kWorkers, &telemetry);

  std::atomic<int> executed{0};
  for (int round = 0; round < kRounds; ++round) {
    for (int t = 0; t < kTasksPerRound; ++t) {
      // relaxed: execution tally, checked only after wait_idle().
      pool.submit([&] { executed.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();  // stress the idle tracking against telemetry writes
    const MetricsSnapshot snap = telemetry.snapshot();
    const std::uint64_t expected =
        static_cast<std::uint64_t>(round + 1) * kTasksPerRound;
    EXPECT_EQ(snap.find_counter("pool.tasks")->total, expected);
    EXPECT_EQ(snap.find_histogram("pool.queue_wait_ns")->count, expected);
  }
  EXPECT_EQ(executed.load(), kRounds * kTasksPerRound);
  if constexpr (obs::kTelemetryEnabled) {
    // Every task also produced a "task" span (buffers are large enough).
    EXPECT_EQ(telemetry.tracer().recorded() + telemetry.tracer().dropped(),
              static_cast<std::uint64_t>(kRounds) * kTasksPerRound);
  }
}

// ---- driver integration ----

Poset telemetry_test_poset() {
  RandomPosetParams params;
  params.num_processes = 6;
  params.num_events = 36;
  params.message_probability = 0.8;
  params.seed = 17;
  return make_random_poset(params);
}

TEST(DriverTelemetry, OfflineCountersMatchResult) {
  const Poset poset = telemetry_test_poset();
  Telemetry telemetry(4);
  ParamountOptions options;
  options.num_workers = 4;
  options.telemetry = &telemetry;
  const ParamountResult result =
      enumerate_paramount(poset, options, [](const Frontier&) {});

  const MetricsSnapshot snap = telemetry.snapshot();
  if constexpr (obs::kTelemetryEnabled) {
    EXPECT_EQ(snap.find_counter("paramount.states")->total, result.states);
    EXPECT_EQ(snap.find_counter("paramount.intervals")->total,
              poset.total_events());
    EXPECT_EQ(snap.find_histogram("paramount.interval_states")->count,
              poset.total_events());
    EXPECT_EQ(snap.find_histogram("paramount.interval_ns")->count,
              poset.total_events());
    EXPECT_GT(telemetry.tracer().recorded(), 0u);
  } else {
    EXPECT_EQ(snap.find_counter("paramount.states")->total, 0u);
  }
}

TEST(DriverTelemetry, StreamingRecordsQueueWaitAndGbnd) {
  const Poset poset = telemetry_test_poset();
  const auto order = topological_sort(poset, TopoPolicy::kInterleave);
  Telemetry telemetry(3);
  ParamountOptions options;
  options.num_workers = 3;
  options.telemetry = &telemetry;
  const ParamountResult result = enumerate_paramount_streaming(
      poset, order, options, [](const Frontier&) {});

  if constexpr (obs::kTelemetryEnabled) {
    const MetricsSnapshot snap = telemetry.snapshot();
    EXPECT_EQ(snap.find_counter("paramount.states")->total, result.states);
    // One claim, one queue-wait observation and one Gbnd snapshot per
    // event: a cursor claim takes exactly one event.
    const std::uint64_t claims = snap.find_counter("paramount.claims")->total;
    EXPECT_EQ(claims, order.size());
    EXPECT_EQ(snap.find_histogram("pool.queue_wait_ns")->count, claims);
    EXPECT_EQ(snap.find_histogram("paramount.gbnd_ns")->count, claims);
  }
}

// Workers that find the cursor already exhausted on their way out must not
// record anything: with more workers than events, claims still equals the
// event count exactly.
TEST(DriverTelemetry, StreamingEmptyClaimsAreNotCounted) {
  PosetBuilder builder(1);
  for (int i = 0; i < 3; ++i) builder.add_event(0);
  const Poset poset = std::move(builder).build();
  const auto order = topological_sort(poset, TopoPolicy::kInterleave);
  Telemetry telemetry(8);
  ParamountOptions options;
  options.num_workers = 8;
  options.telemetry = &telemetry;
  enumerate_paramount_streaming(poset, order, options, [](const Frontier&) {});
  if constexpr (obs::kTelemetryEnabled) {
    const MetricsSnapshot snap = telemetry.snapshot();
    EXPECT_EQ(snap.find_counter("paramount.claims")->total, order.size());
    EXPECT_EQ(snap.find_histogram("paramount.gbnd_ns")->count, order.size());
  }
}

TEST(DriverTelemetry, OnlineInlineModeShardsBySubmitter) {
  const Poset poset = telemetry_test_poset();
  const auto order = topological_sort(poset, TopoPolicy::kInterleave);
  Telemetry telemetry(poset.num_threads());
  OnlineParamount::Options options;
  options.telemetry = &telemetry;
  OnlineParamount online(poset.num_threads(), options,
                         [](const OnlinePoset&, EventId, const Frontier&) {});
  for (const EventId id : order) {
    const Event& e = poset.event(id);
    online.submit(id.tid, e.kind, e.object, e.vc);
  }
  online.drain();

  if constexpr (obs::kTelemetryEnabled) {
    const MetricsSnapshot snap = telemetry.snapshot();
    EXPECT_EQ(snap.find_counter("paramount.states")->total,
              online.states_enumerated());
    EXPECT_EQ(snap.find_counter("paramount.intervals")->total,
              online.intervals_processed());
    std::uint64_t timed = 0;
    for (ThreadId t = 0; t < poset.num_threads(); ++t) {
      timed += testing::timed_count(poset.num_events(t));
    }
    EXPECT_EQ(snap.find_histogram("paramount.gbnd_ns")->count, timed);
  }
}

}  // namespace
}  // namespace paramount
