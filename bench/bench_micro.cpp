// Micro benchmarks (google-benchmark) for the hot primitives underneath the
// enumeration stack: vector-clock operations, bounded lexical enumeration of
// interval boxes, BFS level expansion, interval computation, topological
// sorting, the concurrent containers, the telemetry hot path, and the
// service session's per-frame cost.
//
// Telemetry overhead acceptance: compare BM_ParamountDriver against
// BM_ParamountDriverTelemetry in a default build, or rebuild with
// -DPARAMOUNT_NO_TELEMETRY=ON and compare the telemetry variant against
// itself across builds; the instrumented driver must stay within 2%.
// BM_OnlineSubmitOneState and BM_OnlineSubmitOneStateTelemetry give the
// same delta for the online driver's submit path, whose telemetry reads
// the clock for one event in 64 per shard: the telemetry case must stay
// within 10% of the plain one at widths 8 and 64 (medians of 5 alternated
// rounds), and CI's Release job fails above 1.5x at width 8.
#include <benchmark/benchmark.h>

#include <chrono>

#include "core/interval.hpp"
#include "core/online_paramount.hpp"
#include "core/paramount.hpp"
#include "enumeration/bfs_enumerator.hpp"
#include "enumeration/lexical_enumerator.hpp"
#include "obs/telemetry.hpp"
#include "poset/lattice.hpp"
#include "poset/poset_builder.hpp"
#include "poset/topo_sort.hpp"
#include "service/frame.hpp"
#include "service/session.hpp"
#include "util/stable_vector.hpp"
#include "workloads/event_stream.hpp"
#include "workloads/random_poset.hpp"
#include "workloads/scenarios/scenarios.hpp"

namespace paramount {
namespace {

Poset bench_poset(std::size_t processes, std::size_t events) {
  RandomPosetParams params;
  params.num_processes = processes;
  params.num_events = events;
  params.message_probability = 0.9;
  params.seed = 99;
  return make_random_poset(params);
}

void BM_VectorClockJoin(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  VectorClock a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<EventIndex>(i * 3 % 7);
    b[i] = static_cast<EventIndex>(i * 5 % 11);
  }
  for (auto _ : state) {
    VectorClock c = a;
    c.join(b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_VectorClockJoin)->Arg(4)->Arg(10)->Arg(32);

void BM_VectorClockLeq(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  VectorClock a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<EventIndex>(i + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.leq(b));
  }
}
BENCHMARK(BM_VectorClockLeq)->Arg(4)->Arg(10)->Arg(32);

// The shape ParaMount runs: every interval box of a 6-thread hot-var stream
// (perfbench's offline-hotvar draws its segments from the same scenario),
// in the stream's own →p order, with a no-op visitor.
void BM_LexicalIntervalBoxes(benchmark::State& state) {
  std::unique_ptr<ScenarioStream> stream =
      make_scenario("hot-var", ScenarioParams{6, 200, 1});
  PosetBuilder builder(6);
  std::vector<EventId> order;
  trace::TraceEvent ev;
  while (stream->next(&ev)) {
    order.push_back(
        builder.add_event_with_clock(ev.tid, ev.kind, ev.object, ev.clock));
  }
  const Poset poset = std::move(builder).build();
  const std::vector<Interval> intervals = compute_intervals(poset, order);
  std::uint64_t states = 0;
  for (auto _ : state) {
    states = 0;
    for (const Interval& iv : intervals) {
      states += enumerate_lexical(poset, iv.gmin, iv.gbnd,
                                  [](const Frontier&) {})
                    .states;
    }
    benchmark::DoNotOptimize(states);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(states) *
                          state.iterations());
}
BENCHMARK(BM_LexicalIntervalBoxes)->Unit(benchmark::kMillisecond);

void BM_LexicalFullEnumeration(benchmark::State& state) {
  const Poset poset = bench_poset(8, static_cast<std::size_t>(state.range(0)));
  std::uint64_t states = 0;
  for (auto _ : state) {
    states = enumerate_lexical(poset, [](const Frontier&) {}).states;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(states) *
                          state.iterations());
}
BENCHMARK(BM_LexicalFullEnumeration)->Arg(24)->Arg(32);

void BM_BfsFullEnumeration(benchmark::State& state) {
  const Poset poset = bench_poset(8, static_cast<std::size_t>(state.range(0)));
  std::uint64_t states = 0;
  for (auto _ : state) {
    states = enumerate_bfs(poset, [](const Frontier&) {}).states;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(states) *
                          state.iterations());
}
BENCHMARK(BM_BfsFullEnumeration)->Arg(24)->Arg(32);

void BM_ComputeIntervals(benchmark::State& state) {
  const Poset poset =
      bench_poset(10, static_cast<std::size_t>(state.range(0)));
  const auto order = topological_sort(poset, TopoPolicy::kInterleave);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_intervals(poset, order));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(order.size()) *
                          state.iterations());
}
BENCHMARK(BM_ComputeIntervals)->Arg(100)->Arg(1000);

void BM_TopologicalSort(benchmark::State& state) {
  const Poset poset =
      bench_poset(10, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        topological_sort(poset, TopoPolicy::kInterleave));
  }
}
BENCHMARK(BM_TopologicalSort)->Arg(100)->Arg(1000);

void BM_StableVectorPushBack(benchmark::State& state) {
  for (auto _ : state) {
    StableVector<std::uint64_t> v;
    for (std::uint64_t i = 0; i < 1024; ++i) v.push_back(i);
    benchmark::DoNotOptimize(v.size());
  }
  state.SetItemsProcessed(1024 * state.iterations());
}
BENCHMARK(BM_StableVectorPushBack);

void BM_StableVectorRead(benchmark::State& state) {
  StableVector<std::uint64_t> v;
  for (std::uint64_t i = 0; i < 4096; ++i) v.push_back(i);
  std::uint64_t sum = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < 4096; ++i) sum += v[i];
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(4096 * state.iterations());
}
BENCHMARK(BM_StableVectorRead);

void BM_StableVectorReleasePrefix(benchmark::State& state) {
  // Append-and-release in a steady-state window: the cost the sliding-window
  // GC pays per event once a long run reaches its resident plateau.
  for (auto _ : state) {
    StableVector<std::uint64_t, 2048> v;  // 256-row segments
    for (std::uint64_t i = 0; i < 16384; ++i) {
      v.push_back(i);
      if ((i & 1023) == 1023) v.release_prefix(i - 512);
    }
    benchmark::DoNotOptimize(v.heap_bytes());
  }
  state.SetItemsProcessed(16384 * state.iterations());
}
BENCHMARK(BM_StableVectorReleasePrefix);

// Long-run memory bench: stream events through the online driver with the
// sliding window off (Arg 0) vs on (Arg 1) and report the poset's peak
// resident bytes as a counter — the GC-on figure must plateau while the
// GC-off one scales with the stream length.
void BM_OnlineStreamMemory(benchmark::State& state) {
  const bool windowed = state.range(0) != 0;
  const std::uint64_t total_events = 50000;
  std::size_t peak_bytes = 0;
  std::uint64_t states_seen = 0;
  for (auto _ : state) {
    OnlineParamount::Options options;
    if (windowed) options.window_policy.gc_every = 1024;
    OnlineParamount driver(
        4, options, [](const OnlinePoset&, EventId, const Frontier&) {});
    SyntheticEventStream stream(
        {.num_threads = 4, .num_locks = 2, .sync_probability = 0.8,
         .seed = 7});
    for (std::uint64_t i = 0; i < total_events; ++i) {
      SyntheticEventStream::StreamEvent ev = stream.next();
      driver.submit(ev.tid, ev.kind, ev.object, std::move(ev.clock));
      if ((i & 1023) == 0) {
        peak_bytes = std::max(peak_bytes, driver.poset().heap_bytes());
      }
    }
    peak_bytes = std::max(peak_bytes, driver.poset().heap_bytes());
    states_seen = driver.states_enumerated();
  }
  state.counters["peak_poset_bytes"] =
      benchmark::Counter(static_cast<double>(peak_bytes));
  state.counters["states"] =
      benchmark::Counter(static_cast<double>(states_seen));
  state.SetItemsProcessed(static_cast<std::int64_t>(total_events) *
                          state.iterations());
}
BENCHMARK(BM_OnlineStreamMemory)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// ---- telemetry ----

void BM_MetricsCounterAdd(benchmark::State& state) {
  obs::MetricsRegistry registry(1);
  const obs::MetricId id = registry.counter("bench.counter");
  for (auto _ : state) {
    registry.add(id, 0);
  }
  benchmark::DoNotOptimize(registry.snapshot());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterAdd);

void BM_MetricsHistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry registry(1);
  const obs::MetricId id = registry.histogram("bench.histogram");
  std::uint64_t v = 1;
  for (auto _ : state) {
    registry.observe(id, 0, v);
    v = v * 6364136223846793005ULL + 1;  // cheap LCG to vary the bucket
  }
  benchmark::DoNotOptimize(registry.snapshot());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsHistogramObserve);

void BM_SpanRecord(benchmark::State& state) {
  obs::SpanTracer tracer(1, /*capacity_per_shard=*/64);
  for (auto _ : state) {
    // Capacity is tiny on purpose: steady-state tracing cost is the
    // full-buffer path (a counter bump), which is what long runs pay.
    obs::TraceSpan span(&tracer, 0, "bench", "bench");
  }
  benchmark::DoNotOptimize(tracer.dropped());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanRecord);

// The ParaMount driver with and without an attached Telemetry sink; the
// delta is the end-to-end instrumentation overhead the <2% budget is about.
void paramount_driver_bench(benchmark::State& state, bool with_telemetry) {
  const Poset poset = bench_poset(8, 32);
  ParamountOptions options;
  options.num_workers = 1;
  obs::Telemetry telemetry(1, /*trace_capacity_per_shard=*/256);
  if (with_telemetry) options.telemetry = &telemetry;
  std::uint64_t states = 0;
  for (auto _ : state) {
    states =
        enumerate_paramount(poset, options, [](const Frontier&) {}).states;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(states) *
                          state.iterations());
}

void BM_ParamountDriver(benchmark::State& state) {
  paramount_driver_bench(state, false);
}
BENCHMARK(BM_ParamountDriver);

void BM_ParamountDriverTelemetry(benchmark::State& state) {
  paramount_driver_bench(state, true);
}
BENCHMARK(BM_ParamountDriverTelemetry);

// One-state intervals through inline OnlineParamount, the convoy's shape:
// every event's clock covers every event inserted before it (Gmin == Gbnd),
// round robin over Arg(0) threads, with a no-op visitor and window GC every
// 4096 inserts. The Telemetry variant attaches the sink a service session
// attaches: one shard for its single submitting thread and no span buffers,
// so its clock reads fall on one submit in 64.
void online_submit_bench(benchmark::State& state, bool with_telemetry) {
  const auto width = static_cast<std::size_t>(state.range(0));
  obs::Telemetry telemetry(1, /*trace_capacity_per_shard=*/0);
  OnlineParamount::Options options;
  options.single_submitter = true;
  options.window_policy.gc_every = 4096;
  if (with_telemetry) options.telemetry = &telemetry;
  OnlineParamount driver(width, options,
                         [](const OnlinePoset&, EventId, const Frontier&) {});
  VectorClock clock(width);
  std::uint64_t k = 0;
  for (auto _ : state) {
    const auto tid = static_cast<ThreadId>(k++ % width);
    clock[tid] += 1;
    benchmark::DoNotOptimize(driver.submit(tid, OpKind::kInternal, 0, clock));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_OnlineSubmitOneState(benchmark::State& state) {
  online_submit_bench(state, false);
}
BENCHMARK(BM_OnlineSubmitOneState)->Arg(8)->Arg(64);

void BM_OnlineSubmitOneStateTelemetry(benchmark::State& state) {
  online_submit_bench(state, true);
}
BENCHMARK(BM_OnlineSubmitOneStateTelemetry)->Arg(8)->Arg(64);

// ---- service session ----

// perfbench's service-convoy input: the 64-thread lock convoy (60,000
// events, seed 1) as Event frame payloads, each clock delta-encoded against
// its thread's previous one.
const std::vector<std::vector<std::uint8_t>>& convoy_frames() {
  static const std::vector<std::vector<std::uint8_t>> frames = [] {
    constexpr std::size_t kThreads = 64;
    std::unique_ptr<ScenarioStream> stream =
        make_scenario("lock-convoy-64", ScenarioParams{kThreads, 60000, 1});
    std::vector<std::vector<std::uint8_t>> out;
    std::vector<VectorClock> prev(kThreads, VectorClock(kThreads));
    trace::TraceEvent ev;
    while (stream->next(&ev)) {
      service::EventBody body;
      body.tid = ev.tid;
      body.kind = ev.kind;
      body.object = ev.object;
      for (std::size_t j = 0; j < kThreads; ++j) {
        if (ev.clock[j] != prev[ev.tid][j]) {
          body.delta.push_back({static_cast<std::uint32_t>(j), ev.clock[j]});
        }
      }
      prev[ev.tid] = ev.clock;
      for (const trace::TraceAccess& a : ev.accesses) {
        body.accesses.push_back({a.var, a.is_write, a.is_init});
      }
      out.push_back(service::encode_event(body));
    }
    return out;
  }();
  return frames;
}

// What the daemon's reactor spends on service-convoy, without the socket:
// the convoy's Event frames through one SessionCore with 2 pool workers,
// window GC every 4096 inserts and a Poll after every 500 frames, then a
// Drain. ns_per_frame is the mean time of an Event frame's on_payload,
// us_per_poll that of a Poll's; each is timed once per 500-frame batch.
void BM_SessionEventFrame(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  const std::vector<std::vector<std::uint8_t>>& frames = convoy_frames();
  service::HelloBody hello;
  hello.num_threads = 64;
  hello.async_workers = 2;
  hello.gc_every = 4096;
  const std::vector<std::uint8_t> hello_frame = service::encode_hello(hello);
  const std::vector<std::uint8_t> poll = service::encode_poll();
  const std::vector<std::uint8_t> drain = service::encode_drain();
  constexpr std::size_t kPollEvery = 500;
  std::chrono::nanoseconds frame_time{0};
  std::chrono::nanoseconds poll_time{0};
  std::uint64_t polls = 0;
  std::uint64_t states = 0;
  bool ok = true;
  for (auto _ : state) {
    service::SessionCore core(
        1, {}, [](std::span<const std::uint8_t>) { return true; });
    const auto feed = [&](const std::vector<std::uint8_t>& payload) {
      ok = ok && core.on_payload(payload) ==
                     service::SessionCore::Disposition::kContinue;
    };
    feed(hello_frame);
    Clock::time_point batch = Clock::now();
    for (std::size_t i = 0; i < frames.size(); ++i) {
      feed(frames[i]);
      if ((i + 1) % kPollEvery != 0) continue;  // 60,000 frames: 120 Polls
      const Clock::time_point polled = Clock::now();
      feed(poll);
      const Clock::time_point resumed = Clock::now();
      frame_time += polled - batch;
      poll_time += resumed - polled;
      ++polls;
      batch = resumed;
    }
    feed(drain);
    core.finish();
    states = core.result().counts.states;
    benchmark::DoNotOptimize(states);
  }
  if (!ok) state.SkipWithError("the session refused a frame");
  const auto per_run = static_cast<double>(state.iterations());
  state.counters["ns_per_frame"] =
      static_cast<double>(frame_time.count()) /
      (per_run * static_cast<double>(frames.size()));
  state.counters["us_per_poll"] =
      static_cast<double>(poll_time.count()) * 1e-3 /
      static_cast<double>(std::max<std::uint64_t>(polls, 1));
  state.counters["states"] = static_cast<double>(states);
  state.SetItemsProcessed(static_cast<std::int64_t>(frames.size()) *
                          state.iterations());
}
BENCHMARK(BM_SessionEventFrame)->Unit(benchmark::kMillisecond)->UseRealTime();

// ---- scheduler ----

// The driver at 8 workers on a skewed workload: a sparse random poset mixes
// one-state intervals with intervals of tens of thousands of states. The
// queue_wait_p99_ns counter shows how long a worker waits at the cursor for
// its next event.
void BM_ParamountOffline8Workers(benchmark::State& state) {
  RandomPosetParams params;
  params.num_processes = 6;
  params.num_events = 150;
  params.message_probability = 0.85;  // sparse sync: skewed interval sizes
  params.seed = 1;
  const Poset poset = make_random_poset(params);
  ParamountOptions options;
  options.num_workers = 8;
  obs::Telemetry telemetry(options.num_workers,
                           /*trace_capacity_per_shard=*/256);
  options.telemetry = &telemetry;
  std::uint64_t states = 0;
  for (auto _ : state) {
    states =
        enumerate_paramount(poset, options, [](const Frontier&) {}).states;
  }
  const obs::MetricsSnapshot snap = telemetry.metrics().snapshot();
  if (const obs::HistogramSnapshot* h =
          snap.find_histogram("pool.queue_wait_ns")) {
    state.counters["queue_wait_p99_ns"] = h->quantile(0.99);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(states) *
                          state.iterations());
}

BENCHMARK(BM_ParamountOffline8Workers)->UseRealTime();

void BM_IsConsistent(benchmark::State& state) {
  const Poset poset = bench_poset(10, 60);
  const Frontier frontier = poset.full_frontier();
  for (auto _ : state) {
    benchmark::DoNotOptimize(poset.is_consistent(frontier));
  }
}
BENCHMARK(BM_IsConsistent);

}  // namespace
}  // namespace paramount

BENCHMARK_MAIN();
