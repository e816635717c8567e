// paramount — command-line front end to the enumeration library.
//
// Load a poset from a .pmt trace (src/trace/format.hpp; `paramount --save`
// and `paramount-trace gen|record` write one) or generate a random
// distributed computation, then count or print its consistent global states
// with any algorithm, inspect the interval partition, or run the
// weak-conjunctive detector. A file that cannot be read or written, or
// whose clocks do not form a poset, exits 1 with one `error:` line.
//
//   paramount --generate-events=60 --save=g.pmt --mode=count --workers=8
//   paramount --input=g.pmt --mode=print --algorithm=lexical
//   paramount --input=trace.pmt --mode=intervals
//   paramount --generate-events=300 --mode=conjunctive --modulus=3
//
// Observability (see README "Observability"): count mode prints a per-worker
// summary table and can export machine-readable metrics and a Chrome trace:
//   paramount --generate-events=300 --mode=count --workers=8
//       --metrics-json=metrics.json --trace-out=trace.json
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "core/online_paramount.hpp"
#include "core/paramount.hpp"
#include "detect/conjunctive.hpp"
#include "obs/telemetry.hpp"
#include "poset/lattice.hpp"
#include "poset/topo_sort.hpp"
#include "trace/replay.hpp"
#include "util/cli.hpp"
#include "util/mem_meter.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workloads/event_stream.hpp"
#include "workloads/random_poset.hpp"

using namespace paramount;

namespace {

EnumAlgorithm parse_algorithm(const std::string& name) {
  if (name == "bfs") return EnumAlgorithm::kBfs;
  if (name == "lexical") return EnumAlgorithm::kLexical;
  std::fprintf(stderr, "error: unknown --algorithm '%s'\n", name.c_str());
  std::exit(2);
}

TopoPolicy parse_policy(const std::string& name) {
  if (name == "interleave") return TopoPolicy::kInterleave;
  if (name == "thread-major") return TopoPolicy::kThreadMajor;
  if (name == "random") return TopoPolicy::kRandom;
  std::fprintf(stderr, "error: unknown --order '%s'\n", name.c_str());
  std::exit(2);
}

std::string format_ns(double ns) {
  if (std::isnan(ns)) return "-";
  return format_seconds(ns * 1e-9);
}

// Writes --metrics-json / --trace-out if requested; returns the exit status.
int export_telemetry(const obs::Telemetry& telemetry, const CliFlags& flags) {
  int status = 0;
  const std::string metrics_path = flags.get_string("metrics-json");
  if (!metrics_path.empty()) {
    if (telemetry.write_metrics_json(metrics_path)) {
      std::printf("metrics written to %s\n", metrics_path.c_str());
    } else {
      status = 1;
    }
  }
  const std::string trace_path = flags.get_string("trace-out");
  if (!trace_path.empty()) {
    if (telemetry.write_chrome_trace(trace_path)) {
      std::printf(
          "trace written to %s (open in ui.perfetto.dev or "
          "chrome://tracing)\n",
          trace_path.c_str());
    } else {
      status = 1;
    }
  }
  return status;
}

// Per-worker summary plus the interval-size histogram, from one snapshot.
// `pool_column` keeps the queue-depth column, which only online mode's pool
// writes: the offline driver has no queue.
void print_telemetry_summary(const obs::Telemetry& telemetry,
                             double elapsed_seconds, bool pool_column) {
  const obs::MetricsSnapshot snap = telemetry.snapshot();
  const obs::CounterSnapshot* states = snap.find_counter("paramount.states");
  const obs::CounterSnapshot* intervals =
      snap.find_counter("paramount.intervals");
  const obs::HistogramSnapshot* queue_wait =
      snap.find_histogram("pool.queue_wait_ns");
  const obs::HistogramSnapshot* sizes =
      snap.find_histogram("paramount.interval_states");
  if (states == nullptr || intervals == nullptr || queue_wait == nullptr ||
      sizes == nullptr) {
    return;
  }

  const obs::CounterSnapshot* drops = snap.find_counter("tracer.spans_dropped");
  // Live gauge: the pool queue's depth as of its last push or pop, on the
  // pool's first shard, so a snapshot taken mid-run shows the backlog.
  const obs::CounterSnapshot* depth = snap.find_gauge("pool.queue_depth");
  // Drops the pool's column, queue-depth (the last), if unwanted.
  const auto columns = [pool_column](std::vector<std::string> cells) {
    if (!pool_column) cells.pop_back();
    return cells;
  };

  Table workers(columns({"worker", "states", "intervals", "spans-drop",
                         "states/s", "queue-wait", "queue-depth"}));
  for (std::size_t w = 0; w < snap.num_shards; ++w) {
    const double wait_mean =
        queue_wait->per_shard_count[w] == 0
            ? std::numeric_limits<double>::quiet_NaN()
            : static_cast<double>(queue_wait->per_shard_sum[w]) /
                  static_cast<double>(queue_wait->per_shard_count[w]);
    workers.add_row(columns(
        {std::to_string(w), format_count(states->per_shard[w]),
         format_count(intervals->per_shard[w]),
         drops == nullptr ? "-" : format_count(drops->per_shard[w]),
         format_si(static_cast<double>(states->per_shard[w]) /
                   elapsed_seconds),
         format_ns(wait_mean),
         depth == nullptr ? "-" : format_count(depth->per_shard[w])}));
  }
  workers.add_separator();
  workers.add_row(columns(
      {"all", format_count(states->total), format_count(intervals->total),
       drops == nullptr ? "-" : format_count(drops->total),
       format_si(static_cast<double>(states->total) / elapsed_seconds),
       format_ns(queue_wait->quantile(0.5)),
       depth == nullptr ? "-" : format_count(depth->total)}));
  std::printf("\nper-worker telemetry:\n%s", workers.render().c_str());

  std::printf("\ninterval size histogram (states per interval):\n");
  Table histogram({"range", "intervals", ""});
  std::uint64_t largest = 1;
  for (std::size_t b = 0; b < obs::kHistogramBuckets; ++b) {
    largest = std::max(largest, sizes->buckets[b]);
  }
  for (std::size_t b = 0; b < obs::kHistogramBuckets; ++b) {
    if (sizes->buckets[b] == 0) continue;
    const std::uint64_t lo = obs::HistogramSnapshot::bucket_lo(b);
    const std::uint64_t hi = obs::HistogramSnapshot::bucket_hi(b);
    const auto bar_len = static_cast<std::size_t>(
        40.0 * static_cast<double>(sizes->buckets[b]) /
        static_cast<double>(largest));
    histogram.add_row({"[" + format_count(lo) + ", " + format_count(hi) + ")",
                       format_count(sizes->buckets[b]),
                       std::string(std::max<std::size_t>(bar_len, 1), '#')});
  }
  std::fputs(histogram.render().c_str(), stdout);
}

int run_count(const Poset& poset, const CliFlags& flags) {
  ParamountOptions options;
  // Validated here rather than downcast blindly: --workers=-1 used to wrap
  // to SIZE_MAX and ask Telemetry for ~2^64 shards, and --workers=0 died on
  // a raw PM_CHECK abort inside the driver.
  options.num_workers = static_cast<std::size_t>(
      flags.get_int_in_range("workers", 1, 1 << 14));
  options.subroutine = parse_algorithm(flags.get_string("algorithm"));
  options.topo_policy = parse_policy(flags.get_string("order"));

  obs::Telemetry telemetry(options.num_workers);
  options.telemetry = &telemetry;

  WallTimer timer;
  const ParamountResult result =
      enumerate_paramount(poset, options, [](const Frontier&) {});
  const double elapsed = timer.elapsed_seconds();

  std::printf("consistent global states: %s\n",
              format_count(result.states).c_str());
  std::printf(
      "algorithm: ParaMount(%s, %zu workers, %s order), %s\n",
      to_string(options.subroutine), options.num_workers,
      to_string(options.topo_policy), format_seconds(elapsed).c_str());

  if constexpr (obs::kTelemetryEnabled) {
    print_telemetry_summary(telemetry, elapsed, /*pool_column=*/false);
  } else {
    std::printf("(telemetry compiled out: PARAMOUNT_NO_TELEMETRY)\n");
  }
  return export_telemetry(telemetry, flags);
}

// Long-run online monitoring: streams synthetically generated events through
// OnlineParamount with the sliding-window GC, reporting bounded-memory
// figures in grep-friendly `key: value` lines (the CI memory-smoke job diffs
// windowed vs unwindowed runs on them).
int run_online(const CliFlags& flags) {
  SyntheticEventStream::Params sp;
  sp.num_threads = static_cast<std::size_t>(
      flags.get_int_in_range("stream-threads", 1, 1 << 12));
  sp.num_locks = static_cast<std::size_t>(
      flags.get_int_in_range("stream-locks", 1, 1 << 12));
  sp.sync_probability = flags.get_double("sync-prob");
  sp.seed = static_cast<std::uint64_t>(flags.get_int_in_range(
      "seed", 0, std::numeric_limits<std::int64_t>::max()));
  const auto total_events = static_cast<std::uint64_t>(
      flags.get_int_in_range("stream-events", 1, std::int64_t{1} << 40));

  OnlineParamount::Options options;
  options.subroutine = parse_algorithm(flags.get_string("algorithm"));
  options.async_workers = static_cast<std::size_t>(
      flags.get_int_in_range("async-workers", 0, 1 << 10));
  OnlineParamount::WindowPolicy& wp = options.window_policy;
  wp.gc_every = static_cast<std::uint64_t>(flags.get_int_in_range(
      "gc-every", 0, std::numeric_limits<std::int64_t>::max()));
  const std::string window_bytes = flags.get_string("window-bytes");
  if (!window_bytes.empty()) {
    std::uint64_t bytes = 0;
    if (!parse_byte_size(window_bytes, &bytes)) {
      std::fprintf(stderr,
                   "error: --window-bytes expects e.g. 64M / 512K / 1G, got "
                   "'%s'\n",
                   window_bytes.c_str());
      return 2;
    }
    wp.window_bytes = static_cast<std::size_t>(bytes);
  }
  obs::Telemetry telemetry(sp.num_threads + options.async_workers);
  options.telemetry = &telemetry;

  std::printf("online stream: %zu threads, %zu locks, %s events, "
              "sync-prob %.2f, %s\n",
              sp.num_threads, sp.num_locks,
              format_count(total_events).c_str(), sp.sync_probability,
              wp.enabled()
                  ? ("window GC on (gc-every " + std::to_string(wp.gc_every) +
                     ", window-bytes " + std::to_string(wp.window_bytes) + ")")
                        .c_str()
                  : "window GC off");

  OnlineParamount driver(
      sp.num_threads, options,
      [](const OnlinePoset&, EventId, const Frontier&) {});
  SyntheticEventStream stream(sp);

  WallTimer timer;
  std::size_t peak_bytes = 0;
  for (std::uint64_t i = 0; i < total_events; ++i) {
    SyntheticEventStream::StreamEvent ev = stream.next();
    driver.submit(ev.tid, ev.kind, ev.object, std::move(ev.clock));
    if ((i & 1023) == 0) {
      peak_bytes = std::max(peak_bytes, driver.poset().heap_bytes());
    }
  }
  driver.drain();
  peak_bytes = std::max(peak_bytes, driver.poset().heap_bytes());
  const OnlinePoset::CollectStats final_gc =
      wp.enabled() ? driver.collect() : OnlinePoset::CollectStats{};
  const double elapsed = timer.elapsed_seconds();

  std::printf("states enumerated: %s (%s events/s), %s\n",
              format_count(driver.states_enumerated()).c_str(),
              format_si(static_cast<double>(total_events) / elapsed).c_str(),
              format_seconds(elapsed).c_str());
  std::printf("peak_poset_bytes: %zu\n", peak_bytes);
  std::printf("resident_poset_bytes: %zu\n",
              wp.enabled() ? final_gc.resident_bytes
                           : driver.poset().heap_bytes());
  std::printf("reclaimed_events: %llu\n",
              static_cast<unsigned long long>(
                  driver.poset().reclaimed_events()));
  std::printf("spans_dropped: %llu\n",
              static_cast<unsigned long long>(telemetry.tracer().dropped()));
  std::printf("peak_rss_bytes: %zu\n", peak_rss_bytes());

  if constexpr (obs::kTelemetryEnabled) {
    print_telemetry_summary(telemetry, elapsed, /*pool_column=*/true);
  }

  int status = export_telemetry(telemetry, flags);
  const std::int64_t budget_mb =
      flags.get_int_in_range("rss-budget-mb", 0, 1 << 20);
  if (budget_mb > 0) {
    const std::size_t budget =
        static_cast<std::size_t>(budget_mb) * 1024 * 1024;
    const std::size_t rss = peak_rss_bytes();
    if (rss > budget) {
      std::fprintf(stderr,
                   "error: peak RSS %zu bytes exceeds --rss-budget-mb %lld\n",
                   rss, static_cast<long long>(budget_mb));
      return 1;
    }
    std::printf("peak RSS within budget (%zu <= %lld MiB)\n", rss,
                static_cast<long long>(budget_mb));
  }
  return status;
}

int run_print(const Poset& poset, const CliFlags& flags) {
  const auto algorithm = parse_algorithm(flags.get_string("algorithm"));
  const auto limit = static_cast<std::uint64_t>(
      flags.get_int_in_range("limit", 0, std::numeric_limits<std::int64_t>::max()));
  std::uint64_t printed = 0;
  std::uint64_t total = 0;
  enumerate_all(algorithm, poset, [&](const Frontier& g) {
    ++total;
    if (printed < limit) {
      std::printf("%s\n", g.to_string().c_str());
      ++printed;
    }
  });
  if (total > printed) {
    std::printf("... (%s more; raise --limit)\n",
                format_count(total - printed).c_str());
  }
  return 0;
}

int run_intervals(const Poset& poset, const CliFlags& flags) {
  const auto policy = parse_policy(flags.get_string("order"));
  obs::Telemetry telemetry(1);
  const std::uint64_t start_ns = telemetry.tracer().now_ns();
  const auto intervals = compute_intervals(poset, policy);
  telemetry.tracer().record(0, "compute_intervals", "intervals", start_ns,
                            telemetry.tracer().now_ns() - start_ns, "events",
                            intervals.size());
  for (const Interval& iv : intervals) {
    telemetry.metrics().add(telemetry.intervals, 0);
    telemetry.metrics().observe(telemetry.interval_states, 0, iv.box_cells());
  }
  Table table({"event", "Gmin", "Gbnd", "box cells"});
  const auto limit = static_cast<std::size_t>(
      flags.get_int_in_range("limit", 0, std::numeric_limits<std::int64_t>::max()));
  for (std::size_t i = 0; i < intervals.size() && i < limit; ++i) {
    const Interval& iv = intervals[i];
    table.add_row({iv.event.to_string(), iv.gmin.to_string(),
                   iv.gbnd.to_string(), format_count(iv.box_cells())});
  }
  std::fputs(table.render().c_str(), stdout);
  if (intervals.size() > limit) {
    std::printf("... (%zu more intervals; raise --limit)\n",
                intervals.size() - limit);
  }
  return export_telemetry(telemetry, flags);
}

int run_conjunctive(const Poset& poset, const CliFlags& flags) {
  const auto modulus = static_cast<std::uint64_t>(flags.get_int_in_range(
      "modulus", 1, std::numeric_limits<std::int64_t>::max()));
  auto predicate = [&](ThreadId, EventIndex i) { return i % modulus == 0; };
  // The detector is single-threaded: one shard, everything on shard 0.
  obs::Telemetry telemetry(1);
  const ConjunctiveResult result =
      detect_conjunctive(poset, predicate, &telemetry, /*shard=*/0);
  if (result.detected) {
    std::printf("conjunction detected at least cut %s\n",
                result.cut.to_string().c_str());
  } else {
    std::printf("conjunction is not detectable in this computation\n");
  }
  std::printf("events examined: %s (of %s)\n",
              format_count(result.events_examined).c_str(),
              format_count(poset.total_events()).c_str());
  const int status = export_telemetry(telemetry, flags);
  if (status != 0) return status;
  return result.detected ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(
      "paramount — enumerate and analyse consistent global states of a "
      "concurrent execution.");
  flags.add_string("input", "", ".pmt trace to load (empty = generate)");
  flags.add_int("generate-processes", 10, "generator: number of processes");
  flags.add_int("generate-events", 60, "generator: total events");
  flags.add_double("generate-prob", 0.9, "generator: message density");
  flags.add_int("seed", 1, "generator seed");
  flags.add_string("mode", "count",
                   "count | print | intervals | conjunctive | online");
  flags.add_string("algorithm", "lexical",
                   "bfs | lexical (subroutine for count)");
  flags.add_string("order", "interleave",
                   "interleave | thread-major | random");
  flags.add_int("workers", 4, "ParaMount workers for count mode");
  flags.add_string("metrics-json", "",
                   "write a metrics snapshot (JSON) here");
  flags.add_string("trace-out", "",
                   "write a Chrome trace_event JSON here");
  flags.add_int("limit", 50, "max states/intervals to print");
  flags.add_int("modulus", 3, "conjunctive mode: index % modulus == 0");
  flags.add_string("save", "", "also save the poset to this .pmt file");
  flags.add_int("stream-events", 100000,
                "online mode: events to stream through the monitor");
  flags.add_int("stream-threads", 8, "online mode: program threads");
  flags.add_int("stream-locks", 4, "online mode: shared locks");
  flags.add_double("sync-prob", 0.2,
                   "online mode: per-event lock-sync probability");
  flags.add_int("async-workers", 0,
                "online mode: pooled enumeration workers (0 = inline)");
  flags.add_int("gc-every", 0,
                "online mode: run sliding-window collect() every N inserts "
                "(0 = never)");
  flags.add_string("window-bytes", "",
                   "online mode: collect() when poset storage exceeds this "
                   "(e.g. 64M; empty = no byte trigger)");
  flags.add_int("rss-budget-mb", 0,
                "online mode: exit 1 if peak RSS exceeds this (0 = off)");
  if (!flags.parse(argc, argv)) return 0;

  const std::string mode = flags.get_string("mode");
  // print mode has no telemetry sink; passing telemetry flags there would
  // silently produce nothing, so fail loudly instead.
  const bool wants_telemetry = !flags.get_string("metrics-json").empty() ||
                               !flags.get_string("trace-out").empty();
  if (wants_telemetry && mode == "print") {
    std::fprintf(stderr,
                 "error: --metrics-json/--trace-out are not supported by "
                 "--mode=print (use count, intervals, conjunctive, or "
                 "online)\n");
    return 2;
  }

  // Online mode monitors a generated stream; the offline poset inputs do not
  // apply, and ignoring them would hide that.
  const std::string input = flags.get_string("input");
  const std::string save = flags.get_string("save");
  if (mode == "online") {
    if (!input.empty() || !save.empty()) {
      std::fprintf(stderr,
                   "error: --input/--save are not supported by --mode=online "
                   "(it monitors a generated stream)\n");
      return 2;
    }
    return run_online(flags);
  }

  Poset poset{0};
  trace::TraceError error;
  if (!input.empty()) {
    trace::TraceReader reader;
    if (!reader.open(input, &error) ||
        !trace::replay_to_poset(reader, &poset, nullptr, &error)) {
      std::fprintf(stderr, "error: %s: %s\n", input.c_str(),
                   error.to_string().c_str());
      return 1;
    }
  } else {
    RandomPosetParams params;
    params.num_processes = static_cast<std::size_t>(
        flags.get_int_in_range("generate-processes", 1, 1 << 20));
    params.num_events = static_cast<std::size_t>(
        flags.get_int_in_range("generate-events", 0, std::int64_t{1} << 32));
    params.message_probability = flags.get_double("generate-prob");
    params.seed = static_cast<std::uint64_t>(flags.get_int_in_range(
        "seed", 0, std::numeric_limits<std::int64_t>::max()));
    poset = make_random_poset(params);
  }
  std::printf("poset: %zu threads, %s events\n", poset.num_threads(),
              format_count(poset.total_events()).c_str());

  if (!save.empty()) {
    if (!trace::write_poset_trace(poset, save, &error)) {
      std::fprintf(stderr, "error: %s: %s\n", save.c_str(),
                   error.to_string().c_str());
      return 1;
    }
    std::printf("saved to %s\n", save.c_str());
  }

  if (mode == "count") return run_count(poset, flags);
  if (mode == "print") return run_print(poset, flags);
  if (mode == "intervals") return run_intervals(poset, flags);
  if (mode == "conjunctive") return run_conjunctive(poset, flags);
  std::fprintf(stderr, "error: unknown --mode '%s'\n", mode.c_str());
  return 2;
}
