#include "bench_common.hpp"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

#include "obs/json_writer.hpp"
#include "poset/topo_sort.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "workloads/harness.hpp"
#include "workloads/random_poset.hpp"

namespace paramount::bench {

namespace {

struct DSpec {
  const char* name;
  std::size_t small_events;
  std::size_t default_events;
  std::size_t paper_events;
  std::uint64_t seed;
};

// Random distributed posets: 10 processes like the paper's d-* inputs. The
// default event counts keep each Table-1 row to minutes (paper counts reach
// 10^9..10^10 states).
constexpr DSpec kDSpecs[] = {
    {"d-300", 36, 48, 300, 300},
    {"d-500", 44, 60, 500, 500},
    {"d-10K", 56, 90, 10000, 10000},
};

struct ProgSpec {
  const char* name;        // Table-1 row name
  const char* program;     // traced program registry name
  std::size_t small_scale;
  std::size_t default_scale;
  std::size_t paper_scale;
};

constexpr ProgSpec kProgSpecs[] = {
    {"bank", "banking", 2, 3, 8},
    {"tsp", "tsp", 1, 2, 4},
    {"hedc", "hedc", 1, 2, 6},
    {"elevator", "elevator", 1, 6, 12},
};

std::size_t pick(const std::string& scale, std::size_t small,
                 std::size_t dflt, std::size_t paper) {
  if (scale == "small") return small;
  if (scale == "paper") return paper;
  PM_CHECK_MSG(scale == "default", "scale must be small|default|paper");
  return dflt;
}

}  // namespace

std::vector<NamedPoset> table1_posets(const std::string& scale,
                                      const std::string& only) {
  std::vector<NamedPoset> out;

  for (const DSpec& spec : kDSpecs) {
    if (!only.empty() && only != spec.name) continue;
    RandomPosetParams params;
    params.num_processes = 10;
    params.num_events =
        pick(scale, spec.small_events, spec.default_events, spec.paper_events);
    params.message_probability = 0.9;
    params.seed = spec.seed;
    NamedPoset np;
    np.name = spec.name;
    np.poset = make_random_poset(params);
    np.order = topological_sort(np.poset, TopoPolicy::kInterleave);
    std::fprintf(stderr, "[bench] %s: generated, %s events\n", spec.name,
                 format_count(np.order.size()).c_str());
    out.push_back(std::move(np));
  }

  for (const ProgSpec& spec : kProgSpecs) {
    if (!only.empty() && only != spec.name) continue;
    const std::size_t prog_scale =
        pick(scale, spec.small_scale, spec.default_scale, spec.paper_scale);
    RecordedTrace trace = record_program(traced_program(spec.program),
                                         prog_scale,
                                         /*record_sync_events=*/true);
    NamedPoset np;
    np.name = spec.name;
    np.poset = std::move(trace.poset);
    np.order = trace.order;  // the observed online order
    std::fprintf(stderr, "[bench] %s: recorded, %s events\n", spec.name,
                 format_count(np.order.size()).c_str());
    out.push_back(std::move(np));
  }
  return out;
}

void add_common_flags(CliFlags& flags) {
  flags.add_string("scale", "default",
                   "workload sizing: small | default | paper");
  flags.add_string("only", "", "restrict to one benchmark row");
  flags.add_int("bfs-budget-mb", 128,
                "memory budget for the BFS enumerator (MiB); exceeding it "
                "reports o.o.m. like the paper's 2GB JVM heap");
}

SeqRun run_sequential(EnumAlgorithm algorithm, const Poset& poset,
                      std::uint64_t budget_bytes) {
  SeqRun run;
  MemoryMeter meter(budget_bytes);
  WallTimer timer;
  try {
    enumerate_all(algorithm, poset,
                  [&](const Frontier&) { ++run.states; }, &meter);
  } catch (const MemoryBudgetExceeded&) {
    run.out_of_memory = true;
  }
  run.seconds = timer.elapsed_seconds();
  run.peak_bytes = meter.peak_bytes();
  return run;
}

std::string time_cell(double seconds, bool out_of_memory) {
  if (out_of_memory) return "o.o.m.";
  return format_seconds(seconds);
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

// The "model name" of /proc/cpuinfo's first CPU, or "unknown".
std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t value = line.find_first_not_of(" \t", line.find(':') + 1);
    if (value != std::string::npos) return line.substr(value);
  }
  return "unknown";
}

}  // namespace

void print_provenance() {
#if defined(__GNUC__) && !defined(__clang__)
  const char* compiler = "GCC ";  // GCC's __VERSION__ is the number alone
#else
  const char* compiler = "";
#endif
#ifdef NDEBUG
  const char* ndebug = "set";
#else
  const char* ndebug = "unset";
#endif
  std::printf(
      "provenance: hardware_concurrency=%u, usable CPUs=%zu, CPU %s, "
      "compiler %s%s, build %s, NDEBUG %s\n",
      std::thread::hardware_concurrency(), usable_cpus(), cpu_model().c_str(),
      compiler, __VERSION__, PARAMOUNT_BENCH_BUILD_TYPE, ndebug);
}

std::string provenance_json(const std::string& commit) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("usable_cpus").value(static_cast<std::uint64_t>(usable_cpus()));
  w.key("cpu_model").value(cpu_model());
  w.key("compiler").value(PARAMOUNT_BENCH_COMPILER);
  w.key("build_type").value(PARAMOUNT_BENCH_BUILD_TYPE);
  w.key("commit").value(commit);
  w.end_object();
  return std::move(w).take();
}

ParaTimes time_paramount(EnumAlgorithm subroutine, const Poset& poset,
                         const std::vector<EventId>& order,
                         const std::vector<std::size_t>& workers,
                         std::uint64_t budget_bytes) {
  ParaTimes run;
  run.para.resize(workers.size());
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < workers.size(); ++i) {
      Timing& timing = run.para[i];
      if (timing.out_of_memory) continue;
      MemoryMeter meter(budget_bytes);
      ParamountOptions options;
      options.subroutine = subroutine;
      options.num_workers = workers[i];
      if (budget_bytes != MemoryMeter::kUnlimited) options.meter = &meter;
      WallTimer timer;
      try {
        const std::uint64_t states =
            enumerate_paramount_streaming(poset, order, options,
                                          [](const Frontier&) {})
                .states;
        timing.seconds.push_back(timer.elapsed_seconds());
        PM_CHECK_MSG(run.states == 0 || states == run.states,
                     "runs of one row disagree on the state count");
        run.states = states;
      } catch (const MemoryBudgetExceeded&) {
        timing.out_of_memory = true;
      }
    }
  }
  return run;
}

std::vector<double> speedups(const std::vector<double>& base_seconds,
                             const Timing& timing) {
  PM_CHECK(base_seconds.size() == 1 ||
           base_seconds.size() == timing.seconds.size());
  std::vector<double> out;
  for (std::size_t r = 0; r < timing.seconds.size(); ++r) {
    out.push_back(base_seconds[base_seconds.size() == 1 ? 0 : r] /
                  timing.seconds[r]);
  }
  return out;
}

std::vector<double> host_parallelism(const Poset& poset,
                                     const std::vector<EventId>& order) {
  const std::size_t copies = usable_cpus();
  const std::vector<Poset> posets(copies, poset);
  const std::vector<std::vector<EventId>> orders(copies, order);
  auto run_copy = [&](std::size_t c) {
    enumerate_paramount_streaming(posets[c], orders[c], ParamountOptions{},
                                  [](const Frontier&) {});
  };
  std::vector<double> ratios;
  for (std::size_t round = 0; round < kRounds; ++round) {
    WallTimer alone;
    run_copy(0);
    const double alone_seconds = alone.elapsed_seconds();
    WallTimer together;
    std::vector<std::thread> threads;
    for (std::size_t c = 1; c < copies; ++c) threads.emplace_back(run_copy, c);
    run_copy(0);
    for (std::thread& t : threads) t.join();
    ratios.push_back(static_cast<double>(copies) * alone_seconds /
                     together.elapsed_seconds());
  }
  return ratios;
}

namespace {

// `median` (already formatted), then the interquartile range as a share of
// the median, then the oversubscription mark.
std::string spread_cell(const std::vector<double>& samples,
                        const std::string& median, std::size_t workers) {
  const double iqr = percentile(samples, 0.75) - percentile(samples, 0.25);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s iqr %.0f%%%s", median.c_str(),
                100.0 * iqr / percentile(samples, 0.5),
                workers > usable_cpus() ? "*" : "");
  return buf;
}

}  // namespace

std::string time_cell(const Timing& timing, std::size_t workers) {
  if (timing.out_of_memory) return "o.o.m.";
  return spread_cell(timing.seconds,
                     format_seconds(percentile(timing.seconds, 0.5)), workers);
}

std::string ratio_cell(const std::vector<double>& ratios,
                       std::size_t workers) {
  if (ratios.size() < kRounds) return "o.o.m.";
  char median[32];
  std::snprintf(median, sizeof(median), "%.2fx", percentile(ratios, 0.5));
  return spread_cell(ratios, median, workers);
}

void print_cell_legend() {
  std::printf(
      "\nTimed cells: the median of %zu rounds, then the interquartile range\n"
      "as a share of the median; * marks more workers than the %zu usable\n"
      "CPUs (oversubscribed). host xN: N independent 1-worker L-Para runs at\n"
      "once, their throughput over one run's alone.\n",
      kRounds, usable_cpus());
}

}  // namespace paramount::bench
