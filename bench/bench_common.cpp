#include "bench_common.hpp"

#include <cstdio>

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
// default event counts were calibrated so the whole Table-1 sweep runs in
// minutes on one core (paper counts reach 10^9..10^10 states).
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

double ParaRun::simulated_seconds(std::size_t workers) const {
  return simulate_list_schedule(interval_seconds, workers).makespan;
}

ParaRun measure_paramount(EnumAlgorithm subroutine, const Poset& poset,
                          const std::vector<EventId>& order,
                          std::uint64_t budget_bytes) {
  ParaRun run;
  MemoryMeter meter(budget_bytes);
  ParamountOptions options;
  options.subroutine = subroutine;
  options.num_workers = 1;
  options.meter = &meter;
  options.collect_interval_stats = true;

  WallTimer timer;
  try {
    const ParamountResult result = enumerate_paramount_streaming(
        poset, order, options, [](const Frontier&) {});
    run.states = result.states;
    run.interval_seconds.reserve(result.interval_stats.size());
    for (const IntervalStat& s : result.interval_stats) {
      run.interval_seconds.push_back(static_cast<double>(s.nanos) * 1e-9);
    }
  } catch (const MemoryBudgetExceeded&) {
    run.out_of_memory = true;
  }
  run.t1_seconds = timer.elapsed_seconds();
  run.peak_bytes = meter.peak_bytes();
  return run;
}

double run_paramount_real(EnumAlgorithm subroutine, const Poset& poset,
                          const std::vector<EventId>& order,
                          std::size_t workers) {
  ParamountOptions options;
  options.subroutine = subroutine;
  options.num_workers = workers;
  WallTimer timer;
  enumerate_paramount_streaming(poset, order, options, [](const Frontier&) {});
  return timer.elapsed_seconds();
}

std::string time_cell(double seconds, bool out_of_memory) {
  if (out_of_memory) return "o.o.m.";
  return format_seconds(seconds);
}

}  // namespace paramount::bench
