// Ablation A (ours, motivated by §3.1): the choice of the linear extension
// →p does not affect correctness, but it shapes the interval sizes and
// therefore the load balance of Algorithm 1. This bench compares the three
// topological policies on the measured L-Para speedup at as many workers as
// the host has usable CPUs (real runs, bench_common.hpp) and on the largest
// interval's share of all states, from exact per-box counts. No schedule
// finishes before its largest interval, so if every state cost the same,
// one over that share would bound the speedup. A large box enumerates its
// states faster than small ones do, so a measured speedup can pass it.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "core/interval.hpp"
#include "poset/topo_sort.hpp"
#include "util/stats.hpp"

using namespace paramount;
using namespace paramount::bench;

namespace {

// The largest interval's share of all states under `order`, with the empty
// state in the first interval (Figure 6a).
double largest_interval_share(const Poset& poset,
                              const std::vector<EventId>& order) {
  std::uint64_t total = 0;
  std::uint64_t largest = 0;
  const std::vector<Interval> intervals = compute_intervals(poset, order);
  for (std::size_t p = 0; p < intervals.size(); ++p) {
    std::uint64_t states =
        enumerate_box(EnumAlgorithm::kLexical, poset, intervals[p].gmin,
                      intervals[p].gbnd, [](const Frontier&) {})
            .states;
    if (p == 0) ++states;  // the empty state
    total += states;
    largest = std::max(largest, states);
  }
  return static_cast<double>(largest) / static_cast<double>(total);
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(
      "Ablation: effect of the topological-order policy on ParaMount's load "
      "balance.");
  add_common_flags(flags);
  if (!flags.parse(argc, argv)) return 0;

  const char* kRows[] = {"d-300", "d-500", "tsp"};
  const std::vector<std::size_t> workers{1, usable_cpus()};
  const std::string k = std::to_string(workers[1]);

  std::printf("=== Ablation: topological-order policy vs load balance ===\n");
  std::printf("scale=%s, subroutine=lexical\n",
              flags.get_string("scale").c_str());
  print_provenance();
  std::printf("\n");

  Table table({"Benchmark", "policy", "T(1)", "T(" + k + ")",
               "speedup(" + k + ")", "largest interval", "1/share",
               "host x" + k});

  const std::string only = flags.get_string("only");
  for (const char* row : kRows) {
    if (!only.empty() && only != row) continue;
    const auto posets = table1_posets(flags.get_string("scale"), row);
    if (posets.empty()) continue;
    const NamedPoset& np = posets.front();
    std::fprintf(stderr, "[ablation-topo] %s: host...\n", row);
    const std::string host =
        ratio_cell(host_parallelism(np.poset, np.order), workers[1]);

    for (const auto policy : {TopoPolicy::kInterleave,
                              TopoPolicy::kThreadMajor, TopoPolicy::kRandom}) {
      std::fprintf(stderr, "[ablation-topo] %s/%s...\n", row,
                   to_string(policy));
      const auto order = topological_sort(np.poset, policy, /*seed=*/1);
      const ParaTimes run =
          time_paramount(EnumAlgorithm::kLexical, np.poset, order, workers);
      const double share = largest_interval_share(np.poset, order);

      char share_cell[32], bound[32];
      std::snprintf(share_cell, sizeof(share_cell), "%.3g%% of states",
                    100.0 * share);
      std::snprintf(bound, sizeof(bound), "%.1fx", 1.0 / share);
      table.add_row(
          {np.name, to_string(policy), time_cell(run.para[0], workers[0]),
           time_cell(run.para[1], workers[1]),
           ratio_cell(speedups(run.para[0].seconds, run.para[1]), workers[1]),
           share_cell, bound, host});
    }
    table.add_separator();
  }

  std::fputs(table.render().c_str(), stdout);
  print_cell_legend();
  std::printf(
      "\nExpected: interleave and random orders balance well; thread-major\n"
      "produces a few dominant intervals, and one over the largest one's\n"
      "share of states caps the speedup while states cost alike.\n");
  return 0;
}
