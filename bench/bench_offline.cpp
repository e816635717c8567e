// The paper's offline evaluation in one process: Table 1, Figures 10-12 and
// ablations A-B, all over one recording of each benchmark poset.
//
// table1_posets runs once, host_parallelism once per row, and each run
// configuration is timed once; a table that shows a configuration another
// table timed prints those runs again.
//   * Table 1: one sequential BFS run under --bfs-budget-mb, B-Para(k) with
//     one budget meter per run, one sequential lexical run and L-Para(k)
//     without a meter. "o.o.m." marks a run that crossed the budget, as the
//     paper's rows that ran out of its 2 GB JVM heap; all k B-Para workers
//     charge one meter, so a row can fit at one worker and run out at eight.
//   * Figure 10: T(BFS) / T(B-Para(k)). The baseline is Table 1's BFS run,
//     or one run without the budget where that ran out; B-Para is timed
//     again without a meter.
//   * Figure 11: T(lexical) / T(L-Para(k)), both from Table 1.
//   * Figure 12: the poset plus one lexical working set (Table 1's lexical
//     meter peak) against L-Para(8): the poset, the →p order, the shared
//     running frontier and 8 working sets, a worker's from one metered
//     1-worker pass. The Gbnd frontier of each worker is not counted.
//   * Ablation A: L-Para at 1 and k workers under each →p policy, with the
//     largest interval's share of all states; one over that share bounds
//     the speedup while every state costs the same. Where the interleave
//     order is the row's →p (the d-rows), its cells are Table 1's.
//   * Ablation B: the lexical and BFS subroutines at 1 and k workers, from
//     Table 1's L-Para and Figure 10's B-Para, with one worker's working
//     set from metered 1-worker passes.
// k is the largest worker count of the paper's columns that the usable CPUs
// hold. Every *-Para(k), xk and T(k) cell is real k-worker runs of the
// offline driver (bench_common.hpp); host xN is the host's parallelism on
// the row.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "core/interval.hpp"
#include "poset/topo_sort.hpp"
#include "util/stats.hpp"

using namespace paramount;
using namespace paramount::bench;

namespace {

// The paper's rows of each figure; Table 1 and Figure 12 show every row.
// Ablation B prints Figure 10's B-Para runs, so its rows must be among
// Figure 10's.
const std::vector<std::string> kFigure10Rows{"d-300", "d-500", "d-10K",
                                             "tsp"};
const std::vector<std::string> kFigure11Rows{"d-300", "d-10K", "hedc",
                                             "elevator"};
const std::vector<std::string> kAblationRows{"d-300", "d-500", "tsp"};

// One benchmark poset and the runs its tables print.
struct Row {
  explicit Row(NamedPoset recorded) : np(std::move(recorded)) {}

  NamedPoset np;
  std::string host;               // host_parallelism's cell
  SeqRun bfs;                     // Table 1, under the budget
  SeqRun lexical;                 // Table 1, metered without a budget
  ParaTimes lpara;                // Table 1
  ParaTimes bpara;                // Figure 10, unmetered
  std::uint64_t lpara_bytes = 0;  // Figure 12's 1-worker working set
};

bool shows(const std::vector<std::string>& rows, const Row& row) {
  return std::find(rows.begin(), rows.end(), row.np.name) != rows.end();
}

void log(const Row& row, const char* what) {
  std::fprintf(stderr, "[offline] %s: %s...\n", row.np.name.c_str(), what);
}

std::string host_header() { return "host x" + std::to_string(usable_cpus()); }

void print(const char* title, const Table& table, const char* note) {
  std::printf("\n=== %s ===\n%s\n%s\n", title, table.render().c_str(), note);
  std::fflush(stdout);
}

// One untimed 1-worker pass of the driver with a meter: one worker's
// working set. It enumerates Table 1's lattice (checked).
std::uint64_t worker_bytes(EnumAlgorithm subroutine, const Row& row) {
  MemoryMeter meter;
  ParamountOptions options;
  options.subroutine = subroutine;
  options.meter = &meter;
  const std::uint64_t states =
      enumerate_paramount_streaming(row.np.poset, row.np.order, options,
                                    [](const Frontier&) {})
          .states;
  PM_CHECK(states == row.lexical.states);
  return meter.peak_bytes();
}

// T(1) and T(k), k = kPaperWorkers[column], of runs at the paper's counts.
ParaTimes one_and_k(const ParaTimes& run, std::size_t column) {
  return {run.states, {run.para[0], run.para[column]}};
}

void table1(std::vector<Row>& rows, std::uint64_t budget) {
  std::vector<std::string> header{"Benchmark", "n", "#events", "#states",
                                  "BFS"};
  for (const std::size_t k : kPaperWorkers) {
    header.push_back("B-Para(" + std::to_string(k) + ")");
  }
  header.push_back("Lexical");
  for (const std::size_t k : kPaperWorkers) {
    header.push_back("L-Para(" + std::to_string(k) + ")");
  }
  header.push_back(host_header());
  Table table(std::move(header));

  for (Row& row : rows) {
    const NamedPoset& np = row.np;
    log(row, host_header().c_str());
    row.host = ratio_cell(host_parallelism(np.poset, np.order), usable_cpus());
    log(row, "BFS + B-Para under the budget");
    row.bfs = run_sequential(EnumAlgorithm::kBfs, np.poset, budget);
    const ParaTimes bpara = time_paramount(EnumAlgorithm::kBfs, np.poset,
                                           np.order, kPaperWorkers, budget);
    log(row, "lexical + L-Para");
    row.lexical = run_sequential(EnumAlgorithm::kLexical, np.poset);
    row.lpara = time_paramount(EnumAlgorithm::kLexical, np.poset, np.order,
                               kPaperWorkers);

    std::vector<std::string> cells{
        np.name, std::to_string(np.poset.num_threads()),
        format_count(np.poset.total_events()), format_count(row.lexical.states),
        time_cell(row.bfs.seconds, row.bfs.out_of_memory)};
    for (std::size_t i = 0; i < kPaperWorkers.size(); ++i) {
      cells.push_back(time_cell(bpara.para[i], kPaperWorkers[i]));
    }
    cells.push_back(time_cell(row.lexical.seconds, false));
    for (std::size_t i = 0; i < kPaperWorkers.size(); ++i) {
      cells.push_back(time_cell(row.lpara.para[i], kPaperWorkers[i]));
    }
    cells.push_back(row.host);
    table.add_row(std::move(cells));
  }
  print("Table 1: global-states enumeration running time", table,
        "BFS/B-Para o.o.m.: the run crossed --bfs-budget-mb.");
}

void figure10(std::vector<Row>& rows) {
  Table table({"Benchmark", "#states", "BFS", "x1", "x2", "x4", "x8",
               host_header()});
  for (Row& row : rows) {
    if (!shows(kFigure10Rows, row)) continue;
    const NamedPoset& np = row.np;
    double bfs_seconds = row.bfs.seconds;
    if (row.bfs.out_of_memory) {
      log(row, "sequential BFS without the budget");
      bfs_seconds = run_sequential(EnumAlgorithm::kBfs, np.poset).seconds;
    }
    log(row, "unmetered B-Para");
    row.bpara = time_paramount(EnumAlgorithm::kBfs, np.poset, np.order,
                               kPaperWorkers);

    std::vector<std::string> cells{np.name, format_count(row.bpara.states),
                                   format_seconds(bfs_seconds)};
    for (std::size_t i = 0; i < kPaperWorkers.size(); ++i) {
      cells.push_back(ratio_cell(speedups({bfs_seconds}, row.bpara.para[i]),
                                 kPaperWorkers[i]));
    }
    cells.push_back(row.host);
    table.add_row(std::move(cells));
  }
  print("Figure 10: speedup of B-Para w.r.t. sequential BFS", table,
        "Paper shape: superlinear speedups, 6-11x at 8 threads; the x1\n"
        "column > 1 shows partitioning alone beats monolithic BFS.");
}

void figure11(const std::vector<Row>& rows) {
  Table table({"Benchmark", "#states", "Lexical", "x1", "x2", "x4", "x8",
               host_header()});
  for (const Row& row : rows) {
    if (!shows(kFigure11Rows, row)) continue;
    std::vector<std::string> cells{row.np.name, format_count(row.lpara.states),
                                   format_seconds(row.lexical.seconds)};
    for (std::size_t i = 0; i < kPaperWorkers.size(); ++i) {
      cells.push_back(ratio_cell(
          speedups({row.lexical.seconds}, row.lpara.para[i]),
          kPaperWorkers[i]));
    }
    cells.push_back(row.host);
    table.add_row(std::move(cells));
  }
  print("Figure 11: speedup of L-Para w.r.t. the lexical algorithm", table,
        "Paper shape: near-linear scaling, 6-10x at 8 threads. Rows whose\n"
        "intervals hold a few states each run slower with every worker.");
}

void figure12(std::vector<Row>& rows) {
  Table table({"Benchmark", "poset", "lexical total", "L-Para(8) total",
               "overhead"});
  for (Row& row : rows) {
    log(row, "metered 1-worker L-Para");
    row.lpara_bytes = worker_bytes(EnumAlgorithm::kLexical, row);
    const std::uint64_t poset_bytes = row.np.poset.heap_bytes();
    const std::uint64_t lexical_total = poset_bytes + row.lexical.peak_bytes;
    const std::uint64_t lpara_total =
        poset_bytes + row.np.order.size() * sizeof(EventId) +
        sizeof(Frontier) + 8 * row.lpara_bytes;
    char overhead[32];
    std::snprintf(overhead, sizeof(overhead), "%.1f%%",
                  100.0 *
                      (static_cast<double>(lpara_total) -
                       static_cast<double>(lexical_total)) /
                      static_cast<double>(lexical_total));
    table.add_row({row.np.name, format_bytes(poset_bytes),
                   format_bytes(lexical_total), format_bytes(lpara_total),
                   overhead});
  }
  print("Figure 12: memory usage (lexical vs L-Para)", table,
        "Paper shape: L-Para's footprint is dominated by the poset itself;\n"
        "the ->p order (one event id per event), the running frontier and one\n"
        "lexical working set per worker add only a small overhead.");
}

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

void ablation_topo(const std::vector<Row>& rows, std::size_t column) {
  const std::size_t k = kPaperWorkers[column];
  const std::string ks = std::to_string(k);
  Table table({"Benchmark", "policy", "T(1)", "T(" + ks + ")",
               "speedup(" + ks + ")", "largest interval", "1/share",
               host_header()});
  for (const Row& row : rows) {
    if (!shows(kAblationRows, row)) continue;
    const NamedPoset& np = row.np;
    for (const auto policy : {TopoPolicy::kInterleave,
                              TopoPolicy::kThreadMajor, TopoPolicy::kRandom}) {
      const auto order = topological_sort(np.poset, policy, /*seed=*/1);
      ParaTimes run = one_and_k(row.lpara, column);
      if (order != np.order) {
        log(row, (std::string("L-Para, ") + to_string(policy)).c_str());
        run = time_paramount(EnumAlgorithm::kLexical, np.poset, order, {1, k});
      }
      const double share = largest_interval_share(np.poset, order);
      char share_cell[32], bound[32];
      std::snprintf(share_cell, sizeof(share_cell), "%.3g%% of states",
                    100.0 * share);
      std::snprintf(bound, sizeof(bound), "%.1fx", 1.0 / share);
      table.add_row(
          {np.name, to_string(policy), time_cell(run.para[0], 1),
           time_cell(run.para[1], k),
           ratio_cell(speedups(run.para[0].seconds, run.para[1]), k),
           share_cell, bound, row.host});
    }
    table.add_separator();
  }
  print("Ablation A: topological-order policy vs load balance "
        "(subroutine=lexical)",
        table,
        "Expected: interleave and random orders balance well; thread-major\n"
        "produces a few dominant intervals, and one over the largest one's\n"
        "share of states caps the speedup while states cost alike.");
}

void ablation_subroutine(const std::vector<Row>& rows, std::size_t column) {
  const std::size_t k = kPaperWorkers[column];
  Table table({"Benchmark", "subroutine", "T(1)",
               "T(" + std::to_string(k) + ")", "peak memory", "states",
               host_header()});
  for (const Row& row : rows) {
    if (!shows(kAblationRows, row)) continue;
    const auto add = [&](EnumAlgorithm subroutine, const ParaTimes& run,
                         std::uint64_t bytes) {
      table.add_row({row.np.name, to_string(subroutine),
                     time_cell(run.para[0], 1), time_cell(run.para[1], k),
                     format_bytes(bytes), format_count(run.states), row.host});
    };
    add(EnumAlgorithm::kLexical, one_and_k(row.lpara, column),
        row.lpara_bytes);
    log(row, "metered 1-worker B-Para");
    add(EnumAlgorithm::kBfs, one_and_k(row.bpara, column),
        worker_bytes(EnumAlgorithm::kBfs, row));
    table.add_separator();
  }
  print("Ablation B: bounded subroutine choice", table,
        "Expected: identical state counts (Theorem 2 holds for any bounded\n"
        "subroutine); the lexical subroutine wins on time, and its working\n"
        "set is fixed (inline up to 16 threads) while BFS pays for\n"
        "per-interval level sets that grow with the widest interval.");
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(
      "Reproduces Table 1, Figures 10-12 and ablations A-B from one "
      "recording of each benchmark poset.");
  add_common_flags(flags);
  if (!flags.parse(argc, argv)) return 0;

  std::printf("scale=%s, BFS budget=%lld MiB\n",
              flags.get_string("scale").c_str(),
              static_cast<long long>(flags.get_int("bfs-budget-mb")));
  print_provenance();
  print_cell_legend();

  std::vector<Row> rows;
  for (NamedPoset& np :
       table1_posets(flags.get_string("scale"), flags.get_string("only"))) {
    rows.emplace_back(std::move(np));
  }
  // The ablations' k: the most workers of the paper's columns that the
  // usable CPUs hold.
  std::size_t column = 0;
  while (column + 1 < kPaperWorkers.size() &&
         kPaperWorkers[column + 1] <= usable_cpus()) {
    ++column;
  }

  table1(rows, static_cast<std::uint64_t>(flags.get_int("bfs-budget-mb"))
                   << 20);
  figure10(rows);
  figure11(rows);
  figure12(rows);
  ablation_topo(rows, column);
  ablation_subroutine(rows, column);
  return 0;
}
