// Figure 10 of the paper: speedup of B-Para over the sequential BFS
// algorithm for 1..8 threads on d-300, d-500, d-10K and tsp.
//
// Speedup(k) = T(sequential BFS) / T(B-Para with k workers). The baseline
// is one sequential run; each B-Para(k) time is a real k-worker run of the
// offline driver, and a cell is the median of the kRounds per-round
// speedups with its interquartile range (bench_common.hpp). The paper
// observes superlinear speedups (6-11x at 8 threads) because partitioning
// alone already beats the monolithic BFS; the same effect appears here
// through smaller per-interval dedup sets instead of Java GC pressure.
#include <cstdio>

#include "bench_common.hpp"
#include "util/stats.hpp"

using namespace paramount;
using namespace paramount::bench;

int main(int argc, char** argv) {
  CliFlags flags("Reproduces Figure 10: B-Para speedup over sequential BFS.");
  add_common_flags(flags);
  if (!flags.parse(argc, argv)) return 0;

  // The paper's Figure 10 rows. The BFS baseline must finish, so it runs
  // without a budget here (the budget applies in Table 1).
  const char* kRows[] = {"d-300", "d-500", "d-10K", "tsp"};

  std::printf("=== Figure 10: speedup of B-Para w.r.t. sequential BFS ===\n");
  std::printf("scale=%s\n", flags.get_string("scale").c_str());
  print_provenance();
  std::printf("\n");

  Table table({"Benchmark", "#states", "BFS", "x1", "x2", "x4", "x8",
               "host x" + std::to_string(usable_cpus())});

  const std::string only = flags.get_string("only");
  for (const char* row : kRows) {
    if (!only.empty() && only != row) continue;
    const auto posets = table1_posets(flags.get_string("scale"), row);
    if (posets.empty()) continue;
    const NamedPoset& np = posets.front();

    std::fprintf(stderr, "[fig10] %s: sequential BFS...\n", row);
    const SeqRun bfs = run_sequential(EnumAlgorithm::kBfs, np.poset);
    std::fprintf(stderr, "[fig10] %s: B-Para...\n", row);
    const ParaTimes bpara = time_paramount(EnumAlgorithm::kBfs, np.poset,
                                           np.order, kPaperWorkers);
    std::fprintf(stderr, "[fig10] %s: host...\n", row);
    const std::vector<double> parallelism =
        host_parallelism(np.poset, np.order);

    std::vector<std::string> cells{np.name, format_count(bpara.states),
                                   format_seconds(bfs.seconds)};
    for (std::size_t i = 0; i < kPaperWorkers.size(); ++i) {
      cells.push_back(ratio_cell(speedups({bfs.seconds}, bpara.para[i]),
                                 kPaperWorkers[i]));
    }
    cells.push_back(ratio_cell(parallelism, usable_cpus()));
    table.add_row(std::move(cells));
  }

  std::fputs(table.render().c_str(), stdout);
  print_cell_legend();
  std::printf(
      "\nPaper shape: superlinear speedups, 6-11x at 8 threads; the x1\n"
      "column > 1 shows partitioning alone beats monolithic BFS.\n");
  return 0;
}
