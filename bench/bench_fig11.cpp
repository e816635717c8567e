// Figure 11 of the paper: speedup of L-Para over the sequential lexical
// algorithm for 1..8 threads on d-300, d-10K, hedc and elevator.
//
// Speedup(k) = T(sequential lexical) / T(L-Para with k workers). The
// baseline is one sequential run; each L-Para(k) time is a real k-worker run
// of the offline driver, and a cell is the median of the kRounds per-round
// speedups with its interquartile range (bench_common.hpp). The paper
// reports 6-10x at 8 threads and ~20% gain at 1 thread (from reduced Java GC
// pressure — a factor absent in C++, so the x1 column here is expected ≈ 1).
#include <cstdio>

#include "bench_common.hpp"
#include "util/stats.hpp"

using namespace paramount;
using namespace paramount::bench;

int main(int argc, char** argv) {
  CliFlags flags(
      "Reproduces Figure 11: L-Para speedup over the sequential lexical "
      "algorithm.");
  add_common_flags(flags);
  if (!flags.parse(argc, argv)) return 0;

  const char* kRows[] = {"d-300", "d-10K", "hedc", "elevator"};

  std::printf(
      "=== Figure 11: speedup of L-Para w.r.t. the lexical algorithm ===\n");
  std::printf("scale=%s\n", flags.get_string("scale").c_str());
  print_provenance();
  std::printf("\n");

  Table table({"Benchmark", "#states", "Lexical", "x1", "x2", "x4", "x8",
               "host x" + std::to_string(usable_cpus())});

  const std::string only = flags.get_string("only");
  for (const char* row : kRows) {
    if (!only.empty() && only != row) continue;
    const auto posets = table1_posets(flags.get_string("scale"), row);
    if (posets.empty()) continue;
    const NamedPoset& np = posets.front();

    std::fprintf(stderr, "[fig11] %s: lexical + L-Para...\n", row);
    const SeqRun lexical = run_sequential(EnumAlgorithm::kLexical, np.poset);
    const ParaTimes lpara = time_paramount(EnumAlgorithm::kLexical, np.poset,
                                           np.order, kPaperWorkers);
    const std::vector<double> parallelism =
        host_parallelism(np.poset, np.order);

    std::vector<std::string> cells{np.name, format_count(lpara.states),
                                   format_seconds(lexical.seconds)};
    for (std::size_t i = 0; i < kPaperWorkers.size(); ++i) {
      cells.push_back(ratio_cell(speedups({lexical.seconds}, lpara.para[i]),
                                 kPaperWorkers[i]));
    }
    cells.push_back(ratio_cell(parallelism, usable_cpus()));
    table.add_row(std::move(cells));
  }

  std::fputs(table.render().c_str(), stdout);
  print_cell_legend();
  std::printf(
      "\nPaper shape: near-linear scaling, 6-10x at 8 threads. Rows whose\n"
      "posets are dominated by one giant interval scale sublinearly.\n");
  return 0;
}
