// Table 1 of the paper: running time of the BFS algorithm, B-Para(1/2/4/8),
// the lexical algorithm, and L-Para(1/2/4/8) over the benchmark posets,
// together with n, #events and #global states.
//
// Column semantics:
//   * BFS / Lexical: one sequential run each, in wall-clock time;
//   * *-Para(k): real runs of the offline driver with k worker threads, the
//     median of kRounds rounds with its interquartile range (see
//     bench_common.hpp); k above the usable CPUs is marked with "*";
//   * host xN: the host's parallelism on the row (host_parallelism).
// "o.o.m." marks a run that exceeded --bfs-budget-mb, reproducing the
// paper's out-of-memory rows under its 2 GB JVM heap. A B-Para(k) run
// charges all k workers' level sets to one meter, so a row can fit at one
// worker and run out at eight.
#include <cstdio>

#include "bench_common.hpp"
#include "util/stats.hpp"

using namespace paramount;
using namespace paramount::bench;

int main(int argc, char** argv) {
  CliFlags flags(
      "Reproduces Table 1: sequential BFS/lexical vs B-Para/L-Para.");
  add_common_flags(flags);
  if (!flags.parse(argc, argv)) return 0;

  const std::uint64_t budget =
      static_cast<std::uint64_t>(flags.get_int("bfs-budget-mb")) << 20;

  std::printf("=== Table 1: global-states enumeration running time ===\n");
  std::printf("scale=%s, BFS budget=%lld MiB\n",
              flags.get_string("scale").c_str(),
              static_cast<long long>(flags.get_int("bfs-budget-mb")));
  print_provenance();
  std::printf("\n");

  const std::string host = "host x" + std::to_string(usable_cpus());
  std::vector<std::string> header{"Benchmark", "n", "#events", "#states",
                                  "BFS"};
  for (const std::size_t k : kPaperWorkers) {
    header.push_back("B-Para(" + std::to_string(k) + ")");
  }
  header.push_back("Lexical");
  for (const std::size_t k : kPaperWorkers) {
    header.push_back("L-Para(" + std::to_string(k) + ")");
  }
  header.push_back(host);
  Table table(std::move(header));

  for (const NamedPoset& np :
       table1_posets(flags.get_string("scale"), flags.get_string("only"))) {
    std::fprintf(stderr, "[table1] %s: BFS...\n", np.name.c_str());
    const SeqRun bfs = run_sequential(EnumAlgorithm::kBfs, np.poset, budget);
    std::fprintf(stderr, "[table1] %s: B-Para...\n", np.name.c_str());
    const ParaTimes bpara = time_paramount(EnumAlgorithm::kBfs, np.poset,
                                           np.order, kPaperWorkers, budget);
    std::fprintf(stderr, "[table1] %s: lexical + L-Para...\n",
                 np.name.c_str());
    const SeqRun lexical = run_sequential(EnumAlgorithm::kLexical, np.poset);
    const ParaTimes lpara = time_paramount(EnumAlgorithm::kLexical, np.poset,
                                           np.order, kPaperWorkers);
    std::fprintf(stderr, "[table1] %s: host...\n", np.name.c_str());
    const std::vector<double> parallelism =
        host_parallelism(np.poset, np.order);

    std::vector<std::string> cells{
        np.name, std::to_string(np.poset.num_threads()),
        format_count(np.poset.total_events()), format_count(lexical.states),
        time_cell(bfs.seconds, bfs.out_of_memory)};
    for (std::size_t i = 0; i < kPaperWorkers.size(); ++i) {
      cells.push_back(time_cell(bpara.para[i], kPaperWorkers[i]));
    }
    cells.push_back(time_cell(lexical.seconds, false));
    for (std::size_t i = 0; i < kPaperWorkers.size(); ++i) {
      cells.push_back(time_cell(lpara.para[i], kPaperWorkers[i]));
    }
    cells.push_back(ratio_cell(parallelism, usable_cpus()));
    table.add_row(std::move(cells));
  }

  std::fputs(table.render().c_str(), stdout);
  print_cell_legend();
  return 0;
}
