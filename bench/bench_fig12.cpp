// Figure 12 of the paper: memory usage of the sequential lexical algorithm
// vs L-Para with 8 threads, per benchmark.
//
// Both keep the poset. The lexical algorithm adds one working set: the
// current frontier, the lo/hi bounds and the closure stack. L-Para runs the
// driver over the same →p (Algorithm 1's shared cursor), which keeps no
// per-event Gmin/Gbnd table: it adds the →p order, the shared running
// frontier and one bounded lexical working set per worker, plus one Gbnd
// frontier per worker that the figure does not count. The paper's
// point is that the parallel algorithm's overhead is negligible. Working
// sets are MemoryMeter peaks, measured on real runs.
#include <cstdio>

#include "bench_common.hpp"
#include "core/interval.hpp"
#include "util/stats.hpp"

using namespace paramount;
using namespace paramount::bench;

int main(int argc, char** argv) {
  CliFlags flags(
      "Reproduces Figure 12: memory usage of lexical vs L-Para(8).");
  add_common_flags(flags);
  if (!flags.parse(argc, argv)) return 0;

  std::printf("=== Figure 12: memory usage (lexical vs L-Para) ===\n");
  std::printf("scale=%s\n\n", flags.get_string("scale").c_str());

  Table table({"Benchmark", "poset", "lexical total", "L-Para(8) total",
               "overhead"});

  for (const NamedPoset& np :
       table1_posets(flags.get_string("scale"), flags.get_string("only"))) {
    std::fprintf(stderr, "[fig12] %s...\n", np.name.c_str());
    const std::uint64_t poset_bytes = np.poset.heap_bytes();

    // Sequential lexical: poset + one working set.
    MemoryMeter lex_meter;
    const EnumStats lexical =
        enumerate_lexical(np.poset, [](const Frontier&) {}, &lex_meter);
    const std::uint64_t lexical_total = poset_bytes + lex_meter.peak_bytes();

    // L-Para (Algorithm 1): poset + the →p order + the shared
    // running frontier + the working sets of 8 concurrent bounded
    // enumerations. A 1-worker run holds one working set at a time, so its
    // meter peak is the per-worker figure. It enumerates the same lattice.
    MemoryMeter worker_meter;
    ParamountOptions options;
    options.subroutine = EnumAlgorithm::kLexical;
    options.num_workers = 1;
    options.meter = &worker_meter;
    const ParamountResult result = enumerate_paramount_streaming(
        np.poset, np.order, options, [](const Frontier&) {});
    PM_CHECK(result.states == lexical.states);
    const std::uint64_t order_bytes = np.order.size() * sizeof(EventId);
    const std::uint64_t lpara_total = poset_bytes + order_bytes +
                                      sizeof(Frontier) +
                                      8 * worker_meter.peak_bytes();

    char overhead[32];
    std::snprintf(overhead, sizeof(overhead), "%.1f%%",
                  100.0 *
                      (static_cast<double>(lpara_total) -
                       static_cast<double>(lexical_total)) /
                      static_cast<double>(lexical_total));

    table.add_row({np.name, format_bytes(poset_bytes),
                   format_bytes(lexical_total), format_bytes(lpara_total),
                   overhead});
  }

  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nPaper shape: L-Para's footprint is dominated by the poset itself;\n"
      "the ->p order (one event id per event), the running frontier and one\n"
      "lexical working set per worker add only a small overhead.\n");
  return 0;
}
