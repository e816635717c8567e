// Shared machinery for the reproduction benches (Tables 1-2, Figures 10-12,
// ablations).
//
// Every k-worker cell of bench_offline (Table 1, Figures 10-11, ablations
// A-B) is a real run of the offline driver with k worker threads: the median
// of kRounds runs, the worker counts alternating within each round, printed
// with its interquartile range. A cell whose k exceeds the CPUs this process
// may use is marked as oversubscribed. Beside each row it prints the host's
// own parallelism on it (host_parallelism), since a multi-core host does not
// always deliver one core per worker.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/paramount.hpp"
#include "poset/poset.hpp"
#include "util/cli.hpp"
#include "util/mem_meter.hpp"
#include "util/table.hpp"

namespace paramount::bench {

// A named benchmark poset with its →p order.
struct NamedPoset {
  std::string name;
  Poset poset{0};
  std::vector<EventId> order;  // linear extension used as →p
};

// The Table-1 workload suite, one line on stderr per row built. `scale`:
//   "small"  — CI-sized (seconds per row),
//   "default"— the reported configuration (a few minutes total),
//   "paper"  — the paper's original event counts (hours; 10^9+ states).
// `only` restricts to one benchmark name (empty = all).
std::vector<NamedPoset> table1_posets(const std::string& scale,
                                      const std::string& only = "");

// Registers the standard bench flags shared by the reproduction binaries.
void add_common_flags(CliFlags& flags);

// ---- measured runs ----

struct SeqRun {
  double seconds = 0.0;
  std::uint64_t states = 0;
  std::uint64_t peak_bytes = 0;
  bool out_of_memory = false;
};

// One sequential enumeration under an optional memory budget.
SeqRun run_sequential(EnumAlgorithm algorithm, const Poset& poset,
                      std::uint64_t budget_bytes = MemoryMeter::kUnlimited);

// "o.o.m." or formatted seconds: the cell of a single run.
std::string time_cell(double seconds, bool out_of_memory);

// ---- real parallel runs ----

// Runs behind every timed cell of bench_offline.
inline constexpr std::size_t kRounds = 5;

// The worker counts of the paper's speedup columns.
inline const std::vector<std::size_t> kPaperWorkers = {1, 2, 4, 8};

// CPUs this process may run on, as `nproc` counts them.
std::size_t usable_cpus();

// Prints the line naming how the numbers below were produced:
// std::thread::hardware_concurrency(), usable_cpus(), the CPU model, the
// compiler version, the CMake build type and whether NDEBUG is set.
void print_provenance();

// The host and build behind a bench's numbers as one JSON object, with the
// fields of perfbench's provenance: usable CPUs, the CPU model, the
// compiler, the CMake build type and `commit`, which the caller names
// since a build cannot know it.
std::string provenance_json(const std::string& commit);

// The per-round wall times of one configuration.
struct Timing {
  std::vector<double> seconds;  // one per round the run completed
  bool out_of_memory = false;   // a round crossed the budget; later ones skip
};

struct ParaTimes {
  std::uint64_t states = 0;  // the same in every completed run (checked)
  std::vector<Timing> para;  // para[i] ran with the i-th worker count
};

// Times the offline driver with `subroutine` over `order` at each count of
// `workers`, alternating them within each of kRounds rounds. A finite
// budget attaches one meter per run, which all of its workers charge; an
// unlimited one attaches none, so the timings carry no accounting.
ParaTimes time_paramount(EnumAlgorithm subroutine, const Poset& poset,
                         const std::vector<EventId>& order,
                         const std::vector<std::size_t>& workers,
                         std::uint64_t budget_bytes = MemoryMeter::kUnlimited);

// Per-round speedups base / timing. `base_seconds` holds one baseline time
// for every round, or one per round (paired by round).
std::vector<double> speedups(const std::vector<double>& base_seconds,
                             const Timing& timing);

// The host's parallelism on one row: usable_cpus() independent 1-worker
// lexical runs of the driver at once, each on its own copy of the poset and
// →p, copy 0 on the calling thread as the driver runs its worker 0. Per
// round, the copies' throughput over one copy's alone.
std::vector<double> host_parallelism(const Poset& poset,
                                     const std::vector<EventId>& order);

// "<median> iqr <interquartile range as % of the median>", with a trailing
// "*" when `workers` exceeds usable_cpus(); "o.o.m." for a timing that lost
// rounds to the budget, or for its speedups.
std::string time_cell(const Timing& timing, std::size_t workers);
std::string ratio_cell(const std::vector<double>& ratios, std::size_t workers);

// The legend under a table of such cells.
void print_cell_legend();

}  // namespace paramount::bench
