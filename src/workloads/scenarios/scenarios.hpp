// Scenario corpus: named, parameterized synthetic workloads whose event
// streams exercise qualitatively different poset shapes.
//
// Each scenario is an online generator (O(num_threads) state, like
// SyntheticEventStream) that yields trace::TraceEvents in a valid →p order:
// every event is generated after all events its clock depends on, so the
// emission order can be written to a .pmt trace, fed to Algorithm 4, or
// replayed through paramountd as-is. All randomness comes from the seed —
// a (name, params) pair denotes one exact byte-reproducible stream.
//
// The five shapes and why they are in the corpus:
//   lock-convoy    all threads serialize through one lock: long chains,
//                  few concurrent states — the enumeration best case.
//   barrier-phase  independent compute separated by all-to-all barriers:
//                  wide lattice slabs between synchronization walls.
//   fanin-queue    producers feeding one consumer: asymmetric fan-in edges,
//                  the consumer's clock dominates everything.
//   fork-join      a binary thread tree forking out and joining back:
//                  the recursive-decomposition shape of task runtimes.
//   hot-var        skewed read/write traffic on a hot variable, recorded as
//                  Figure-9 collection events with access lists — the only
//                  scenario that exercises kHasAccesses records.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "trace/format.hpp"

namespace paramount {

struct ScenarioParams {
  std::size_t num_threads = 8;
  std::uint64_t num_events = 10000;
  std::uint64_t seed = 1;
};

class ScenarioStream {
 public:
  virtual ~ScenarioStream() = default;

  virtual std::size_t num_threads() const = 0;

  // Yields the next event, or returns false once num_events were produced.
  // Any prefix of the stream is itself a valid stream (the clock invariants
  // are prefix-closed), so consumers may stop early.
  virtual bool next(trace::TraceEvent* out) = 0;
};

// The corpus, in canonical order.
const std::vector<std::string>& scenario_names();

// Wide-trace corpus: every base scenario at 64/128/256 threads, named
// "<base>-64" etc. They exercise clocks wider than VectorClock's inline
// buffer; note the all-to-all shapes (barrier-phase, fork-join) are
// generable and replayable at these widths but not exhaustively enumerable
// (lattice width grows as rounds^(threads-1)).
const std::vector<std::string>& wide_scenario_names();

// Creates the named scenario, or returns nullptr for an unknown name. A wide
// variant name ("lock-convoy-256", a base name plus one width suffix)
// overrides params.num_threads with the suffix.
std::unique_ptr<ScenarioStream> make_scenario(const std::string& name,
                                              const ScenarioParams& params);

}  // namespace paramount
