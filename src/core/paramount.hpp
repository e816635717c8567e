// ParaMount: parallel enumeration of all consistent global states
// (Algorithm 1 of the paper).
//
// The driver fixes a linear extension →p, computes the interval I(e) of every
// event, and hands the intervals to worker threads. Each interval is
// enumerated with a *bounded* sequential subroutine (Algorithm 2); because the
// intervals partition the lattice (Theorem 2), every consistent state is
// delivered to the visitor exactly once, and total work is that of the
// sequential subroutine (work-optimal). Where the paper's ParaMountWorker
// fetches "the next event in the total order →p" from one shared counter,
// both drivers here distribute work through per-worker work-stealing deques
// (util/work_stealing.hpp; DESIGN.md §5, substitution 7).
#pragma once

#include <cstdint>
#include <vector>

#include "core/interval.hpp"
#include "enumeration/dispatch.hpp"
#include "obs/telemetry.hpp"
#include "poset/topo_sort.hpp"
#include "util/function_ref.hpp"

namespace paramount {

struct ParamountOptions {
  std::size_t num_workers = 1;
  EnumAlgorithm subroutine = EnumAlgorithm::kLexical;
  TopoPolicy topo_policy = TopoPolicy::kInterleave;
  std::uint64_t seed = 0;
  // Intervals per work item. The offline driver deals chunks of this many
  // intervals round-robin into the workers' deques up front; the streaming
  // driver claims this many events per visit to the cursor and parks them in
  // the claimer's deque. Idle workers steal whole items from their siblings.
  // Larger chunks amortize claims at the cost of coarser load balancing
  // (tail intervals are the big ones).
  std::size_t chunk_size = 1;
  // Optional shared memory meter (thread-safe); lets B-Para reproduce the
  // bounded-memory behaviour of Table 1.
  MemoryMeter* meter = nullptr;
  // When true, per-interval state counts and wall times are recorded; used
  // by the speedup benches to feed the schedule simulator.
  bool collect_interval_stats = false;
  // Optional telemetry sink (see src/obs/). Must have at least `num_workers`
  // shards; worker w writes only shard w. Per interval the drivers record an
  // "interval" span plus states/intervals counters and the interval-size and
  // interval-time histograms. Per work acquisition they record a claims
  // count and a queue-wait observation — measured from when the work was
  // claimed (or first sought) to the start of its processing, so time spent
  // parked in a deque or behind a slow batch-mate is visible. Stolen
  // acquisitions additionally bump pool.steals (failed probes:
  // pool.steal_fail) and emit a "steal" span. The streaming driver records
  // Gbnd-snapshot timings per non-empty cursor claim.
  obs::Telemetry* telemetry = nullptr;
};

struct IntervalStat {
  EventId event;
  std::uint64_t states = 0;
  std::uint64_t nanos = 0;
};

struct ParamountResult {
  std::uint64_t states = 0;
  std::uint64_t peak_bytes = 0;
  std::vector<IntervalStat> interval_stats;  // empty unless requested
};

namespace detail {

// Enumerates one box [lo, hi] with the caller's visitor and returns its
// stats: the one type-erased call the drivers make per interval. The empty
// state goes through it too, as the box [∅, ∅], which holds that state alone.
using BoxEnumerator =
    FunctionRef<EnumStats(const Frontier& lo, const Frontier& hi)>;

// The driver cores (paramount.cpp): scheduling, stealing, telemetry and error
// handling, with every box enumerated through `enumerate`.
ParamountResult run_paramount(const Poset& poset,
                              const std::vector<Interval>& intervals,
                              const ParamountOptions& options,
                              BoxEnumerator enumerate);
ParamountResult run_paramount_streaming(const Poset& poset,
                                        const std::vector<EventId>& order,
                                        const ParamountOptions& options,
                                        BoxEnumerator enumerate);

// Runs options.subroutine over a box with `visit`, charging options.meter.
// The visitor is compiled into the subroutine and invoked in place.
template <typename Visit>
auto box_enumerator(const Poset& poset, const ParamountOptions& options,
                    Visit& visit) {
  return [&poset, &options, &visit](const Frontier& lo, const Frontier& hi) {
    return enumerate_box(options.subroutine, poset, lo, hi, visit,
                         options.meter);
  };
}

}  // namespace detail

// The entry points below enumerate every consistent global state of `poset`
// exactly once, calling `visit` from up to `num_workers` threads
// concurrently, so the visitor must be thread-safe. They take any callable
// invocable as visit(const Frontier&) — a lambda, mutable or not, or a
// std::function — by forwarding reference and never copy it. The visitor is
// compiled into the enumeration subroutine, so a state costs no indirect
// call; the drivers erase only "enumerate this box", once per interval. They
// rethrow the first exception any worker hit: MemoryBudgetExceeded if the
// meter's budget was crossed, or whatever the visitor threw.

// Over a precomputed interval partition (the benches reuse one partition
// across worker-count sweeps so the →p order is held fixed).
template <typename Visit>
ParamountResult enumerate_paramount(const Poset& poset,
                                    const std::vector<Interval>& intervals,
                                    const ParamountOptions& options,
                                    Visit&& visit) {
  return detail::run_paramount(poset, intervals, options,
                               detail::box_enumerator(poset, options, visit));
}

// Over the interval partition of options.topo_policy and options.seed.
template <typename Visit>
ParamountResult enumerate_paramount(const Poset& poset,
                                    const ParamountOptions& options,
                                    Visit&& visit) {
  return enumerate_paramount(
      poset, compute_intervals(poset, options.topo_policy, options.seed),
      options, visit);
}

// Streaming variant — Algorithm 1's atomic block: workers pull the next
// event of →p from a shared cursor and compute Gbnd incrementally from a
// running frontier inside the critical section (P.getBoundaryGlobalState()).
// Claimed events wait in the claimer's deque, where idle workers steal. No
// interval table is materialized, so the total space is the poset plus the
// order plus one subroutine working set per worker. The paper states O(n)
// per worker in §3.4; the lexical subroutine's closure stack makes it O(n²)
// words (DESIGN.md §5, substitution 8).
template <typename Visit>
ParamountResult enumerate_paramount_streaming(const Poset& poset,
                                              const std::vector<EventId>& order,
                                              const ParamountOptions& options,
                                              Visit&& visit) {
  return detail::run_paramount_streaming(
      poset, order, options, detail::box_enumerator(poset, options, visit));
}

}  // namespace paramount
