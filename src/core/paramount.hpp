// ParaMount: parallel enumeration of all consistent global states
// (Algorithm 1 of the paper).
//
// The driver fixes a linear extension →p and hands its events to worker
// threads. In the paper's atomic block a worker takes the next event e of →p
// together with Gbnd(e), a snapshot of a running frontier, then enumerates
// the interval I(e) with a *bounded* sequential subroutine (Algorithm 2).
// Because the intervals partition the lattice (Theorem 2), every consistent
// state is delivered to the visitor exactly once, and total work is that of
// the sequential subroutine (work-optimal). Here the shared cursor walks →p
// from its end and each visit claims one event, so the largest boxes tend
// to come first (DESIGN.md §5, substitution 7). No interval table is
// materialized.
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
  // Seeds the →p of TopoPolicy::kRandom; the other policies ignore it.
  std::uint64_t seed = 0;
  // Optional shared memory meter (thread-safe); lets B-Para reproduce the
  // bounded-memory behaviour of Table 1.
  MemoryMeter* meter = nullptr;
  // Optional telemetry sink (see src/obs/). Must have at least `num_workers`
  // shards; worker w writes only shard w. Per interval the driver records an
  // "interval" span plus states/intervals counters and the interval-size and
  // interval-time histograms. Per cursor claim, one per event, it records
  // the Gbnd-snapshot time (a "gbnd_snapshot" span and paramount.gbnd_ns),
  // then a claims count, a queue-wait observation from the worker's visit
  // to the cursor until it held its event, and a "claim" span.
  obs::Telemetry* telemetry = nullptr;
};

struct ParamountResult {
  std::uint64_t states = 0;
  std::uint64_t peak_bytes = 0;
};

namespace detail {

// Enumerates one box [lo, hi] with the caller's visitor and returns its
// stats: the one type-erased call the driver makes per interval. The empty
// state goes through it too, as the box [∅, ∅], which holds that state alone.
using BoxEnumerator =
    FunctionRef<EnumStats(const Frontier& lo, const Frontier& hi)>;

// The driver core (paramount.cpp): the cursor over `order`, which must be a
// linear extension of `poset`, plus telemetry and error handling, with
// every box enumerated through `enumerate`.
ParamountResult run_paramount(const Poset& poset,
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
// call; the driver erases only "enumerate this box", once per interval. They
// rethrow the first exception any worker hit: MemoryBudgetExceeded if the
// meter's budget was crossed, or whatever the visitor threw. All three run
// the one driver core; they differ only in where →p comes from. The space
// used is the poset plus →p plus one subroutine working set and one Gbnd
// frontier per worker. The paper states O(n) per worker in §3.4; the lexical
// subroutine's closure stack makes it O(n²) words (DESIGN.md §5,
// substitution 8).

// Over the →p of a precomputed interval partition: the intervals' events in
// order, so a caller that holds a partition reuses its →p. The driver
// recomputes each box from that order, which must be a linear extension;
// the intervals' own boxes are not read.
template <typename Visit>
ParamountResult enumerate_paramount(const Poset& poset,
                                    const std::vector<Interval>& intervals,
                                    const ParamountOptions& options,
                                    Visit&& visit) {
  std::vector<EventId> order;
  order.reserve(intervals.size());
  for (const Interval& iv : intervals) order.push_back(iv.event);
  return detail::run_paramount(poset, order, options,
                               detail::box_enumerator(poset, options, visit));
}

// Over the →p of options.topo_policy and options.seed.
template <typename Visit>
ParamountResult enumerate_paramount(const Poset& poset,
                                    const ParamountOptions& options,
                                    Visit&& visit) {
  return detail::run_paramount(
      poset, topological_sort(poset, options.topo_policy, options.seed),
      options, detail::box_enumerator(poset, options, visit));
}

// Over a caller-supplied →p, such as a trace's file order.
template <typename Visit>
ParamountResult enumerate_paramount_streaming(const Poset& poset,
                                              const std::vector<EventId>& order,
                                              const ParamountOptions& options,
                                              Visit&& visit) {
  return detail::run_paramount(poset, order, options,
                               detail::box_enumerator(poset, options, visit));
}

}  // namespace paramount
