#include "detect/modalities.hpp"

#include <atomic>
#include <unordered_set>
#include <vector>

#include "core/paramount.hpp"
#include "poset/global_state.hpp"
#include "util/sync.hpp"

namespace paramount {

ModalityResult detect_possibly(const Poset& poset, StatePredicate predicate,
                               std::size_t num_workers,
                               obs::Telemetry* telemetry) {
  ModalityResult result;
  result.witness = poset.empty_frontier();

  std::atomic<bool> found{false};
  std::atomic<std::uint64_t> explored{0};
  Mutex witness_mutex;
  Frontier witness = poset.empty_frontier();

  obs::TraceSpan span(telemetry != nullptr ? &telemetry->tracer() : nullptr,
                      0, "possibly", "detect", "predicate_evals");

  ParamountOptions options;
  options.num_workers = num_workers;
  options.telemetry = telemetry;
  enumerate_paramount(poset, options, [&](const Frontier& state) {
    // No early-exit hook in the driver: once found, skip the (possibly
    // expensive) predicate and fall through cheaply.
    // relaxed: `found` is an advisory short-circuit here — a stale false
    // only costs one extra predicate call; the witness write is ordered by
    // witness_mutex and read after the driver's join.
    if (found.load(std::memory_order_relaxed)) return;
    explored.fetch_add(1, std::memory_order_relaxed);
    if (predicate(state)) {
      MutexLock guard(witness_mutex);
      // relaxed: the exchange is under witness_mutex; publication of
      // `witness` to the post-join reader rides the pool's join barrier.
      if (!found.exchange(true, std::memory_order_relaxed)) {
        witness = state;
      }
    }
  });

  result.holds = found.load();
  result.states_explored = explored.load();
  if (result.holds) result.witness = witness;
  if (telemetry != nullptr) {
    span.set_arg(result.states_explored);
    telemetry->metrics().add(telemetry->predicate_evals, 0,
                             result.states_explored);
  }
  return result;
}

ModalityResult detect_definitely(const Poset& poset, StatePredicate predicate) {
  ModalityResult result;
  result.witness = poset.empty_frontier();

  // definitely(φ) fails iff a maximal path exists whose every state is ¬φ:
  // sweep the lattice level by level, keeping only ¬φ states. If the final
  // state survives, that ¬φ-only path is the counterexample.
  const Frontier initial = poset.empty_frontier();
  const Frontier final_state = poset.full_frontier();

  ++result.states_explored;
  if (predicate(initial)) {
    result.holds = true;  // every path starts at a φ-state
    return result;
  }
  if (initial == final_state) {
    result.holds = false;  // the only path is the single ¬φ state
    result.witness = initial;
    return result;
  }

  std::vector<Frontier> level{initial};
  while (!level.empty()) {
    // Every successor, φ-states included, is deduplicated so φ runs once per
    // state. Ranks strictly increase level to level, so per-level dedup is
    // global dedup.
    std::unordered_set<Frontier, FrontierHash> seen;
    std::vector<Frontier> next_level;
    for (const Frontier& state : level) {
      for (ThreadId t = 0; t < poset.num_threads(); ++t) {
        if (!event_enabled(poset, state, t)) continue;
        Frontier succ = state;
        succ[t] += 1;
        if (!seen.insert(succ).second) continue;
        ++result.states_explored;
        if (predicate(succ)) continue;  // φ-state: paths through it are fine
        if (succ == final_state) {
          result.holds = false;  // reached the top avoiding φ entirely
          result.witness = succ;
          return result;
        }
        next_level.push_back(std::move(succ));
      }
    }
    level = std::move(next_level);
  }
  // Every ¬φ path dead-ends before the final state: all observations hit φ.
  result.holds = true;
  return result;
}

}  // namespace paramount
