// The interval partition on every small poset and every linear extension of
// it. Lemmas 2-3 and Theorem 2 hold for any →p and Theorem 3 for any
// insertion order, so nothing here is sampled but the multi-worker runs.
//
// The posets of t threads with m events each are generated as vector
// clocks: every choice of per-thread non-decreasing clock rows that is
// transitively closed and acyclic, so each poset appears exactly once. Each
// →p comes from backtracking over the enabled events. The oracle lists the
// consistent states by filtering all (m+1)^t frontiers with its own
// consistency test, and attributes each state to the →p position of its
// last event, the empty state to position 0 (Figure 6a). It shares no code
// with successors(), is_consistent() or count_ideals(). For every
// (poset, →p) pair it checks that:
//   * the boxes of compute_intervals partition the lattice as attributed;
//   * bounded lexical and bounded BFS, each run on every box alone, visit
//     exactly the oracle's states of that box, each once;
//   * the offline driver at one worker, with the lexical and with the BFS
//     subroutine, visits every state exactly once, and each box it
//     enumerates yields the oracle's count for the claim it belongs to;
//   * inline online ParaMount fed in →p order does the same per owner.
// A seeded sample of the pairs also runs the driver at 2-4 workers and
// pooled online ParaMount at 2-3 workers, which start threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/interval.hpp"
#include "core/online_paramount.hpp"
#include "core/paramount.hpp"
#include "poset/poset_builder.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace paramount {
namespace {

using testing::key_of;
using testing::Key;

// clocks[tid][k - 1] is the vector clock of event (tid, k).
using Rows = std::vector<Key>;
using Clocks = std::vector<Rows>;

// Every clock sequence thread `self` can have: component `self` of event k
// is k, and each other component is non-decreasing over [0, m].
std::vector<Rows> thread_rows(std::size_t threads, std::size_t events,
                              ThreadId self) {
  std::vector<Rows> out;
  Rows rows(events, Key(threads, 0));
  for (std::size_t k = 0; k < events; ++k) {
    rows[k][self] = static_cast<EventIndex>(k + 1);
  }
  // Fills component `tid` of rows k.. with values of at least `floor`.
  std::function<void(ThreadId, std::size_t, EventIndex)> fill =
      [&](ThreadId tid, std::size_t k, EventIndex floor) {
        if (tid == threads) {
          out.push_back(rows);
          return;
        }
        if (tid == self) return fill(tid + 1, 0, 0);
        if (k == events) return fill(tid + 1, 0, 0);
        for (EventIndex v = floor; v <= events; ++v) {
          rows[k][tid] = v;
          fill(tid, k + 1, v);
        }
      };
  fill(0, 0, 0);
  return out;
}

// A clock row that names event (j, l) must dominate l's own clock
// (transitive closure), and l must not name the row's own event in turn
// (acyclicity). Rows are monotone by construction, so checking the named
// event alone covers its thread predecessors.
bool closed_and_acyclic(const Clocks& clocks) {
  for (ThreadId i = 0; i < clocks.size(); ++i) {
    for (std::size_t k = 1; k <= clocks[i].size(); ++k) {
      const Key& row = clocks[i][k - 1];
      for (ThreadId j = 0; j < clocks.size(); ++j) {
        if (j == i || row[j] == 0) continue;
        const Key& named = clocks[j][row[j] - 1];
        if (named[i] >= k) return false;
        for (ThreadId x = 0; x < clocks.size(); ++x) {
          if (named[x] > row[x]) return false;
        }
      }
    }
  }
  return true;
}

std::vector<Clocks> all_posets(std::size_t threads, std::size_t events) {
  std::vector<std::vector<Rows>> candidates;
  for (ThreadId t = 0; t < threads; ++t) {
    candidates.push_back(thread_rows(threads, events, t));
  }
  std::vector<Clocks> out;
  Clocks clocks(threads);
  std::function<void(ThreadId)> choose = [&](ThreadId t) {
    if (t == threads) {
      if (closed_and_acyclic(clocks)) out.push_back(clocks);
      return;
    }
    for (const Rows& rows : candidates[t]) {
      clocks[t] = rows;
      choose(t + 1);
    }
  };
  choose(0);
  return out;
}

// Calls `visit` with every linear extension of the poset.
void for_each_order(const Clocks& clocks,
                    const std::function<void(const std::vector<EventId>&)>&
                        visit) {
  const std::size_t threads = clocks.size();
  std::size_t total = 0;
  for (const Rows& rows : clocks) total += rows.size();
  Key done(threads, 0);
  std::vector<EventId> order;
  std::function<void()> extend = [&] {
    if (order.size() == total) return visit(order);
    for (ThreadId t = 0; t < threads; ++t) {
      if (done[t] == clocks[t].size()) continue;
      const Key& row = clocks[t][done[t]];
      bool enabled = true;
      for (ThreadId j = 0; j < threads; ++j) {
        if (j != t && row[j] > done[j]) enabled = false;
      }
      if (!enabled) continue;
      ++done[t];
      order.push_back(EventId{t, done[t]});
      extend();
      order.pop_back();
      --done[t];
    }
  };
  extend();
}

// Every frontier G with row(i, G[i]) ≤ G for each thread i, in
// lexicographic order.
std::vector<Key> consistent_states(const Clocks& clocks) {
  const std::size_t threads = clocks.size();
  std::vector<Key> out;
  Key g(threads, 0);
  for (;;) {
    bool consistent = true;
    for (ThreadId i = 0; i < threads && consistent; ++i) {
      if (g[i] == 0) continue;
      const Key& row = clocks[i][g[i] - 1];
      for (ThreadId j = 0; j < threads; ++j) {
        if (row[j] > g[j]) consistent = false;
      }
    }
    if (consistent) out.push_back(g);
    std::size_t t = threads;
    while (t > 0 && g[t - 1] == clocks[t - 1].size()) g[--t] = 0;
    if (t == 0) return out;
    ++g[t - 1];
  }
}

Poset build_poset(const Clocks& clocks, const std::vector<EventId>& order) {
  PosetBuilder builder(clocks.size());
  for (const EventId id : order) {
    builder.add_event_with_clock(id.tid, OpKind::kInternal, 0,
                                 testing::frontier_of(clocks[id.tid]
                                                            [id.index - 1]));
  }
  return std::move(builder).build();
}

std::string describe(const Clocks& clocks, const std::vector<EventId>& order) {
  std::ostringstream out;
  out << "clocks";
  for (ThreadId t = 0; t < clocks.size(); ++t) {
    out << " t" << t << ":";
    for (const Key& row : clocks[t]) {
      out << " [";
      for (std::size_t j = 0; j < row.size(); ++j) {
        out << (j ? "," : "") << row[j];
      }
      out << "]";
    }
  }
  out << "; order";
  for (const EventId id : order) out << " " << id.tid << ":" << id.index;
  return out.str();
}

// The oracle's view of one (poset, →p) pair.
struct Attribution {
  std::vector<Key> position;                // position[t][k] of event (t, k)
  std::vector<std::size_t> position_of;     // per state of `states`
  std::vector<std::uint64_t> per_position;  // states per →p position
};

Attribution attribute(const std::vector<Key>& states,
                      const std::vector<EventId>& order,
                      std::size_t threads) {
  Attribution a;
  a.position.assign(threads, Key(order.size() + 1, 0));
  for (std::size_t p = 0; p < order.size(); ++p) {
    a.position[order[p].tid][order[p].index] = static_cast<EventIndex>(p);
  }
  a.per_position.assign(order.size(), 0);
  for (const Key& g : states) {
    std::size_t last = 0;
    for (ThreadId t = 0; t < threads; ++t) {
      if (g[t] > 0) last = std::max<std::size_t>(last, a.position[t][g[t]]);
    }
    a.position_of.push_back(last);
    ++a.per_position[last];
  }
  return a;
}

bool in_box(const Key& g, const Frontier& lo, const Frontier& hi) {
  for (std::size_t t = 0; t < g.size(); ++t) {
    if (g[t] < lo[t] || g[t] > hi[t]) return false;
  }
  return true;
}

// Each consistent state lies in exactly one box, the one at its position.
std::string check_boxes(const std::vector<Interval>& intervals,
                        const std::vector<Key>& states,
                        const Attribution& oracle) {
  for (std::size_t s = 0; s < states.size(); ++s) {
    std::size_t boxes = 0;
    std::size_t box = 0;
    for (std::size_t p = 0; p < intervals.size(); ++p) {
      if (in_box(states[s], intervals[p].gmin, intervals[p].gbnd)) {
        ++boxes;
        box = p;
      }
    }
    // The empty state lies in no box: the first interval takes it.
    const bool empty = s == 0;
    if (boxes != (empty ? 0u : 1u) || (!empty && box != oracle.position_of[s])) {
      return "compute_intervals: a state lies in " + std::to_string(boxes) +
             " boxes";
    }
  }
  return "";
}

// Each box, enumerated alone by each bounded subroutine, yields exactly the
// oracle's states at its position, each once. The empty state is in no box.
std::string check_kernels(const Poset& poset,
                          const std::vector<Interval>& intervals,
                          const std::vector<Key>& states,
                          const Attribution& oracle) {
  std::vector<std::vector<Key>> expected(intervals.size());
  for (std::size_t s = 1; s < states.size(); ++s) {
    expected[oracle.position_of[s]].push_back(states[s]);
  }
  std::vector<Key> visited;
  for (const EnumAlgorithm subroutine :
       {EnumAlgorithm::kLexical, EnumAlgorithm::kBfs}) {
    for (std::size_t p = 0; p < intervals.size(); ++p) {
      visited.clear();
      enumerate_box(subroutine, poset, intervals[p].gmin, intervals[p].gbnd,
                    [&](const Frontier& f) { visited.push_back(key_of(f)); });
      std::sort(visited.begin(), visited.end());
      if (visited != expected[p]) {
        return std::string(to_string(subroutine)) + ": box " +
               std::to_string(p) + " yielded " +
               std::to_string(visited.size()) + " states, not its " +
               std::to_string(expected[p].size()) + " once each";
      }
    }
  }
  return "";
}

// The visited states, sorted, are the oracle's, each once, and the
// per-interval counts are the oracle's per-position counts.
std::string check_visits(const char* what, std::vector<Key> visited,
                         const std::vector<std::uint64_t>& per_interval,
                         const std::vector<Key>& states,
                         const Attribution& oracle) {
  std::sort(visited.begin(), visited.end());
  if (visited != states) {
    return std::string(what) + ": visited " + std::to_string(visited.size()) +
           " states, not the " + std::to_string(states.size()) +
           " consistent ones once each";
  }
  if (per_interval != oracle.per_position) {
    return std::string(what) + ": a state was counted in the wrong interval";
  }
  return "";
}

// States of [∅, ∅] boxes that a worker enumerated and has not yet credited.
// The driver enumerates that box in the same claim as the box at →p
// position 0, just before it, so the worker's next box takes them.
thread_local std::uint64_t empty_box_carry = 0;

// Runs the driver core with a box enumerator that credits each box's states
// to the →p position of the event whose clock is the box's lo, so the
// per-interval counts come from the driver's own claims and need no
// telemetry.
std::string check_driver(const Poset& poset, const std::vector<EventId>& order,
                         const ParamountOptions& options,
                         const std::vector<Key>& states,
                         const Attribution& oracle) {
  std::map<Key, std::size_t> position_of_lo;
  for (std::size_t p = 0; p < order.size(); ++p) {
    position_of_lo[key_of(poset.vc(order[p].tid, order[p].index))] = p;
  }
  const Key empty(poset.num_threads(), 0);
  Mutex mutex;
  std::vector<Key> visited;
  std::vector<std::uint64_t> per_interval(order.size(), 0);
  bool unknown_box = false;
  auto visit = [&](const Frontier& f) {
    MutexLock guard(mutex);
    visited.push_back(key_of(f));
  };
  auto enumerate = detail::box_enumerator(poset, options, visit);
  auto credit = [&](const Frontier& lo, const Frontier& hi) {
    const EnumStats stats = enumerate(lo, hi);
    const Key key = key_of(lo);
    if (key == empty && key_of(hi) == empty) {
      empty_box_carry += stats.states;
      return stats;
    }
    const auto it = position_of_lo.find(key);
    MutexLock guard(mutex);
    if (it == position_of_lo.end()) {
      unknown_box = true;
    } else {
      per_interval[it->second] +=
          stats.states + std::exchange(empty_box_carry, 0);
    }
    return stats;
  };
  empty_box_carry = 0;  // worker 0 runs on this thread
  const ParamountResult result =
      detail::run_paramount(poset, order, options, credit);
  if (unknown_box) return "driver: a box's lo is no event's clock";
  if (result.states != states.size()) return "driver: wrong state total";
  return check_visits("driver", std::move(visited), per_interval, states,
                      oracle);
}

// Online ParaMount fed in →p order, inline (no async workers) or pooled.
std::string check_online(const Poset& poset, const std::vector<EventId>& order,
                         std::size_t async_workers,
                         const std::vector<Key>& states,
                         const Attribution& oracle) {
  Mutex mutex;
  std::vector<Key> visited;
  std::vector<std::uint64_t> per_owner(order.size(), 0);
  OnlineParamount::Options options;
  options.async_workers = async_workers;
  OnlineParamount online(
      poset.num_threads(), options,
      [&](const OnlinePoset&, EventId owner, const Frontier& f) {
        MutexLock guard(mutex);
        visited.push_back(key_of(f));
        ++per_owner[oracle.position[owner.tid][owner.index]];
      });
  for (const EventId id : order) {
    const Event& e = poset.event(id);
    online.submit(id.tid, e.kind, e.object, e.vc);
  }
  online.drain();
  return check_visits(async_workers == 0 ? "online" : "pooled online",
                      std::move(visited), per_owner, states, oracle);
}

struct SweepCounts {
  std::size_t posets = 0;
  std::size_t pairs = 0;
  std::size_t sampled = 0;
};

// Checks every (poset, →p) pair of the shape; stops at the first failure.
SweepCounts sweep(std::size_t threads, std::size_t events) {
  // One pair in kSampleEvery also runs the driver at 2-4 workers and pooled
  // online ParaMount at 2-3.
  constexpr std::uint64_t kSampleEvery = 64;
  Rng rng(threads * 100 + events);
  SweepCounts counts;
  for (const Clocks& clocks : all_posets(threads, events)) {
    ++counts.posets;
    const std::vector<Key> states = consistent_states(clocks);
    std::string failure;
    for_each_order(clocks, [&](const std::vector<EventId>& order) {
      if (!failure.empty()) return;
      ++counts.pairs;
      const Poset poset = build_poset(clocks, order);
      const Attribution oracle = attribute(states, order, threads);
      const std::vector<Interval> intervals = compute_intervals(poset, order);
      ParamountOptions options;
      failure = check_boxes(intervals, states, oracle);
      if (failure.empty()) {
        failure = check_kernels(poset, intervals, states, oracle);
      }
      for (const EnumAlgorithm subroutine :
           {EnumAlgorithm::kLexical, EnumAlgorithm::kBfs}) {
        options.subroutine = subroutine;
        if (failure.empty()) {
          failure = check_driver(poset, order, options, states, oracle);
        }
      }
      if (failure.empty()) {
        failure = check_online(poset, order, 0, states, oracle);
      }
      if (failure.empty() && rng.next_below(kSampleEvery) == 0) {
        ++counts.sampled;
        options.num_workers = 2 + rng.next_below(3);
        options.subroutine = EnumAlgorithm::kLexical;
        failure = check_driver(poset, order, options, states, oracle);
        if (!failure.empty()) {
          failure += " (" + std::to_string(options.num_workers) + " workers)";
        }
        const std::size_t async_workers = 2 + rng.next_below(2);
        if (failure.empty()) {
          failure = check_online(poset, order, async_workers, states, oracle);
          if (!failure.empty()) {
            failure += " (" + std::to_string(async_workers) + " workers)";
          }
        }
      }
      if (!failure.empty()) failure += "; " + describe(clocks, order);
    });
    EXPECT_EQ(failure, "");
    if (!failure.empty()) break;
  }
  return counts;
}

// The poset and pair counts pin the generator: a generator that missed or
// repeated a poset would change them.
TEST(ExhaustivePartition, TwoThreadsOfThreeEvents) {
  const SweepCounts counts = sweep(2, 3);
  EXPECT_EQ(counts.posets, 175u);
  EXPECT_EQ(counts.pairs, 980u);
}

TEST(ExhaustivePartition, TwoThreadsOfFourEvents) {
  const SweepCounts counts = sweep(2, 4);
  EXPECT_EQ(counts.posets, 1764u);
  EXPECT_EQ(counts.pairs, 24696u);
  EXPECT_GT(counts.sampled, 0u);
}

TEST(ExhaustivePartition, ThreeThreadsOfTwoEvents) {
  const SweepCounts counts = sweep(3, 2);
  EXPECT_EQ(counts.posets, 2827u);
  EXPECT_EQ(counts.pairs, 33912u);
  EXPECT_GT(counts.sampled, 0u);
}

}  // namespace
}  // namespace paramount
