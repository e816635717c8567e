// Shared fixtures and helpers for the ParaMount test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "enumeration/dispatch.hpp"
#include "obs/telemetry.hpp"
#include "poset/poset.hpp"
#include "poset/poset_builder.hpp"
#include "workloads/random_poset.hpp"

namespace paramount::testing {

// A frontier or clock as a plain comparable vector (for std::set membership
// and gtest diffs).
using Key = std::vector<EventIndex>;

inline Key key_of(ClockView f) {
  Key k(f.size());
  for (std::size_t i = 0; i < f.size(); ++i) k[i] = f[i];
  return k;
}

inline Frontier frontier_of(const Key& k) {
  Frontier f(k.size());
  for (std::size_t i = 0; i < k.size(); ++i) f[i] = k[i];
  return f;
}

// Collects every state an enumerator visits, in visit order.
template <typename PosetT>
std::vector<Key> collect_box(EnumAlgorithm algorithm, const PosetT& poset,
                             const Frontier& lo, const Frontier& hi) {
  std::vector<Key> out;
  enumerate_box(algorithm, poset, lo, hi,
                [&](const Frontier& f) { out.push_back(key_of(f)); });
  return out;
}

inline std::vector<Key> collect_all(EnumAlgorithm algorithm,
                                    const Poset& poset) {
  return collect_box(algorithm, poset, poset.empty_frontier(),
                     poset.full_frontier());
}

// A mutable lambda that owns its count: called with a state it records the
// state and counts it, called with nothing it returns the count. Only the
// object the caller holds is read afterwards, so a count equal to the states
// visited shows the enumerator invoked it in place rather than a copy.
inline auto counting_visitor(std::vector<Key>& seen) {
  return [&seen, count = std::uint64_t{0}](const auto&... state) mutable {
    (seen.push_back(key_of(state)), ...);
    count += sizeof...(state);
    return count;
  };
}

// Same threads and, event by event, the same kind, object and clock.
inline void expect_posets_equal(const Poset& a, const Poset& b) {
  ASSERT_EQ(a.num_threads(), b.num_threads());
  for (ThreadId t = 0; t < a.num_threads(); ++t) {
    ASSERT_EQ(a.num_events(t), b.num_events(t)) << "thread " << t;
    for (EventIndex i = 1; i <= a.num_events(t); ++i) {
      EXPECT_EQ(a.event(t, i).kind, b.event(t, i).kind);
      EXPECT_EQ(a.event(t, i).object, b.event(t, i).object);
      EXPECT_EQ(a.vc(t, i), b.vc(t, i));
    }
  }
}

// True iff the sequence has no duplicate entries.
inline bool all_distinct(std::vector<Key> keys) {
  std::sort(keys.begin(), keys.end());
  return std::adjacent_find(keys.begin(), keys.end()) == keys.end();
}

inline std::set<Key> as_set(const std::vector<Key>& keys) {
  return std::set<Key>(keys.begin(), keys.end());
}

// ---- canonical posets ----

// A single chain of `length` events on one thread: length+1 ideals.
inline Poset make_chain(std::size_t length) {
  PosetBuilder builder(1);
  for (std::size_t i = 0; i < length; ++i) builder.add_event(0);
  return std::move(builder).build();
}

// n independent threads with one event each (an antichain): 2^n ideals.
inline Poset make_antichain(std::size_t n) {
  PosetBuilder builder(n);
  for (ThreadId t = 0; t < n; ++t) builder.add_event(t);
  return std::move(builder).build();
}

// Two independent chains of lengths a and b: C(a+b, a) grid... actually
// (a+1)(b+1) ideals — every pair of prefixes is consistent.
inline Poset make_grid(std::size_t a, std::size_t b) {
  PosetBuilder builder(2);
  for (std::size_t i = 0; i < a; ++i) builder.add_event(0);
  for (std::size_t i = 0; i < b; ++i) builder.add_event(1);
  return std::move(builder).build();
}

// The poset of the paper's Figure 4(a): two threads, two events each, with
// the message cross e2[1] → e1[2] and e1[1] → e2[2] (vector clocks of
// Figure 4(d): e1[2].vc = [2,1], e2[2].vc = [1,2]). Its 7 consistent states
// are drawn in Figure 4(c); {2,0} and {0,2} are the grayed-out ones.
inline Poset make_figure4_poset() {
  PosetBuilder builder(2);
  const EventId e11 = builder.add_event(0);           // e1[1]
  const EventId e21 = builder.add_event(1);           // e2[1]
  builder.add_event_after(0, e21);                    // e1[2] (after e2[1])
  builder.add_event_after(1, e11);                    // e2[2] (after e1[1])
  return std::move(builder).build();
}

// The poset of the paper's Figures 1-2: thread 1 runs e1, x.notify, e3;
// thread 2 runs x.wait, e2 with x.notify → x.wait. 8 consistent states
// G1..G8 (plus none: {0,0} is G1).
inline Poset make_figure2_poset() {
  PosetBuilder builder(2);
  builder.add_event(0, OpKind::kInternal);             // e1
  const EventId notify = builder.add_event(0, OpKind::kRelease);  // x.notify
  builder.add_event(0, OpKind::kInternal);             // e3
  builder.add_event_after(1, notify, OpKind::kAcquire);  // x.wait
  builder.add_event(1, OpKind::kInternal);             // e2
  return std::move(builder).build();
}

// A pseudo-random poset suitable for property tests.
inline Poset make_random(std::size_t processes, std::size_t events,
                         double message_probability, std::uint64_t seed) {
  RandomPosetParams params;
  params.num_processes = processes;
  params.num_events = events;
  params.message_probability = message_probability;
  params.seed = seed;
  return make_random_poset(params);
}

// The weighted count of a sampled online histogram (gbnd_ns, interval_ns,
// event_to_done_ns) after `events` events were submitted on one shard: the
// shard times its first event and every N-th after it, N =
// obs::Telemetry::kTimedEventEvery, and each timed event observes with
// weight N.
inline std::uint64_t timed_count(std::uint64_t events) {
  constexpr std::uint64_t n = obs::Telemetry::kTimedEventEvery;
  return n * ((events + n - 1) / n);
}

}  // namespace paramount::testing
