// End-to-end integration: trace a real concurrent program, capture its
// poset, and cross-check every enumeration configuration on it — the full
// pipeline each bench binary exercises.
#include <gtest/gtest.h>

#include "core/online_paramount.hpp"
#include "core/paramount.hpp"
#include "poset/lattice.hpp"
#include "test_helpers.hpp"
#include "util/sync.hpp"
#include "workloads/harness.hpp"

namespace paramount {
namespace {

using testing::all_distinct;
using testing::as_set;
using testing::key_of;
using testing::Key;

TEST(Integration, RecordedProgramPosetEnumeratesConsistently) {
  const RecordedTrace trace =
      record_program(traced_program("banking"), /*scale=*/1,
                     /*record_sync_events=*/true);
  trace.poset.check_invariants();
  ASSERT_GT(trace.poset.total_events(), 0u);
  EXPECT_TRUE(is_linear_extension(trace.poset, trace.order));

  const auto expected = count_ideals(trace.poset, UINT64_C(5'000'000));
  ASSERT_TRUE(expected.has_value()) << "poset too large for the oracle";

  // Sequential enumerators agree.
  for (const auto algorithm : {EnumAlgorithm::kBfs, EnumAlgorithm::kLexical}) {
    const EnumStats stats =
        enumerate_all(algorithm, trace.poset, [](const Frontier&) {});
    EXPECT_EQ(stats.states, *expected) << to_string(algorithm);
  }

  // ParaMount agrees for several worker counts, using the *observed* online
  // order as →p (exactly what the online detector does).
  const auto intervals = compute_intervals(trace.poset, trace.order);
  for (const std::size_t workers : {1u, 2u, 8u}) {
    ParamountOptions options;
    options.num_workers = workers;
    Mutex mutex;
    std::vector<Key> states;
    const ParamountResult result = enumerate_paramount(
        trace.poset, intervals, options, [&](const Frontier& f) {
          MutexLock guard(mutex);
          states.push_back(key_of(f));
        });
    EXPECT_EQ(result.states, *expected);
    EXPECT_TRUE(all_distinct(states));
  }
}

TEST(Integration, OnlineAndOfflineSeeTheSamePoset) {
  // Record one real-thread run, then replay that recording through online
  // ParaMount in its observed insertion order: the online state count must
  // equal the offline lattice size. (Two separate recordings can differ once
  // threads really overlap, so both sides must see the same one.)
  const RecordedTrace trace =
      record_program(traced_program("sor"), 1, /*record_sync_events=*/false);
  const auto expected = count_ideals(trace.poset, UINT64_C(5'000'000));
  ASSERT_TRUE(expected.has_value());

  OnlineParamount online(trace.poset.num_threads(), {},
                         [](const OnlinePoset&, EventId, const Frontier&) {});
  for (const EventId id : trace.order) {
    const Event& event = trace.poset.event(id);
    online.submit(id.tid, event.kind, event.object, event.vc);
  }
  online.drain();
  EXPECT_EQ(online.states_enumerated(), *expected);
  EXPECT_EQ(online.poset().total_events(), trace.poset.total_events());
}

TEST(Integration, AllTracedProgramsProduceValidPosets) {
  for (const TracedProgramSpec& spec : traced_programs()) {
    const RecordedTrace trace = record_program(spec, 1, false);
    trace.poset.check_invariants();
    EXPECT_TRUE(is_linear_extension(trace.poset, trace.order)) << spec.name;
    EXPECT_GT(trace.poset.total_events(), 0u) << spec.name;
    EXPECT_LE(trace.poset.num_threads(), spec.num_threads) << spec.name;
  }
}

TEST(Integration, AllTracedProgramsEnumerableAtTestScale) {
  // Guard against lattice blow-ups that would make the benches unusable.
  for (const TracedProgramSpec& spec : traced_programs()) {
    const RecordedTrace trace = record_program(spec, 1, false);
    const auto count = count_ideals(trace.poset, UINT64_C(20'000'000));
    EXPECT_TRUE(count.has_value())
        << spec.name << " lattice larger than 20M states at scale 1";
  }
}

}  // namespace
}  // namespace paramount
