// Cooperative schedule controller: determinism per seed, schedule diversity
// across seeds, deadlock freedom over every workload, and exploration-based
// detection (§5.3 — the RichTest-style complement).
#include "runtime/schedule_controller.hpp"

#include <gtest/gtest.h>

#include "poset/topo_sort.hpp"
#include "test_helpers.hpp"
#include "workloads/harness.hpp"

namespace paramount {
namespace {

using Policy = ScheduleController::Policy;
using testing::expect_posets_equal;

// True iff some thread differs in its event count or in an event's kind,
// object or clock.
bool posets_differ(const Poset& a, const Poset& b) {
  if (a.num_threads() != b.num_threads()) return true;
  for (ThreadId t = 0; t < a.num_threads(); ++t) {
    if (a.num_events(t) != b.num_events(t)) return true;
    for (EventIndex i = 1; i <= a.num_events(t); ++i) {
      const Event& x = a.event(t, i);
      const Event& y = b.event(t, i);
      if (x.kind != y.kind || x.object != y.object || x.vc != y.vc) {
        return true;
      }
    }
  }
  return false;
}

TEST(ScheduleController, SameSeedReplaysIdenticalPoset) {
  const TracedProgramSpec& spec = traced_program("banking");
  for (const Policy policy :
       {Policy::kRoundRobin, Policy::kRandom, Policy::kChunked}) {
    const RecordedTrace a =
        record_program_scheduled(spec, 1, false, policy, 42);
    const RecordedTrace b =
        record_program_scheduled(spec, 1, false, policy, 42);
    SCOPED_TRACE("policy " + std::to_string(static_cast<int>(policy)));
    expect_posets_equal(a.poset, b.poset);
  }
}

TEST(ScheduleController, DifferentSeedsExploreDifferentSchedules) {
  const TracedProgramSpec& spec = traced_program("banking");
  const RecordedTrace first =
      record_program_scheduled(spec, 1, false, Policy::kChunked, 1);
  int differing = 0;
  for (std::uint64_t seed = 2; seed <= 4; ++seed) {
    const RecordedTrace trace =
        record_program_scheduled(spec, 1, false, Policy::kChunked, seed);
    differing += posets_differ(first.poset, trace.poset) ? 1 : 0;
  }
  EXPECT_GE(differing, 1) << "four seeds recorded one poset";
}

TEST(ScheduleController, RoundRobinIsDeterministicAcrossRuns) {
  const TracedProgramSpec& spec = traced_program("arraylist1");
  const RecordedTrace a =
      record_program_scheduled(spec, 1, true, Policy::kRoundRobin, 0);
  const RecordedTrace b =
      record_program_scheduled(spec, 1, true, Policy::kRoundRobin, 0);
  expect_posets_equal(a.poset, b.poset);
}

// Deadlock freedom: every workload must run to completion under the
// controller (the ctest TIMEOUT property turns a hang into a failure).
class ControlledWorkload : public ::testing::TestWithParam<const char*> {};

TEST_P(ControlledWorkload, RunsToCompletionUnderController) {
  const TracedProgramSpec& spec = traced_program(GetParam());
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const RecordedTrace trace =
        record_program_scheduled(spec, 1, false, Policy::kChunked, seed);
    trace.poset.check_invariants();
    EXPECT_TRUE(is_linear_extension(trace.poset, trace.order)) << spec.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, ControlledWorkload,
                         ::testing::Values("banking", "set_faulty",
                                           "set_correct", "arraylist1",
                                           "arraylist2", "sor", "elevator",
                                           "tsp", "raytracer", "hedc",
                                           "moldyn", "montecarlo"));

TEST(ScheduleExploration, FindsExpectedRacesDeterministically) {
  const auto result =
      explore_schedules(traced_program("banking"), 1, 4, Policy::kChunked, 7);
  EXPECT_EQ(result.schedules_run, 4u);
  EXPECT_TRUE(result.racy_fields.count("hot_balance"));
  EXPECT_GT(result.total_states, 0u);
}

TEST(ScheduleExploration, UnionsAcrossSchedules) {
  const auto result = explore_schedules(traced_program("arraylist1"), 1, 4,
                                        Policy::kChunked, 3);
  EXPECT_TRUE(result.racy_fields.count("size"));
  EXPECT_TRUE(result.racy_fields.count("modCount"));
  EXPECT_TRUE(result.racy_fields.count("data"));
  EXPECT_GE(result.distinct_posets, 1u);
}

TEST(ScheduleExploration, RaceFreeProgramsStayClean) {
  // set_correct is included deliberately: controlled exploration once caught
  // a real lock-coupling bug in its remove() that serialized OS schedules
  // had hidden — exactly the §5.3 complementarity this subsystem exists for.
  for (const char* name : {"sor", "arraylist2", "elevator", "set_correct"}) {
    const auto result =
        explore_schedules(traced_program(name), 1, 3, Policy::kRandom, 11);
    EXPECT_TRUE(result.racy_fields.empty())
        << name << " produced a false positive under controlled schedules";
  }
}

}  // namespace
}  // namespace paramount
