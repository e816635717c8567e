// Ground-truth detection tests over the traced benchmark programs: the
// ParaMount online detector, FastTrack and the offline BFS (RV-analogue)
// detector must agree with each program's known race status (Table 2).
//
// Race *presence* in an observed execution depends on the schedule (a fully
// serialized interleaving can hide a race from any happened-before-based
// predictor — the paper's §5.3 limitation), so positive expectations run
// under fixed ScheduleController seeds: real-thread overlap vanishes under
// load or sanitizers, a seeded cooperative schedule does not. Race-FREEDOM
// must hold on every run, so it is checked on real-thread schedules: a
// single false positive is a soundness bug.
#include <gtest/gtest.h>

#include "poset/lattice.hpp"
#include "test_helpers.hpp"
#include "workloads/harness.hpp"

namespace paramount {
namespace {

using Policy = ScheduleController::Policy;

constexpr std::size_t kScale = 1;
constexpr int kScheduleRetries = 5;

// One FastTrack run under a deterministic cooperative schedule.
std::set<std::string> fasttrack_fields_scheduled(
    const TracedProgramSpec& spec) {
  ScheduleController controller(spec.num_threads, Policy::kRandom, 1);
  FastTrackDetector detector(spec.num_threads);
  TraceRuntime::Options options;
  options.num_threads = spec.num_threads;
  options.controller = &controller;
  TraceRuntime runtime(options, detector);
  spec.run(runtime, kScale);
  runtime.finish();
  return racy_fields(detector.report(), runtime);
}

std::set<std::string> fasttrack_fields_with_retry(
    const TracedProgramSpec& spec) {
  std::set<std::string> fields;
  for (int attempt = 0; attempt < kScheduleRetries; ++attempt) {
    const auto result = run_fasttrack_detector(spec, kScale);
    fields.insert(result.racy_fields.begin(), result.racy_fields.end());
    if (!fields.empty()) break;
  }
  return fields;
}

class RacyProgram : public ::testing::TestWithParam<const char*> {};

TEST_P(RacyProgram, ParamountFindsTheExpectedFields) {
  const TracedProgramSpec& spec = traced_program(GetParam());
  ASSERT_FALSE(spec.race_free);
  const auto fields =
      explore_schedules(spec, kScale, 3, Policy::kRandom, 1).racy_fields;
  for (const std::string& var : spec.expected_racy_vars) {
    EXPECT_TRUE(fields.count(field_of(var)))
        << spec.name << ": expected racy field '" << field_of(var)
        << "' not reported; got {"
        << [&] {
             std::string all;
             for (const auto& f : fields) all += f + ",";
             return all;
           }();
  }
}

TEST_P(RacyProgram, FastTrackAlsoFindsARace) {
  const TracedProgramSpec& spec = traced_program(GetParam());
  EXPECT_FALSE(fasttrack_fields_scheduled(spec).empty()) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(Table2, RacyProgram,
                         ::testing::Values("banking", "set_faulty",
                                           "arraylist1", "tsp", "raytracer",
                                           "hedc", "montecarlo"));

class RaceFreeProgram : public ::testing::TestWithParam<const char*> {};

TEST_P(RaceFreeProgram, ParamountReportsNothingEver) {
  const TracedProgramSpec& spec = traced_program(GetParam());
  ASSERT_TRUE(spec.race_free);
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto result = run_paramount_detector(spec, kScale);
    EXPECT_TRUE(result.racy_fields.empty())
        << spec.name << " false positive on attempt " << attempt << ": "
        << *result.racy_fields.begin();
  }
}

INSTANTIATE_TEST_SUITE_P(Table2, RaceFreeProgram,
                         ::testing::Values("set_correct", "arraylist2", "sor",
                                           "elevator", "moldyn"));

std::set<VarId> racy_vars(const RaceReport& report) {
  std::set<VarId> vars;
  for (const RaceFinding& f : report.findings()) vars.insert(f.var);
  return vars;
}

// One fixed recording per program, replayed through an inline and a pooled
// detector. These programs mix single-state intervals (which the pooled
// driver runs on the submitting thread) with multi-state ones (which it
// queues), so both dispatch arms run against the same oracle.
class RecordedProgram : public ::testing::TestWithParam<const char*> {};

TEST_P(RecordedProgram, PooledDetectorMatchesInline) {
  const TracedProgramSpec& spec = traced_program(GetParam());
  const RecordedTrace trace = record_program_scheduled(
      spec, kScale, /*record_sync_events=*/false, Policy::kChunked, 1);
  const std::size_t threads = trace.poset.num_threads();
  OnlineRaceDetector inline_detector(threads, {});
  OnlineRaceDetector::Options pooled_options;
  pooled_options.async_workers = 3;
  pooled_options.window_policy.gc_every = 64;
  OnlineRaceDetector pooled_detector(threads, std::move(pooled_options));
  for (OnlineRaceDetector* detector : {&inline_detector, &pooled_detector}) {
    detector->attach(trace.runtime->access_table());
    for (const EventId id : trace.order) {
      const Event& e = trace.poset.event(id);
      detector->on_event(id.tid, e.kind, e.object, e.vc);
    }
    detector->drain();
  }
  const auto ideals = count_ideals(trace.poset);
  ASSERT_TRUE(ideals.has_value());
  EXPECT_EQ(inline_detector.states_enumerated(), *ideals);
  EXPECT_EQ(pooled_detector.states_enumerated(), *ideals);
  EXPECT_EQ(racy_vars(pooled_detector.report()),
            racy_vars(inline_detector.report()));
  EXPECT_EQ(inline_detector.poset().outstanding_pins(), 0u);
  EXPECT_EQ(pooled_detector.poset().outstanding_pins(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, RecordedProgram,
                         ::testing::Values("banking", "set_faulty",
                                           "set_correct", "arraylist1",
                                           "arraylist2", "sor", "elevator",
                                           "tsp", "raytracer", "hedc",
                                           "moldyn", "montecarlo"));

TEST(Table2Nuance, FastTrackReportsBenignInitOnCorrectSet) {
  // The paper's set(correct) row: FastTrack reports the initialization
  // write; the ParaMount detector's §5.2 exemption does not.
  const TracedProgramSpec& spec = traced_program("set_correct");
  const auto fields = fasttrack_fields_with_retry(spec);
  EXPECT_FALSE(fields.empty());
}

TEST(Detectors, OfflineBfsAgreesWithParamountOnBanking) {
  const TracedProgramSpec& spec = traced_program("banking");
  std::set<std::string> offline_fields;
  for (int attempt = 0; attempt < kScheduleRetries; ++attempt) {
    const auto result = run_offline_bfs_detector(spec, kScale);
    ASSERT_FALSE(result.out_of_memory);
    offline_fields.insert(result.racy_fields.begin(),
                          result.racy_fields.end());
    if (!offline_fields.empty()) break;
  }
  EXPECT_TRUE(offline_fields.count("hot_balance"));
}

TEST(Detectors, OfflineBfsCleanOnSor) {
  const auto result = run_offline_bfs_detector(traced_program("sor"), kScale);
  ASSERT_FALSE(result.out_of_memory);
  EXPECT_TRUE(result.racy_fields.empty());
}

TEST(Detectors, OfflineBfsRunsOutOfBudgetOnWidePoset) {
  // A wide poset (12 fully concurrent single-event threads) overflows a
  // small BFS budget — the deterministic analogue of the paper's o.o.m.
  // rows. (The traced programs at test scale yield narrow lattices, so the
  // width is constructed directly here; bench_table2 exercises the budget
  // against the recorded programs at larger scales.)
  const Poset wide = testing::make_antichain(12);
  AccessTable empty_accesses(12);
  RaceReport report;
  const auto stats = detect_races_offline_bfs(wide, empty_accesses, report,
                                              /*budget_bytes=*/4 * 1024);
  EXPECT_TRUE(stats.out_of_memory);
  EXPECT_EQ(report.num_racy_vars(), 0u);
}

TEST(Detectors, ParamountDetectorCountsStatesAndEvents) {
  const auto result = run_paramount_detector(traced_program("banking"),
                                             kScale);
  EXPECT_GT(result.events, 10u);
  EXPECT_GT(result.states_enumerated, result.events);
}

TEST(Detectors, AsyncModeFindsSameRacesAsInline) {
  const TracedProgramSpec& spec = traced_program("arraylist1");
  OnlineRaceDetector::Options async_options;
  async_options.async_workers = 2;
  std::set<std::string> fields;
  for (int attempt = 0; attempt < kScheduleRetries; ++attempt) {
    const auto result = run_paramount_detector(spec, kScale, async_options);
    fields.insert(result.racy_fields.begin(), result.racy_fields.end());
    if (fields.size() >= 3) break;
  }
  EXPECT_TRUE(fields.count("size"));
}

TEST(Harness, FieldOfStripsPrefixes) {
  EXPECT_EQ(field_of("node3.next"), "next");
  EXPECT_EQ(field_of("G[2]"), "G");
  EXPECT_EQ(field_of("checksum"), "checksum");
  EXPECT_EQ(field_of("result.status"), "status");
}

TEST(Harness, BaseRunCompletes) {
  const auto result = run_base(traced_program("banking"), kScale);
  EXPECT_GE(result.seconds, 0.0);
}

}  // namespace
}  // namespace paramount
