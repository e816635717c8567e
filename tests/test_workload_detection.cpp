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

#include <tuple>

#include "poset/lattice.hpp"
#include "test_helpers.hpp"
#include "workloads/harness.hpp"
#include "workloads/scenarios/scenarios.hpp"

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

// ---- the race-set oracle, from the definition ----
//
// A variable is racy iff two collection events on different threads are
// concurrent (neither clock is componentwise <= the other) and hold a
// conflicting access pair: the same variable, at least one write, neither
// an initialization write. This is exact for the detectors: Gmin(e) ⊔
// Gmin(f) is a consistent state with both events on its frontier. The
// oracle compares every pair of collection events, O(E²), so it suits small
// inputs only. It shares no code with check_races, accesses_conflict,
// VectorClock::leq or RaceReport: it copies each clock into a plain vector,
// compares clocks itself and restates the conflict rule.
struct OracleAccess {
  VarId var;
  bool is_write;
  bool is_init;
};

struct OracleEvent {
  ThreadId tid;
  std::vector<std::uint32_t> clock;
  std::vector<OracleAccess> accesses;
};

bool clock_le(const std::vector<std::uint32_t>& a,
              const std::vector<std::uint32_t>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
  }
  return true;
}

std::set<VarId> oracle_racy_vars(const std::vector<OracleEvent>& events) {
  std::set<VarId> racy;
  for (std::size_t x = 0; x < events.size(); ++x) {
    for (std::size_t y = x + 1; y < events.size(); ++y) {
      const OracleEvent& e = events[x];
      const OracleEvent& f = events[y];
      if (e.tid == f.tid || clock_le(e.clock, f.clock) ||
          clock_le(f.clock, e.clock)) {
        continue;
      }
      for (const OracleAccess& a : e.accesses) {
        for (const OracleAccess& b : f.accesses) {
          if (a.var == b.var && (a.is_write || b.is_write) && !a.is_init &&
              !b.is_init) {
            racy.insert(a.var);
          }
        }
      }
    }
  }
  return racy;
}

std::vector<std::uint32_t> plain_clock(const VectorClock& clock) {
  std::vector<std::uint32_t> out(clock.size());
  for (std::size_t i = 0; i < clock.size(); ++i) out[i] = clock[i];
  return out;
}

// The collection events of a recorded poset, with their access sets.
std::vector<OracleEvent> oracle_events(const Poset& poset,
                                       const AccessTable& table) {
  std::vector<OracleEvent> events;
  for (ThreadId t = 0; t < poset.num_threads(); ++t) {
    for (EventIndex i = 1; i <= poset.num_events(t); ++i) {
      const Event& e = poset.event(t, i);
      if (e.kind != OpKind::kCollection) continue;
      OracleEvent ev{t, plain_clock(e.vc), {}};
      for (const Access& a : table.get(t, e.object)) {
        ev.accesses.push_back({a.var, a.is_write, a.is_init});
      }
      events.push_back(std::move(ev));
    }
  }
  return events;
}

// Feeds the events of `poset` in the →p order `order` to an inline and a
// pooled detector, runs the offline BFS detector over the whole lattice, and
// expects all three racy-variable sets to equal the oracle's. Both online
// detectors must also count every consistent state and release every pin.
void expect_detectors_match_oracle(const Poset& poset,
                                   const std::vector<EventId>& order,
                                   const AccessTable& table,
                                   const std::set<VarId>& oracle) {
  const std::size_t threads = poset.num_threads();
  OnlineRaceDetector inline_detector(threads, {});
  OnlineRaceDetector::Options pooled_options;
  pooled_options.async_workers = 3;
  pooled_options.window_policy.gc_every = 64;
  OnlineRaceDetector pooled_detector(threads, std::move(pooled_options));
  for (OnlineRaceDetector* detector : {&inline_detector, &pooled_detector}) {
    detector->attach(table);
    for (const EventId id : order) {
      const Event& e = poset.event(id);
      detector->on_event(id.tid, e.kind, e.object, e.vc);
    }
    detector->drain();
  }
  RaceReport offline_report;
  EXPECT_FALSE(
      detect_races_offline_bfs(poset, table, offline_report).out_of_memory);
  const auto ideals = count_ideals(poset);
  ASSERT_TRUE(ideals.has_value());
  EXPECT_EQ(inline_detector.states_enumerated(), *ideals);
  EXPECT_EQ(pooled_detector.states_enumerated(), *ideals);
  EXPECT_EQ(racy_vars(inline_detector.report()), oracle);
  EXPECT_EQ(racy_vars(pooled_detector.report()), oracle);
  EXPECT_EQ(racy_vars(offline_report), oracle);
  EXPECT_EQ(inline_detector.poset().outstanding_pins(), 0u);
  EXPECT_EQ(pooled_detector.poset().outstanding_pins(), 0u);
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
  const AccessTable& table = trace.runtime->access_table();
  expect_detectors_match_oracle(
      trace.poset, trace.order, table,
      oracle_racy_vars(oracle_events(trace.poset, table)));
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, RecordedProgram,
                         ::testing::Values("banking", "set_faulty",
                                           "set_correct", "arraylist1",
                                           "arraylist2", "sor", "elevator",
                                           "tsp", "raytracer", "hedc",
                                           "moldyn", "montecarlo"));

// Small hot-var streams: skewed traffic on one hot variable plus 63 cold
// ones, with initialization writes. The oracle reads the stream's own clocks
// and access lists; the detectors read the poset and an AccessTable built
// from them.
class HotVarStream
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t,
                                                 std::uint64_t>> {};

TEST_P(HotVarStream, DetectorsMatchRaceOracle) {
  const auto [threads, events, seed] = GetParam();
  std::unique_ptr<ScenarioStream> stream =
      make_scenario("hot-var", ScenarioParams{threads, events, seed});
  ASSERT_NE(stream, nullptr);
  PosetBuilder builder(threads);
  AccessTable table(threads);
  std::vector<EventId> order;
  std::vector<OracleEvent> oracle_input;
  trace::TraceEvent ev;
  while (stream->next(&ev)) {
    std::uint32_t object = ev.object;
    if (ev.kind == OpKind::kCollection) {
      AccessSet set;
      OracleEvent oracle_event{ev.tid, plain_clock(ev.clock), {}};
      for (const trace::TraceAccess& a : ev.accesses) {
        set.merge(a.var, a.is_write, a.is_init);
        oracle_event.accesses.push_back({a.var, a.is_write, a.is_init});
      }
      object = table.append(ev.tid, std::move(set));
      oracle_input.push_back(std::move(oracle_event));
    }
    order.push_back(
        builder.add_event_with_clock(ev.tid, ev.kind, object, ev.clock));
  }
  const Poset poset = std::move(builder).build();
  const std::set<VarId> oracle = oracle_racy_vars(oracle_input);
  EXPECT_FALSE(oracle.empty()) << "the hot variable never raced";
  expect_detectors_match_oracle(poset, order, table, oracle);
}

INSTANTIATE_TEST_SUITE_P(
    Small, HotVarStream,
    ::testing::Values(std::make_tuple(3u, 60u, 1u),
                      std::make_tuple(4u, 60u, 7u),
                      std::make_tuple(4u, 80u, 42u),
                      std::make_tuple(6u, 48u, 3u)),
    [](const auto& info) {
      return "t" + std::to_string(std::get<0>(info.param)) + "_e" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

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
