// FastTrack baseline: the classic race/no-race scenarios, driven through the
// tracing runtime's raw access stream.
#include "detect/fasttrack.hpp"

#include <gtest/gtest.h>

#include "runtime/tracer.hpp"
#include "workloads/scenarios/scenarios.hpp"

namespace paramount {
namespace {

TEST(FastTrack, WriteWriteRaceDetected) {
  FastTrackDetector ft(2);
  TraceRuntime rt({.num_threads = 2}, ft);
  TracedVar<int> v(rt, "v", 0);
  TracedThread child(rt, [&] { v.store(1); });
  v.store(2);  // concurrent with the child's write
  child.join();
  rt.finish();
  EXPECT_TRUE(ft.report().has(v.id()));
}

TEST(FastTrack, WriteReadRaceDetected) {
  FastTrackDetector ft(2);
  TraceRuntime rt({.num_threads = 2}, ft);
  TracedVar<int> v(rt, "v", 0);
  TracedThread child(rt, [&] { (void)v.load(); });
  v.store(2);
  child.join();
  rt.finish();
  EXPECT_TRUE(ft.report().has(v.id()));
}

TEST(FastTrack, ReadReadIsNotARace) {
  FastTrackDetector ft(2);
  TraceRuntime rt({.num_threads = 2}, ft);
  TracedVar<int> v(rt, "v", 0);
  TracedThread child(rt, [&] { (void)v.load(); });
  (void)v.load();
  child.join();
  rt.finish();
  EXPECT_FALSE(ft.report().has(v.id()));
}

TEST(FastTrack, LockProtectedAccessesAreClean) {
  FastTrackDetector ft(2);
  TraceRuntime rt({.num_threads = 2}, ft);
  TracedMutex m(rt);
  TracedVar<int> v(rt, "v", 0);
  TracedThread child(rt, [&] {
    for (int i = 0; i < 10; ++i) {
      TracedLockGuard guard(m);
      v.store(v.load() + 1);
    }
  });
  for (int i = 0; i < 10; ++i) {
    TracedLockGuard guard(m);
    v.store(v.load() + 1);
  }
  child.join();
  rt.finish();
  EXPECT_FALSE(ft.report().has(v.id()));
  EXPECT_EQ(v.unsafe_load(), 20);
}

TEST(FastTrack, ForkJoinOrderedAccessesAreClean) {
  FastTrackDetector ft(2);
  TraceRuntime rt({.num_threads = 2}, ft);
  TracedVar<int> v(rt, "v", 0);
  v.store(1);  // before the fork
  TracedThread child(rt, [&] { v.store(2); });
  child.join();
  v.store(3);  // after the join
  rt.finish();
  EXPECT_FALSE(ft.report().has(v.id()));
}

TEST(FastTrack, ReadSharedThenRacyWrite) {
  // Several ordered readers inflate the read vector; a later unordered write
  // must be checked against all of them.
  FastTrackDetector ft(3);
  TraceRuntime rt({.num_threads = 3}, ft);
  TracedMutex m(rt);
  TracedVar<int> v(rt, "v", 0);
  v.store(1);  // main writes first (before forks: ordered)

  TracedThread r1(rt, [&] { (void)v.load(); });
  TracedThread r2(rt, [&] {
    (void)v.load();
    // ...and then writes without any synchronization: races with r1's read.
    v.store(9);
  });
  r1.join();
  r2.join();
  rt.finish();
  EXPECT_TRUE(ft.report().has(v.id()));
}

TEST(FastTrack, NoInitializationExemption) {
  // The counterpart of the ParaMount detector's §5.2 exemption: a benign
  // unsynchronized publication IS reported by FastTrack.
  FastTrackDetector ft(2);
  TraceRuntime rt({.num_threads = 2}, ft);
  TracedVar<int> v(rt, "v", 0);
  std::atomic<bool> ready{false};
  TracedThread reader(rt, [&] {
    while (!ready.load(std::memory_order_acquire)) std::this_thread::yield();
    (void)v.load();
  });
  v.store(42);  // initialization write, unsynchronized publication
  ready.store(true, std::memory_order_release);
  reader.join();
  rt.finish();
  EXPECT_TRUE(ft.report().has(v.id()));
}

TEST(FastTrack, SameEpochFastPathStillClean) {
  FastTrackDetector ft(1);
  TraceRuntime rt({.num_threads = 1}, ft);
  TracedVar<int> v(rt, "v", 0);
  for (int i = 0; i < 100; ++i) v.store(i);  // same collection, same epoch
  for (int i = 0; i < 100; ++i) (void)v.load();
  rt.finish();
  EXPECT_EQ(ft.report().num_racy_vars(), 0u);
}

TEST(FastTrack, ReportKeepsFirstWitnessPerVar) {
  FastTrackDetector ft(2);
  TraceRuntime rt({.num_threads = 2}, ft);
  TracedVar<int> a(rt, "a", 0);
  TracedVar<int> b(rt, "b", 0);
  TracedThread child(rt, [&] {
    a.store(1);
    b.store(1);
  });
  a.store(2);
  b.store(2);
  child.join();
  rt.finish();
  EXPECT_EQ(ft.report().num_racy_vars(), 2u);
  const auto findings = ft.report().findings();
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].var, a.id());
  EXPECT_EQ(findings[1].var, b.id());
}

// The hot-var scenario's skewed traffic races on its hot variable; FastTrack
// finds it straight from the scenario's access stream and clocks.
TEST(FastTrack, HotVarScenarioRaces) {
  ScenarioParams params;
  params.num_threads = 8;
  params.num_events = 4000;
  params.seed = 42;
  auto scenario = make_scenario("hot-var", params);
  ASSERT_NE(scenario, nullptr);
  FastTrackDetector detector(params.num_threads);
  trace::TraceEvent ev;
  while (scenario->next(&ev)) {
    for (const trace::TraceAccess& a : ev.accesses) {
      detector.on_raw_access(ev.tid, a.var, a.is_write, ev.clock);
    }
  }
  EXPECT_FALSE(detector.report().findings().empty());
}

}  // namespace
}  // namespace paramount
