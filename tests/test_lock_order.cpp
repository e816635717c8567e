// Lock-order fixture for the OnlinePoset insert/pin mutexes.
//
// The declared order (poset/online_poset.hpp) is insert_mutex_ before
// pin_mutex_ (PM_ACQUIRED_AFTER). These tests drive every path that takes
// either — insert, pin_interval (both), pin_newest, collect (both),
// EnumGuard release — under a ScheduleController so each (policy, seed)
// replays one deterministic interleaving, plus a raw-thread hammer that
// gives TSan's lock-order analysis real concurrent acquisitions to
// order-check.
//
// The deliberately inverted variant at the bottom (compiled only under
// -DPARAMOUNT_LOCK_ORDER_INVERT) acquires two PM_ACQUIRED_AFTER-declared
// mutexes in the wrong order; the CI static-analysis step compiles this file
// with the define and -Werror=thread-safety and must FAIL, proving the
// annotations actually catch an inversion rather than merely decorating it.
#include "poset/online_poset.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "runtime/schedule_controller.hpp"
#include "util/sync.hpp"

namespace paramount {
namespace {

// One worker under the controller: every poset operation is a schedule
// point, so the (policy, seed) pair fully determines how inserts, pins,
// collects, and releases interleave across threads.
void scheduled_worker(ScheduleController& controller, OnlinePoset& poset,
                      ThreadId tid, EventIndex events) {
  for (EventIndex i = 1; i <= events; ++i) {
    // Cross-thread clock: adopt everything published so far (exact while
    // holding the token — nobody else can insert). The edges let the
    // watermark advance, so collect() below genuinely reclaims.
    VectorClock clock = poset.published_frontier();
    clock[tid] = i;
    const OnlinePoset::Inserted ins =
        poset.insert(tid, OpKind::kInternal, 0, clock);
    OnlinePoset::EnumGuard guard = poset.pin_interval(ins.gmin);
    controller.yield_point(tid);

    if (i % 4 == 0) {
      // Second pin on the same interval via the drivers' hand-off entry
      // point: the event is still its thread's newest.
      OnlinePoset::EnumGuard extra(&poset, poset.pin_newest(ins.id));
      controller.yield_point(tid);
      extra.release();
    }
    if (i % 8 == 0) {
      poset.collect();
      controller.yield_point(tid);
    }
    guard.release();
    controller.yield_point(tid);
  }
}

class LockOrder
    : public ::testing::TestWithParam<
          std::pair<ScheduleController::Policy, std::uint64_t>> {};

TEST_P(LockOrder, InsertPinCollectUnderSchedule) {
  const auto [policy, seed] = GetParam();
  constexpr std::size_t kThreads = 3;
  constexpr EventIndex kEvents = 40;
  OnlinePoset poset(kThreads);
  ScheduleController controller(kThreads, policy, seed);
  controller.start(0);

  std::vector<std::thread> threads;
  for (ThreadId t = 1; t < kThreads; ++t) {
    controller.thread_created(t);
    threads.emplace_back([&, t] {
      controller.thread_arrived(t);
      scheduled_worker(controller, poset, t, kEvents);
      controller.thread_finished(t);
    });
  }
  scheduled_worker(controller, poset, 0, kEvents);
  controller.thread_finished(0);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(poset.total_events(), kThreads * kEvents);
  EXPECT_EQ(poset.outstanding_pins(), 0u);
  poset.collect();
  // The cross-thread clocks advance the watermark, so with no pins left the
  // final pass must have reclaimed a prefix on every thread.
  EXPECT_GT(poset.reclaimed_events(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, LockOrder,
    ::testing::Values(
        std::make_pair(ScheduleController::Policy::kRoundRobin, 1ull),
        std::make_pair(ScheduleController::Policy::kRandom, 1ull),
        std::make_pair(ScheduleController::Policy::kRandom, 2ull),
        std::make_pair(ScheduleController::Policy::kChunked, 1ull),
        std::make_pair(ScheduleController::Policy::kChunked, 7ull)),
    [](const ::testing::TestParamInfo<
        std::pair<ScheduleController::Policy, std::uint64_t>>& info) {
      const char* policy = "";
      switch (info.param.first) {
        case ScheduleController::Policy::kRoundRobin: policy = "RoundRobin";
          break;
        case ScheduleController::Policy::kRandom: policy = "Random"; break;
        case ScheduleController::Policy::kChunked: policy = "Chunked"; break;
      }
      return std::string(policy) + "Seed" + std::to_string(info.param.second);
    });

// Unscheduled hammer: real parallelism on the same mutex pairs, so the TSan
// job observes insert_mutex_/pin_mutex_ acquisitions from four threads at
// once and would flag any ordering violation between them.
TEST(LockOrder, RawThreadHammer) {
  constexpr std::size_t kThreads = 4;
  constexpr EventIndex kEvents = 400;
  OnlinePoset poset(kThreads);
  std::vector<std::thread> threads;
  for (ThreadId t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (EventIndex i = 1; i <= kEvents; ++i) {
        // Own-component-only clocks: always valid regardless of what the
        // other threads have published.
        VectorClock clock(kThreads);
        clock[t] = i;
        const OnlinePoset::Inserted ins =
            poset.insert(t, OpKind::kInternal, 0, clock);
        OnlinePoset::EnumGuard guard = poset.pin_interval(ins.gmin);
        if (i % 16 == 0) poset.collect();
        if (i % 5 == 0) {
          OnlinePoset::EnumGuard extra(&poset, poset.pin_newest(ins.id));
          extra.release();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(poset.total_events(), kThreads * kEvents);
  EXPECT_EQ(poset.outstanding_pins(), 0u);
}

#ifdef PARAMOUNT_LOCK_ORDER_INVERT
// Negative-compile fixture: two mutexes with the same declared order as the
// OnlinePoset pair, acquired inverted. With -Wthread-safety-beta promoted to
// an error this translation unit must not compile; the CI step asserts the
// failure (and asserts success without the define).
namespace inverted_fixture {

Mutex insert_mutex;
Mutex pin_mutex PM_ACQUIRED_AFTER(insert_mutex);

void inverted_acquisition() {
  MutexLock pin_first(pin_mutex);
  MutexLock insert_second(insert_mutex);  // violates the declared order
}

}  // namespace inverted_fixture

TEST(LockOrder, InvertedFixtureSmoke) {
  inverted_fixture::inverted_acquisition();
}
#endif  // PARAMOUNT_LOCK_ORDER_INVERT

}  // namespace
}  // namespace paramount
