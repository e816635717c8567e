// Annotated synchronization wrappers (util/sync.hpp): mutual exclusion,
// try-lock and guard adoption, and condition-variable wakeups. Runs under
// TSan in CI (suite names match the tsan job's -R Sync filter), so the
// wrappers' forwarding to the std primitives is also checked dynamically.
// Guarded state lives in small structs because PM_GUARDED_BY only applies to
// data members, not locals — which also makes these tests a compile-time
// exercise of the annotations under -DPARAMOUNT_THREAD_SAFETY.
#include "util/sync.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace paramount {
namespace {

struct GuardedCounter {
  Mutex mutex;
  long value PM_GUARDED_BY(mutex) = 0;
};

TEST(SyncMutex, MutualExclusionAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kIncrements = 10000;
  GuardedCounter counter;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock guard(counter.mutex);
        ++counter.value;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  MutexLock guard(counter.mutex);
  EXPECT_EQ(counter.value, static_cast<long>(kThreads) * kIncrements);
}

TEST(SyncMutex, TryLockFailsWhileHeldAndSucceedsAfter) {
  Mutex mutex;
  {
    MutexLock guard(mutex);
    // Contention must be observed from another thread: locking a std::mutex
    // the same thread already holds is undefined behavior.
    bool acquired = true;
    std::thread prober([&] {
      acquired = mutex.try_lock();
      if (acquired) mutex.unlock();
    });
    prober.join();
    EXPECT_FALSE(acquired);
  }
  const bool acquired = mutex.try_lock();
  EXPECT_TRUE(acquired);
  if (acquired) mutex.unlock();
}

TEST(SyncMutex, AdoptedGuardReleasesOnScopeExit) {
  Mutex mutex;
  const bool acquired = mutex.try_lock();
  ASSERT_TRUE(acquired);
  if (acquired) {
    MutexLock guard(mutex, kAdoptLock);  // takes over the release
  }
  // If the adopted guard failed to unlock, this second try_lock would fail.
  const bool reacquired = mutex.try_lock();
  EXPECT_TRUE(reacquired);
  if (reacquired) mutex.unlock();
}

struct Turnstile {
  Mutex mutex;
  CondVar cv;
  bool ready PM_GUARDED_BY(mutex) = false;
  int count PM_GUARDED_BY(mutex) = 0;
};

TEST(SyncCondVar, NotifyOneWakesPredicateLoop) {
  Turnstile ts;

  std::thread waiter([&] {
    MutexLock lock(ts.mutex);
    while (!ts.ready) ts.cv.wait(ts.mutex);
    ts.count = 1;
  });
  {
    MutexLock lock(ts.mutex);
    ts.ready = true;
  }
  ts.cv.notify_one();
  waiter.join();

  MutexLock lock(ts.mutex);
  EXPECT_EQ(ts.count, 1);
}

TEST(SyncCondVar, NotifyAllWakesEveryWaiter) {
  constexpr int kWaiters = 6;
  Turnstile ts;

  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      MutexLock lock(ts.mutex);
      while (!ts.ready) ts.cv.wait(ts.mutex);
      ++ts.count;
    });
  }
  {
    MutexLock lock(ts.mutex);
    ts.ready = true;
  }
  ts.cv.notify_all();
  for (std::thread& t : waiters) t.join();

  MutexLock lock(ts.mutex);
  EXPECT_EQ(ts.count, kWaiters);
}

struct Token {
  Mutex mutex;
  CondVar cv;
  int turn PM_GUARDED_BY(mutex) = 0;  // 0 = main's turn, 1 = worker's
};

TEST(SyncCondVar, PingPongHandsTokenBackAndForth) {
  constexpr int kRounds = 1000;
  Token token;

  std::thread worker([&] {
    for (int i = 0; i < kRounds; ++i) {
      MutexLock lock(token.mutex);
      while (token.turn != 1) token.cv.wait(token.mutex);
      token.turn = 0;
      token.cv.notify_one();
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    MutexLock lock(token.mutex);
    while (token.turn != 0) token.cv.wait(token.mutex);
    token.turn = 1;
    token.cv.notify_one();
  }
  worker.join();

  MutexLock lock(token.mutex);
  EXPECT_EQ(token.turn, 0);
}

}  // namespace
}  // namespace paramount
