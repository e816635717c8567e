// Tracing runtime: the four happened-before rules (§4.1), Algorithm 3 clock
// maintenance, Figure-9 event-collection merging, the initialization-write
// exemption, and the Property-1 delivery order.
#include "runtime/tracer.hpp"

#include <gtest/gtest.h>

#include "poset/topo_sort.hpp"
#include "runtime/recording_sink.hpp"
#include "runtime/traced_barrier.hpp"
#include "util/sync.hpp"

namespace paramount {
namespace {

struct CapturedEvent {
  ThreadId tid;
  OpKind kind;
  std::uint32_t object;
  VectorClock clock;
};

// Records everything and keeps per-event access sets reachable.
class CaptureSink final : public TraceSink {
 public:
  void on_event(ThreadId tid, OpKind kind, std::uint32_t object,
                const VectorClock& clock) override {
    MutexLock guard(mutex_);
    events_.push_back({tid, kind, object, clock});
  }

  void on_raw_access(ThreadId tid, VarId var, bool is_write,
                     const VectorClock& clock) override {
    MutexLock guard(mutex_);
    raw_.push_back({tid, is_write ? OpKind::kWrite : OpKind::kRead, var,
                    clock});
  }

  std::vector<CapturedEvent> events() const {
    MutexLock guard(mutex_);
    return events_;
  }
  std::vector<CapturedEvent> raw() const {
    MutexLock guard(mutex_);
    return raw_;
  }

 private:
  mutable Mutex mutex_;
  std::vector<CapturedEvent> events_;
  std::vector<CapturedEvent> raw_;
};

TEST(Tracer, MergesAccessesIntoOneCollection) {
  CaptureSink sink;
  TraceRuntime rt({.num_threads = 1}, sink);
  TracedVar<int> v1(rt, "v1", 0);
  TracedVar<int> v2(rt, "v2", 0);
  // Figure 9(a): w(v1), r(v1), r(v2), r(v2) → one collection with
  // {v1: write, v2: read}.
  v1.store(5);
  (void)v1.load();
  (void)v2.load();
  (void)v2.load();
  rt.finish();

  const auto events = sink.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, OpKind::kCollection);
  const AccessSet& set = rt.access_table().get(0, events[0].object);
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set[0].var, v1.id());
  EXPECT_TRUE(set[0].is_write);
  EXPECT_EQ(set[1].var, v2.id());
  EXPECT_FALSE(set[1].is_write);
}

TEST(Tracer, WriteSupersedesEarlierReadInCollection) {
  CaptureSink sink;
  TraceRuntime rt({.num_threads = 1}, sink);
  TracedVar<int> v(rt, "v", 0);
  (void)v.load();
  v.store(1);
  rt.finish();
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 1u);
  const AccessSet& set = rt.access_table().get(0, events[0].object);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_TRUE(set[0].is_write);
}

TEST(Tracer, SyncSplitsCollections) {
  CaptureSink sink;
  TraceRuntime rt({.num_threads = 1}, sink);
  TracedMutex m(rt);
  TracedVar<int> v(rt, "v", 0);
  v.store(1);
  m.lock();
  v.store(2);
  m.unlock();
  v.store(3);
  rt.finish();
  // Three separate collections (before, inside, after the critical section).
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 3u);
  for (const auto& e : events) EXPECT_EQ(e.kind, OpKind::kCollection);
  // Own clock components are consecutive indices.
  EXPECT_EQ(events[0].clock[0], 1u);
  EXPECT_EQ(events[1].clock[0], 2u);
  EXPECT_EQ(events[2].clock[0], 3u);
}

TEST(Tracer, LockAtomicityEstablishesHappenedBefore) {
  CaptureSink sink;
  TraceRuntime rt({.num_threads = 2}, sink);
  TracedMutex m(rt);
  TracedVar<int> v(rt, "v", 0);

  m.lock();
  v.store(1);  // collection A inside main's critical section
  m.unlock();

  TracedThread child(rt, [&] {
    m.lock();
    (void)v.load();  // collection B: must be causally after A
    m.unlock();
  });
  child.join();
  rt.finish();

  const auto events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  const auto& a = events[0];
  const auto& b = events[1];
  EXPECT_EQ(a.tid, 0u);
  EXPECT_EQ(b.tid, 1u);
  // B's clock dominates A's: the lock carried the edge.
  EXPECT_TRUE(a.clock.leq(b.clock));
}

TEST(Tracer, ForkCarriesParentClock) {
  CaptureSink sink;
  TraceRuntime rt({.num_threads = 2}, sink);
  TracedVar<int> v(rt, "v", 0);
  v.store(1);  // main collection (index 1)
  TracedThread child(rt, [&] {
    (void)v.load();  // child's first collection
  });
  child.join();
  rt.finish();

  const auto events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  // The child's collection must see main's event: fork rule.
  EXPECT_EQ(events[1].tid, 1u);
  EXPECT_GE(events[1].clock[0], 1u);
  EXPECT_TRUE(events[0].clock.leq(events[1].clock));
}

TEST(Tracer, JoinFoldsChildClockIntoParent) {
  CaptureSink sink;
  TraceRuntime rt({.num_threads = 2}, sink);
  TracedVar<int> v(rt, "v", 0);
  TracedThread child(rt, [&] { v.store(7); });
  child.join();
  (void)v.load();  // after join: must be ordered after the child's write
  rt.finish();

  const auto events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].tid, 1u);  // child's collection delivered first
  EXPECT_EQ(events[1].tid, 0u);
  EXPECT_TRUE(events[0].clock.leq(events[1].clock));
}

TEST(Tracer, UnsynchronizedAccessesAreConcurrent) {
  CaptureSink sink;
  TraceRuntime rt({.num_threads = 2}, sink);
  TracedVar<int> v(rt, "v", 0);
  TracedThread child(rt, [&] { v.store(1); });
  v.store(2);  // main, concurrent with the child's store
  child.join();
  rt.finish();

  const auto events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  const auto& a = events[0];
  const auto& b = events[1];
  // Main had recorded nothing before the fork, so the child's collection
  // cannot contain main's store and vice versa: concurrent.
  EXPECT_FALSE(a.clock.leq(b.clock));
  EXPECT_FALSE(b.clock.leq(a.clock));
}

TEST(Tracer, RecordedSyncEventsCarryIndices) {
  CaptureSink sink;
  TraceRuntime rt({.num_threads = 1, .record_sync_events = true}, sink);
  TracedMutex m(rt);
  TracedVar<int> v(rt, "v", 0);
  m.lock();
  v.store(1);
  m.unlock();
  rt.finish();

  const auto events = sink.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, OpKind::kAcquire);
  EXPECT_EQ(events[1].kind, OpKind::kCollection);
  EXPECT_EQ(events[2].kind, OpKind::kRelease);
  EXPECT_EQ(events[0].clock[0], 1u);
  EXPECT_EQ(events[1].clock[0], 2u);
  EXPECT_EQ(events[2].clock[0], 3u);
}

TEST(Tracer, InitializationWritesFlagged) {
  CaptureSink sink;
  TraceRuntime rt({.num_threads = 2}, sink);
  TracedVar<int> v(rt, "v", 0);
  v.store(1);  // init: only main has touched v
  TracedMutex m(rt);
  m.lock();
  m.unlock();  // split collections
  TracedThread child(rt, [&] {
    v.store(2);  // not init: main touched v before
  });
  child.join();
  m.lock();
  m.unlock();
  v.store(3);  // main again: v is shared now — not init
  rt.finish();

  // Walk all collections and check flags per writer.
  bool saw_init = false, saw_non_init_child = false, saw_non_init_main = false;
  for (const auto& e : sink.events()) {
    if (e.kind != OpKind::kCollection) continue;
    const AccessSet& set = rt.access_table().get(e.tid, e.object);
    for (const Access& a : set) {
      if (!a.is_write) continue;
      if (e.tid == 0 && e.clock[0] == 1) {
        saw_init = a.is_init;
      } else if (e.tid == 1) {
        saw_non_init_child = !a.is_init;
      } else {
        saw_non_init_main = !a.is_init;
      }
    }
  }
  EXPECT_TRUE(saw_init);
  EXPECT_TRUE(saw_non_init_child);
  EXPECT_TRUE(saw_non_init_main);
}

TEST(Tracer, RawAccessHookSeesEveryAccess) {
  CaptureSink sink;
  TraceRuntime rt({.num_threads = 1}, sink);
  TracedVar<int> v(rt, "v", 0);
  v.store(1);
  (void)v.load();
  (void)v.load();
  rt.finish();
  EXPECT_EQ(sink.raw().size(), 3u);  // raw sees all; collection merged to 1
  EXPECT_EQ(sink.events().size(), 1u);
}

TEST(Tracer, RecordingSinkBuildsValidPoset) {
  RecordingSink sink(3);
  {
    TraceRuntime rt({.num_threads = 3}, sink);
    TracedMutex m(rt);
    TracedVar<int> v(rt, "v", 0);
    TracedThread a(rt, [&] {
      for (int i = 0; i < 3; ++i) {
        m.lock();
        v.store(i);
        m.unlock();
      }
    });
    TracedThread b(rt, [&] {
      for (int i = 0; i < 3; ++i) {
        m.lock();
        (void)v.load();
        m.unlock();
      }
    });
    a.join();
    b.join();
    rt.finish();
  }
  const auto order = sink.recorded_order();
  const Poset poset = std::move(sink).build();  // validates clocks
  EXPECT_EQ(poset.total_events(), order.size());
  // Property 1: the delivery order is a linear extension.
  EXPECT_TRUE(is_linear_extension(poset, order));
}

TEST(Tracer, BarrierOrdersBothDirections) {
  CaptureSink sink;
  TraceRuntime rt({.num_threads = 3}, sink);
  TracedBarrier barrier(rt, 2);
  TracedVar<int> x(rt, "x", 0);
  TracedVar<int> y(rt, "y", 0);

  TracedThread a(rt, [&] {
    x.store(1);
    barrier.arrive_and_wait();
    (void)y.load();
  });
  TracedThread b(rt, [&] {
    y.store(1);
    barrier.arrive_and_wait();
    (void)x.load();
  });
  a.join();
  b.join();
  rt.finish();

  // Each pre-barrier collection must happen-before both post-barrier ones.
  std::vector<CapturedEvent> pre, post;
  for (const auto& e : sink.events()) {
    if (e.kind != OpKind::kCollection) continue;
    if (e.clock[e.tid] == 1) {
      pre.push_back(e);
    } else {
      post.push_back(e);
    }
  }
  ASSERT_EQ(pre.size(), 2u);
  ASSERT_EQ(post.size(), 2u);
  for (const auto& p : pre) {
    for (const auto& q : post) {
      EXPECT_TRUE(p.clock.leq(q.clock));
    }
  }
}

TEST(Tracer, VarNamesRoundTrip) {
  CaptureSink sink;
  TraceRuntime rt({.num_threads = 1}, sink);
  TracedVar<int> a(rt, "alpha", 0);
  TracedVar<double> b(rt, "beta", 0.0);
  EXPECT_EQ(rt.num_vars(), 2u);
  EXPECT_EQ(rt.var_name(a.id()), "alpha");
  EXPECT_EQ(rt.var_name(b.id()), "beta");
  rt.finish();
}

TEST(Tracer, TeeSinkFansOutToAllSinks) {
  CaptureSink a, b;
  TeeSink tee({&a, &b});
  TraceRuntime rt({.num_threads = 1}, tee);
  TracedVar<int> v(rt, "v", 0);
  v.store(1);
  rt.finish();
  EXPECT_EQ(a.events().size(), 1u);
  EXPECT_EQ(b.events().size(), 1u);
  EXPECT_EQ(a.raw().size(), 1u);
  EXPECT_EQ(b.raw().size(), 1u);
}

TEST(Tracer, SequentialRuntimesOnSameThread) {
  // Benches run many traced programs back to back on the main thread; the
  // TLS binding must recycle cleanly.
  for (int round = 0; round < 3; ++round) {
    CaptureSink sink;
    TraceRuntime rt({.num_threads = 2}, sink);
    TracedVar<int> v(rt, "v", 0);
    TracedThread child(rt, [&] { v.store(round); });
    child.join();
    rt.finish();
    EXPECT_EQ(sink.events().size(), 1u);
  }
}

TEST(TracedVar, UnsafeAccessorsDontTrace) {
  CaptureSink sink;
  TraceRuntime rt({.num_threads = 1}, sink);
  TracedVar<int> v(rt, "v", 7);
  EXPECT_EQ(v.unsafe_load(), 7);
  v.unsafe_store(9);
  EXPECT_EQ(v.unsafe_load(), 9);
  rt.finish();
  EXPECT_TRUE(sink.events().empty());
  EXPECT_TRUE(sink.raw().empty());
}

}  // namespace
}  // namespace paramount
