#include "poset/vector_clock.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "poset/clock_engine.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace paramount {
namespace {

TEST(VectorClock, ZeroInitialized) {
  VectorClock vc(4);
  EXPECT_EQ(vc.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(vc[i], 0u);
}

TEST(VectorClock, InitializerList) {
  VectorClock vc{1, 2, 3};
  EXPECT_EQ(vc.size(), 3u);
  EXPECT_EQ(vc[1], 2u);
}

TEST(VectorClock, JoinTakesComponentwiseMax) {
  VectorClock a{3, 1, 0};
  a.join({1, 4, 2});
  EXPECT_EQ(a, (VectorClock{3, 4, 2}));
}

TEST(VectorClock, JoinIsIdempotent) {
  VectorClock a{2, 5};
  VectorClock b = a;
  a.join(b);
  EXPECT_EQ(a, b);
}

TEST(VectorClock, LeqReflexive) {
  VectorClock a{1, 2, 3};
  EXPECT_TRUE(a.leq(a));
}

TEST(VectorClock, LeqComponentwise) {
  EXPECT_TRUE((VectorClock{1, 2}).leq({1, 3}));
  EXPECT_FALSE((VectorClock{1, 4}).leq({1, 3}));
  EXPECT_FALSE((VectorClock{2, 2}).leq({1, 3}));
}

TEST(VectorClock, CompareEnumeratesAllCases) {
  using O = VectorClock::Order;
  EXPECT_EQ(VectorClock::compare({1, 2}, {1, 2}), O::kEqual);
  EXPECT_EQ(VectorClock::compare({1, 1}, {1, 2}), O::kLess);
  EXPECT_EQ(VectorClock::compare({2, 2}, {1, 2}), O::kGreater);
  EXPECT_EQ(VectorClock::compare({2, 0}, {0, 2}), O::kConcurrent);
}

TEST(VectorClock, LexLessUsesFirstDifference) {
  EXPECT_TRUE(VectorClock::lex_less({1, 9}, {2, 0}));
  EXPECT_FALSE(VectorClock::lex_less({2, 0}, {1, 9}));
  EXPECT_TRUE(VectorClock::lex_less({1, 1}, {1, 2}));
  EXPECT_FALSE(VectorClock::lex_less({1, 2}, {1, 2}));
}

TEST(VectorClock, HashEqualForEqualClocks) {
  EXPECT_EQ((VectorClock{1, 2, 3}).hash(), (VectorClock{1, 2, 3}).hash());
}

TEST(VectorClock, HashMostlyDistinct) {
  // Sanity: hashing a few thousand distinct clocks should not collapse.
  std::set<std::uint64_t> hashes;
  for (EventIndex i = 0; i < 50; ++i) {
    for (EventIndex j = 0; j < 50; ++j) {
      hashes.insert(VectorClock{i, j}.hash());
    }
  }
  EXPECT_GT(hashes.size(), 2400u);
}

TEST(VectorClock, SumAddsComponents) {
  EXPECT_EQ((VectorClock{1, 2, 3}).sum(), 6u);
  EXPECT_EQ(VectorClock(3).sum(), 0u);
}

TEST(VectorClock, ToString) {
  EXPECT_EQ((VectorClock{1, 0, 2}).to_string(), "[1,0,2]");
  EXPECT_EQ(VectorClock().to_string(), "[]");
}

TEST(VectorClock, Algorithm3CalculateVectorClock) {
  // The paper's worked example: thread t acquires lock l.
  VectorClock thread_clock{2, 1, 0};
  VectorClock lock_clock{0, 3, 1};
  const VectorClock event_clock =
      calculate_vector_clock(0, thread_clock, lock_clock);
  // Own component incremented, then joined with the lock's clock.
  EXPECT_EQ(event_clock, (VectorClock{3, 3, 1}));
  // The thread carries the new clock; the lock adopted it (vcj ← vci).
  EXPECT_EQ(thread_clock, event_clock);
  EXPECT_EQ(lock_clock, event_clock);
}

TEST(VectorClock, Algorithm3ChainsHandOffs) {
  // Release/acquire through a lock transfers causality transitively.
  VectorClock t0{0, 0}, t1{0, 0}, lock{0, 0};
  calculate_vector_clock(0, t0, lock);  // t0 acquires
  const VectorClock after_t1 = calculate_vector_clock(1, t1, lock);
  EXPECT_EQ(after_t1, (VectorClock{1, 1}));  // t1 saw t0's event
}

// ClockEngine against a reference written here over plain vectors: tick,
// componentwise max, and the timeline adopting the result. Widths 16 and 17
// straddle VectorClock's inline buffer, and timelines come into use in
// random order, each starting from zero.
TEST(ClockEngine, MatchesPlainVectorReference) {
  using Plain = std::vector<std::uint32_t>;
  const auto join = [](Plain& into, const Plain& from) {
    for (std::size_t i = 0; i < into.size(); ++i) {
      into[i] = std::max(into[i], from[i]);
    }
  };
  for (const std::size_t n : {3u, 16u, 17u, 64u}) {
    ClockEngine engine(n);
    std::vector<Plain> threads(n, Plain(n, 0));
    std::vector<Plain> timelines;
    Rng rng(99 + n);
    VectorClock got;
    for (int op = 0; op < 2000; ++op) {
      const auto tid = static_cast<ThreadId>(rng.next_below(n));
      Plain& mine = threads[tid];
      const std::size_t kind = rng.next_below(3);
      if (kind == 0) {
        engine.local_step(tid, &got);
        mine[tid] += 1;
      } else if (kind == 1) {
        const std::size_t timeline = rng.next_below(8);
        engine.sync_step(tid, timeline, &got);
        if (timeline >= timelines.size()) {
          timelines.resize(timeline + 1, Plain(n, 0));
        }
        mine[tid] += 1;
        join(mine, timelines[timeline]);
        timelines[timeline] = mine;
      } else {
        auto src = static_cast<ThreadId>(rng.next_below(n));
        if (src == tid) src = static_cast<ThreadId>((src + 1) % n);
        engine.absorb_step(tid, src, &got);
        mine[tid] += 1;
        join(mine, threads[src]);
      }
      ASSERT_EQ(Plain(got.data(), got.data() + got.size()), mine)
          << "n=" << n << " op " << op;
    }
  }
}

// Regression: join/leq on size-mismatched clocks used to read out of bounds
// in release builds (the only guard was a PM_DCHECK, which compiles out).
// These tests exercise the mismatch path unconditionally — under
// ASan/release CI they would have caught the overread; now they pin the
// width-extending semantics.
TEST(VectorClock, JoinWidensToLargerClock) {
  VectorClock narrow{5, 1};
  narrow.join({1, 2, 7, 4});
  EXPECT_EQ(narrow, (VectorClock{5, 2, 7, 4}));

  VectorClock wide{1, 2, 7, 4};
  wide.join({5, 1});  // shorter argument: zero-extended, width kept
  EXPECT_EQ(wide, (VectorClock{5, 2, 7, 4}));
}

TEST(VectorClock, LeqZeroExtendsTheShorterClock) {
  const VectorClock narrow{1, 2};
  const VectorClock wide{1, 2, 0, 0};
  EXPECT_TRUE(narrow.leq(wide));
  EXPECT_TRUE(wide.leq(narrow));  // trailing zeros are "missing" components
  EXPECT_FALSE((VectorClock{1, 2, 3}).leq(narrow));
  EXPECT_TRUE(narrow.leq(VectorClock{1, 2, 3}));
}

TEST(VectorClock, CompareAndLexLessZeroExtend) {
  const VectorClock narrow{1, 2};
  EXPECT_EQ(VectorClock::compare(narrow, {1, 2, 0}),
            VectorClock::Order::kEqual);
  EXPECT_EQ(VectorClock::compare(narrow, {1, 2, 4}),
            VectorClock::Order::kLess);
  EXPECT_EQ(VectorClock::compare({1, 2, 4}, narrow),
            VectorClock::Order::kGreater);
  EXPECT_EQ(VectorClock::compare({0, 3}, {1, 0, 2}),
            VectorClock::Order::kConcurrent);
  EXPECT_FALSE(VectorClock::lex_less(narrow, {1, 2, 0}));
  EXPECT_TRUE(VectorClock::lex_less(narrow, {1, 2, 1}));
  EXPECT_TRUE(VectorClock::lex_less({1, 1, 9}, {1, 2}));
}

// The satellite bugfix replaced compare()'s two full leq scans with a single
// early-exiting pass; this pins the equivalence on randomized clocks.
TEST(VectorClock, SinglePassCompareMatchesTwoLeqScans) {
  std::uint64_t rng = 0x2545f4914f6cdd1dULL;
  const auto next = [&rng](std::uint32_t bound) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return static_cast<EventIndex>(rng % bound);
  };
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t na = 1 + next(6);
    const std::size_t nb = 1 + next(6);
    VectorClock a(na), b(nb);
    // Small component range so equal/ordered pairs occur often.
    for (std::size_t i = 0; i < na; ++i) a[i] = next(3);
    for (std::size_t i = 0; i < nb; ++i) b[i] = next(3);
    const bool ab = a.leq(b);
    const bool ba = b.leq(a);
    const VectorClock::Order expected =
        ab && ba ? VectorClock::Order::kEqual
        : ab     ? VectorClock::Order::kLess
        : ba     ? VectorClock::Order::kGreater
                 : VectorClock::Order::kConcurrent;
    EXPECT_EQ(VectorClock::compare(a, b), expected)
        << a.to_string() << " vs " << b.to_string();
  }
}

// Frontier::hash() must keep distinct states collision-free in the full
// 64-bit hash over a realistic corpus: frontiers are *small dense integers*,
// the degenerate regime for weak mixers (the old shift-xor fold collided on
// most of such a corpus).
TEST(FrontierHashQuality, CollisionRatesStayBelowFixedBounds) {
  std::vector<Frontier> corpus;
  // Every state of a 63x63 grid: 4096 highly regular two-component states.
  for (EventIndex a = 0; a <= 63; ++a) {
    for (EventIndex b = 0; b <= 63; ++b) corpus.push_back(Frontier{a, b});
  }
  // Wider random frontiers with small components (the shapes enumeration
  // actually produces), across several widths.
  Rng rng(2026);
  for (std::size_t width = 3; width <= 10; ++width) {
    for (int i = 0; i < 2000; ++i) {
      Frontier f(width);
      for (std::size_t c = 0; c < width; ++c) {
        f[c] = static_cast<EventIndex>(rng.next_below(40));
      }
      corpus.push_back(f);
    }
  }

  // Dedup payloads: only distinct states may count as collisions.
  std::set<testing::Key> seen;
  std::vector<std::uint64_t> hashes;
  for (const Frontier& f : corpus) {
    if (seen.insert(testing::key_of(f)).second) hashes.push_back(f.hash());
  }
  ASSERT_GT(hashes.size(), 15000u)
      << "corpus should be large enough to be meaningful";

  std::sort(hashes.begin(), hashes.end());
  EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()), hashes.end())
      << "distinct states must not collide in the full 64-bit hash";
}

}  // namespace
}  // namespace paramount
