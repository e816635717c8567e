#include "util/stable_vector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/sync.hpp"

namespace paramount {
namespace {

TEST(StableVector, StartsEmpty) {
  StableVector<int> v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.heap_bytes(), 0u);
}

TEST(StableVector, PushBackReturnsIndex) {
  StableVector<int> v;
  EXPECT_EQ(v.push_back(10), 0u);
  EXPECT_EQ(v.push_back(20), 1u);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 10);
  EXPECT_EQ(v[1], 20);
  EXPECT_EQ(v.back(), 20);
}

TEST(StableVector, ElementsAcrossManySegments) {
  StableVector<int, 16> v;  // 4 elements per segment
  constexpr int kCount = 10000;
  for (int i = 0; i < kCount; ++i) v.push_back(i * 2);
  ASSERT_EQ(v.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) ASSERT_EQ(v[i], i * 2);
}

TEST(StableVector, AddressesAreStableAcrossGrowth) {
  StableVector<int, 16> v;
  v.push_back(123);
  const int* p = &v[0];
  for (int i = 0; i < 5000; ++i) v.push_back(i);
  EXPECT_EQ(&v[0], p);
  EXPECT_EQ(*p, 123);
}

TEST(StableVector, HeapBytesGrowWithSegments) {
  StableVector<int, 16> v;
  v.push_back(1);
  const auto small = v.heap_bytes();
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_GT(v.heap_bytes(), small);
}

TEST(StableVector, MutableAccess) {
  StableVector<int> v;
  v.push_back(1);
  v[0] = 99;
  EXPECT_EQ(v[0], 99);
}

TEST(StableVector, ReleasePrefixFreesWholeSegmentsOnly) {
  // A 64-byte cap holds 16 ints; the ramp splits the first 16 into 2, 2,
  // 4 and 8: segments [0,2), [2,4), [4,8), [8,16), [16,32), [32,48), ...
  StableVector<int, 64> v;
  ASSERT_EQ(v.segment_rows(), 16u);
  for (int i = 0; i < 100; ++i) v.push_back(i);
  const auto full = v.heap_bytes();

  // n = 20 covers the four ramp segments entirely but only part of
  // [16,32): exactly 16 elements' worth of storage goes back.
  v.release_prefix(20);
  EXPECT_EQ(v.released(), 16u);
  EXPECT_EQ(v.heap_bytes(), full - 16 * sizeof(int));

  // Surviving elements keep their values and addresses.
  for (int i = 16; i < 100; ++i) ASSERT_EQ(v[i], i);

  // Releasing the same prefix again is a no-op.
  v.release_prefix(20);
  EXPECT_EQ(v.released(), 16u);
  EXPECT_EQ(v.heap_bytes(), full - 16 * sizeof(int));
}

TEST(StableVector, ReleasePrefixIsMonotoneAndClamped) {
  StableVector<int, 64> v;
  for (int i = 0; i < 64; ++i) v.push_back(i);

  // Far past the end: clamps to size(); segment starts 0, 2, 4, 8, 16, 32,
  // 48 and 64 — all seven segments below 64 go.
  v.release_prefix(1000);
  EXPECT_EQ(v.released(), 64u);

  // A smaller n afterwards must not resurrect or double-free anything.
  v.release_prefix(5);
  EXPECT_EQ(v.released(), 64u);

  // Appending continues after a full release.
  const std::size_t idx = v.push_back(777);
  EXPECT_EQ(idx, 64u);
  EXPECT_EQ(v[64], 777);
  EXPECT_EQ(v.size(), 65u);
}

TEST(StableVector, ReleasePrefixBoundsResidencyUnderStreaming) {
  // Streaming append + periodic release: resident bytes must stay bounded by
  // a few segments instead of growing with the total count.
  StableVector<std::uint64_t, 2048> v;  // 256-element segments
  std::size_t peak = 0;
  for (std::size_t i = 0; i < 64 * 1024; ++i) {
    v.push_back(i);
    if (i % 1024 == 0 && i > 512) v.release_prefix(i - 512);
    peak = std::max(peak, v.heap_bytes());
  }
  // Unreleased storage would be 64Ki * 8 = 512 KiB of elements alone; with
  // the 512-element live tail, element residency is a handful of segments.
  EXPECT_LT(peak, 64 * 1024u * sizeof(std::uint64_t) / 4);
  EXPECT_GT(v.released(), 60 * 1024u);
  for (std::size_t i = v.released(); i < v.size(); ++i) ASSERT_EQ(v[i], i);
}

// Rows per segment come from the byte cap: the largest power of two whose
// rows fit in it, and at least one.
TEST(StableVector, SegmentsAreSizedInBytes) {
  EXPECT_EQ(StableVector<std::uint32_t>().segment_rows(), kSegmentBytes / 4);
  // OnlinePoset rows: n clock words plus kind and object.
  for (const std::size_t threads : {6u, 64u, 500u}) {
    const std::size_t row_bytes = (threads + 2) * sizeof(std::uint32_t);
    const StableVector<std::uint32_t> v(threads + 2);
    EXPECT_LE(v.segment_rows() * row_bytes, kSegmentBytes) << threads;
    EXPECT_GT(2 * v.segment_rows() * row_bytes, kSegmentBytes) << threads;
  }
  // A row wider than the cap gets a segment of its own.
  EXPECT_EQ(StableVector<std::uint32_t>(kSegmentBytes).segment_rows(), 1u);
}

// A windowed vector has no lifetime cap: released leaf blocks hand their
// top-level slots back, so the 2^18-segment directory bounds only the live
// rows. With 4-element segments one lap of the directory is 2^20 elements;
// four laps behind a 64-element live window must keep every live element
// readable and the heap at a few segments plus at most two leaves.
TEST(StableVector, WindowedVectorOutlivesTheDirectory) {
  StableVector<int, 16> v;
  ASSERT_EQ(v.segment_rows(), 4u);
  constexpr std::size_t kLap = std::size_t{1} << 20;
  constexpr std::size_t kWindow = 64;
  constexpr std::size_t kReleaseEvery = 16;
  std::size_t peak = 0;
  for (std::size_t i = 0; i < 4 * kLap + 1000; ++i) {
    v.push_back(static_cast<int>(i));
    if (i % kReleaseEvery == 0 && i >= kWindow) {
      v.release_prefix(i + 1 - kWindow);
    }
    peak = std::max(peak, v.heap_bytes());
    if (i % 99991 == 0) {
      for (std::size_t j = v.released(); j < v.size(); ++j) {
        ASSERT_EQ(v[j], static_cast<int>(j));
      }
    }
  }
  for (std::size_t j = v.released(); j < v.size(); ++j) {
    ASSERT_EQ(v[j], static_cast<int>(j));
  }
  // Live: the window, one release period and a partial segment.
  constexpr std::size_t kLiveSegments = (kWindow + kReleaseEvery) / 4 + 2;
  constexpr std::size_t kLeafBytes = 512 * sizeof(std::atomic<int*>);
  EXPECT_LE(peak, 2 * kLeafBytes + kLiveSegments * 16);
  EXPECT_GE(v.released(), v.size() - kWindow - kReleaseEvery);
}

// One writer streams through two laps of the directory while a reader keeps
// reading the live window, so leaf blocks are freed and their top slots
// reused under the reader. The reader pins the window floor it reads above
// and the writer never releases past a pin (OnlinePoset's EnumGuard
// protocol in miniature), so every free is ordered after the reads of it.
// A reader stalled for a whole lap fills the directory; the writer then
// waits for its pin to go instead of appending.
TEST(StableVector, ReaderFollowsTheWindowAcrossLeafRecycling) {
  // One element per segment, so a lap of the directory is 2^18 elements.
  StableVector<std::uint64_t, sizeof(std::uint64_t)> v;
  constexpr std::uint64_t kCount = (std::uint64_t{2} << 18) + 4096;
  constexpr std::size_t kWindow = 2048;
  constexpr std::size_t kReleaseEvery = 512;
  constexpr std::size_t kUnpinned = ~std::size_t{0};
  Mutex mutex;
  CondVar unpinned;
  std::size_t floor = 0;           // guarded by mutex
  std::size_t pinned = kUnpinned;  // guarded by mutex
  std::atomic<bool> done{false};
  std::uint64_t passes = 0;
  std::uint64_t bad = 0;

  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      std::size_t lo;
      {
        MutexLock lock(mutex);
        lo = floor;
        pinned = lo;
      }
      // At most a window per pass, however far the writer has run ahead.
      const std::size_t hi =
          std::min(v.size(), lo + kWindow + kReleaseEvery);
      for (std::size_t i = lo; i < hi; ++i) {
        if (v[i] != i * 3 + 1) ++bad;
      }
      ++passes;
      MutexLock lock(mutex);
      pinned = kUnpinned;
      unpinned.notify_all();
    }
  });
  for (std::uint64_t i = 0; i < kCount; ++i) {
    if (v.full() || (i % kReleaseEvery == 0 && i >= kWindow)) {
      std::size_t target;
      {
        MutexLock lock(mutex);
        while (v.full() && pinned != kUnpinned) unpinned.wait(mutex);
        floor = std::max(floor, std::min<std::size_t>(i - kWindow, pinned));
        target = floor;
      }
      v.release_prefix(target);
    }
    v.push_back(i * 3 + 1);
  }
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(bad, 0u);
  EXPECT_GT(passes, 0u);
  EXPECT_GT(v.released(), 0u);
}

// A vector that is never released fills its directory: full() turns true
// exactly when the next append would need a top slot that a live block
// holds, and releasing that block makes room again. Input-fed callers of
// the online poset and the AccessTable turn full() into a typed error.
TEST(StableVector, FullReportsTheDirectoryCapacity) {
  // One element per segment: a one-element ramp, then leaf blocks of 512.
  StableVector<int, sizeof(int)> v;
  constexpr std::size_t kCapacity = 1 + 512 * 512;  // ramp + top x leaf
  for (std::size_t i = 0; i < kCapacity; ++i) {
    ASSERT_FALSE(v.full()) << i;
    v.push_back(static_cast<int>(i));
  }
  EXPECT_TRUE(v.full());
  v.release_prefix(512);  // the ramp and the first block but its last
  EXPECT_TRUE(v.full());
  v.release_prefix(513);
  EXPECT_FALSE(v.full());
  EXPECT_EQ(v.push_back(-1), kCapacity);
  EXPECT_EQ(v[kCapacity], -1);
  EXPECT_EQ(v[513], 513);
}

TEST(StableVectorDeathTest, AppendWhenFullAborts) {
  using OneElementSegments = StableVector<int, sizeof(int)>;
  EXPECT_DEATH(
      {
        OneElementSegments v;
        while (!v.full()) v.push_back(0);
        v.push_back(0);
      },
      "directory full");
}

// Single writer appends while several readers continuously validate every
// published element. TSan-clean by design; under plain execution this checks
// the acquire/release protocol delivers fully written elements.
TEST(StableVector, ConcurrentReadersSeePublishedElements) {
  StableVector<std::uint64_t, 64> v;  // 8 elements per segment
  constexpr std::uint64_t kCount = 20000;
  std::atomic<bool> stop{false};

  auto reader = [&] {
    // relaxed: advisory stop flag; element visibility is carried by the
    // vector's own acquire/release protocol under test.
    while (!stop.load(std::memory_order_relaxed)) {
      const std::size_t n = v.size();
      for (std::size_t i = 0; i < n; ++i) {
        // Element i was published with value i * 3 + 1; a torn or
        // un-published read would break this.
        if (v[i] != i * 3 + 1) {
          ADD_FAILURE() << "reader saw bad value at " << i;
          return;
        }
      }
    }
  };

  std::thread r1(reader);
  std::thread r2(reader);
  for (std::uint64_t i = 0; i < kCount; ++i) v.push_back(i * 3 + 1);
  // relaxed: advisory stop flag, see the reader loop.
  stop.store(true, std::memory_order_relaxed);
  r1.join();
  r2.join();
  EXPECT_EQ(v.size(), kCount);
}

}  // namespace
}  // namespace paramount
