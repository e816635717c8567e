#include "util/inlined_vector.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

#include <cstdint>
#include <numeric>
#include <vector>

namespace paramount {
namespace {

using IV = InlinedVector<std::uint32_t, 4>;

TEST(InlinedVector, StartsEmptyAndInline) {
  IV v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.capacity(), 4u);
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.heap_bytes(), 0u);
}

TEST(InlinedVector, CountConstructorFills) {
  IV v(3, 7);
  ASSERT_EQ(v.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(v[i], 7u);
}

TEST(InlinedVector, InitializerList) {
  IV v{1, 2, 3};
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v.front(), 1u);
  EXPECT_EQ(v.back(), 3u);
}

TEST(InlinedVector, PushBackWithinInlineCapacity) {
  IV v;
  for (std::uint32_t i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.size(), 4u);
}

TEST(InlinedVector, SpillsToHeapBeyondInlineCapacity) {
  IV v;
  for (std::uint32_t i = 0; i < 20; ++i) v.push_back(i);
  EXPECT_FALSE(v.is_inline());
  EXPECT_GT(v.heap_bytes(), 0u);
  for (std::uint32_t i = 0; i < 20; ++i) EXPECT_EQ(v[i], i);
}

TEST(InlinedVector, PopBack) {
  IV v{1, 2, 3};
  v.pop_back();
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.back(), 2u);
}

TEST(InlinedVector, ResizeGrowsWithValue) {
  IV v{1};
  v.resize(6, 9);
  ASSERT_EQ(v.size(), 6u);
  EXPECT_EQ(v[0], 1u);
  for (std::size_t i = 1; i < 6; ++i) EXPECT_EQ(v[i], 9u);
}

TEST(InlinedVector, ResizeShrinks) {
  IV v{1, 2, 3};
  v.resize(1);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 1u);
}

TEST(InlinedVector, CopyConstructInline) {
  IV a{1, 2};
  IV b(a);
  EXPECT_EQ(a, b);
  b[0] = 42;
  EXPECT_NE(a, b);  // deep copy
}

TEST(InlinedVector, CopyConstructHeap) {
  IV a;
  for (std::uint32_t i = 0; i < 10; ++i) a.push_back(i);
  IV b(a);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(b.is_inline());
}

TEST(InlinedVector, CopyAssignReplacesContents) {
  IV a{1, 2, 3};
  IV b{9};
  b = a;
  EXPECT_EQ(a, b);
}

// Copy-assignment reuses the target's buffer when the source fits it: no
// free-then-malloc per assignment, and no capacity creep either.
TEST(InlinedVector, CopyAssignReusesHeapBuffer) {
  using Wide = InlinedVector<std::uint32_t, 16>;
  Wide source(64, 7);
  Wide target(64, 1);
  ASSERT_FALSE(target.is_inline());
  const std::uint32_t* data = target.data();
  const std::size_t capacity = target.capacity();
  for (std::uint32_t i = 0; i < 1000; ++i) {
    source[i % 64] = i;
    target = source;
    ASSERT_EQ(target, source);
    ASSERT_EQ(target.data(), data) << "assignment " << i;
    ASSERT_EQ(target.capacity(), capacity) << "assignment " << i;
  }
}

TEST(InlinedVector, CopyAssignKeepsInlineTargetInline) {
  IV source{1, 2, 3, 4};
  IV target{9};
  target = source;
  EXPECT_TRUE(target.is_inline());
  EXPECT_EQ(target, source);
  // A source past the inline capacity still spills, sized to fit.
  IV wide;
  for (std::uint32_t i = 0; i < 10; ++i) wide.push_back(i);
  target = wide;
  EXPECT_FALSE(target.is_inline());
  EXPECT_EQ(target, wide);
}

TEST(InlinedVector, SelfAssignIsNoop) {
  IV a{1, 2, 3};
  const IV expected = a;
  a = *&a;
  EXPECT_EQ(a, expected);
}

TEST(InlinedVector, MoveConstructInlineCopies) {
  IV a{1, 2};
  IV b(std::move(a));
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0], 1u);
}

TEST(InlinedVector, MoveConstructHeapSteals) {
  IV a;
  for (std::uint32_t i = 0; i < 10; ++i) a.push_back(i);
  const auto* data = a.data();
  IV b(std::move(a));
  EXPECT_EQ(b.data(), data);  // pointer stolen, no copy
  EXPECT_EQ(b.size(), 10u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST(InlinedVector, MoveAssignHeap) {
  IV a;
  for (std::uint32_t i = 0; i < 10; ++i) a.push_back(i);
  IV b{5};
  b = std::move(a);
  EXPECT_EQ(b.size(), 10u);
  EXPECT_EQ(b[9], 9u);
}

TEST(InlinedVector, EqualityComparesElementwise) {
  EXPECT_EQ((IV{1, 2, 3}), (IV{1, 2, 3}));
  EXPECT_NE((IV{1, 2, 3}), (IV{1, 2}));
  EXPECT_NE((IV{1, 2, 3}), (IV{1, 2, 4}));
}

TEST(InlinedVector, IterationMatchesIndices) {
  IV v;
  for (std::uint32_t i = 0; i < 9; ++i) v.push_back(i * 3);
  std::uint32_t expected = 0;
  for (std::uint32_t x : v) {
    EXPECT_EQ(x, expected);
    expected += 3;
  }
}

TEST(InlinedVector, AssignOverwrites) {
  IV v{1, 2, 3};
  v.assign(5, 8);
  ASSERT_EQ(v.size(), 5u);
  for (std::uint32_t x : v) EXPECT_EQ(x, 8u);
}

TEST(InlinedVector, ReserveKeepsContents) {
  IV v{1, 2, 3};
  v.reserve(100);
  EXPECT_GE(v.capacity(), 100u);
  EXPECT_EQ(v, (IV{1, 2, 3}));
}

TEST(InlinedVector, ClearKeepsCapacity) {
  IV v;
  for (std::uint32_t i = 0; i < 10; ++i) v.push_back(i);
  const auto cap = v.capacity();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), cap);
}

TEST(InlinedVector, StressAgainstStdVector) {
  IV v;
  std::vector<std::uint32_t> ref;
  std::uint64_t state = 42;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t r = splitmix64(state);
    switch (r % 4) {
      case 0:
      case 1:
        v.push_back(static_cast<std::uint32_t>(r));
        ref.push_back(static_cast<std::uint32_t>(r));
        break;
      case 2:
        if (!ref.empty()) {
          v.pop_back();
          ref.pop_back();
        }
        break;
      case 3: {
        const std::size_t n = r % 17;
        v.resize(n, 1);
        ref.resize(n, 1);
        break;
      }
    }
    ASSERT_EQ(v.size(), ref.size());
    for (std::size_t k = 0; k < ref.size(); ++k) ASSERT_EQ(v[k], ref[k]);
  }
}

}  // namespace
}  // namespace paramount
