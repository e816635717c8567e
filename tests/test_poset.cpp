#include "poset/poset.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "poset/clock_validator.hpp"
#include "poset/poset_builder.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace paramount {
namespace {

using testing::make_chain;
using testing::make_figure4_poset;
using testing::make_grid;
using testing::make_random;

TEST(PosetBuilder, ProcessOrderClocks) {
  PosetBuilder builder(2);
  builder.add_event(0);
  builder.add_event(0);
  const Poset poset = std::move(builder).build();
  EXPECT_EQ(poset.vc(0, 1), (VectorClock{1, 0}));
  EXPECT_EQ(poset.vc(0, 2), (VectorClock{2, 0}));
}

TEST(PosetBuilder, RemoteDependencyJoinsClocks) {
  // Reconstructs Figure 4(d): e1[2].vc = [2,1], e2[1].vc = [0,1].
  const Poset poset = make_figure4_poset();
  EXPECT_EQ(poset.vc(0, 1), (VectorClock{1, 0}));
  EXPECT_EQ(poset.vc(1, 1), (VectorClock{0, 1}));
  EXPECT_EQ(poset.vc(0, 2), (VectorClock{2, 1}));
  EXPECT_EQ(poset.vc(1, 2), (VectorClock{1, 2}));
}

TEST(PosetBuilder, ExplicitClockValidated) {
  PosetBuilder builder(2);
  builder.add_event_with_clock(0, OpKind::kInternal, 0, VectorClock{1, 0});
  builder.add_event_with_clock(1, OpKind::kInternal, 0, VectorClock{1, 1});
  const Poset poset = std::move(builder).build();
  EXPECT_TRUE(poset.happened_before(EventId{0, 1}, EventId{1, 1}));
}

TEST(Poset, CountsEventsPerThread) {
  const Poset poset = make_grid(3, 5);
  EXPECT_EQ(poset.num_threads(), 2u);
  EXPECT_EQ(poset.num_events(0), 3u);
  EXPECT_EQ(poset.num_events(1), 5u);
  EXPECT_EQ(poset.total_events(), 8u);
}

TEST(Poset, HappenedBeforeWithinThread) {
  const Poset poset = make_chain(3);
  EXPECT_TRUE(poset.happened_before(EventId{0, 1}, EventId{0, 3}));
  EXPECT_FALSE(poset.happened_before(EventId{0, 3}, EventId{0, 1}));
  EXPECT_FALSE(poset.happened_before(EventId{0, 2}, EventId{0, 2}));
}

TEST(Poset, HappenedBeforeAcrossThreads) {
  const Poset poset = make_figure4_poset();
  EXPECT_TRUE(poset.happened_before(EventId{1, 1}, EventId{0, 2}));
  EXPECT_FALSE(poset.happened_before(EventId{0, 2}, EventId{1, 1}));
}

TEST(Poset, ConcurrentEvents) {
  const Poset poset = make_figure4_poset();
  EXPECT_TRUE(poset.concurrent(EventId{0, 1}, EventId{1, 1}));
  EXPECT_TRUE(poset.concurrent(EventId{0, 2}, EventId{1, 2}));
  EXPECT_FALSE(poset.concurrent(EventId{1, 1}, EventId{0, 2}));
  EXPECT_FALSE(poset.concurrent(EventId{0, 1}, EventId{0, 1}));
}

TEST(Poset, FrontiersAndConsistency) {
  const Poset poset = make_figure4_poset();
  EXPECT_EQ(poset.full_frontier(), (Frontier{2, 2}));
  EXPECT_EQ(poset.empty_frontier(), (Frontier{0, 0}));
  // Figure 4: G1 = {1,0} and G2 = {1,2} consistent, G3 = {2,0} not
  // (e2[1] → e1[2] but e2[1] ∉ G3).
  EXPECT_TRUE(poset.is_consistent(Frontier{1, 0}));
  EXPECT_TRUE(poset.is_consistent(Frontier{1, 2}));
  EXPECT_FALSE(poset.is_consistent(Frontier{2, 0}));
  EXPECT_TRUE(poset.is_consistent(poset.empty_frontier()));
  EXPECT_TRUE(poset.is_consistent(poset.full_frontier()));
}

TEST(Poset, InvariantsHoldOnRandomPosets) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Poset poset = make_random(5, 60, 0.4, seed);
    poset.check_invariants();  // aborts on violation
    EXPECT_EQ(poset.total_events(), 60u);
  }
}

// The invariant scan as it stood before check_invariants skipped the
// components an event shares with its thread predecessor: every component
// of every event. Returns the message of its first failed check, or null.
const char* full_scan_failure(const Poset& poset) {
  const std::size_t n = poset.num_threads();
  for (ThreadId t = 0; t < n; ++t) {
    for (EventIndex i = 1; i <= poset.num_events(t); ++i) {
      const Event& e = poset.event(t, i);
      if (!(e.id.tid == t && e.id.index == i)) {
        return "event id does not match its position";
      }
      if (e.vc.size() != n) return "vector clock width mismatch";
      if (e.vc[t] != i) {
        return "own component of the vector clock must equal the index";
      }
      if (i > 1 && !poset.event(t, i - 1).vc.leq(e.vc)) {
        return "process order must be reflected in vector clocks";
      }
      for (ThreadId j = 0; j < n; ++j) {
        if (j == t || e.vc[j] == 0) continue;
        if (e.vc[j] > poset.num_events(j)) {
          return "vector clock points past the end of a thread";
        }
        if (!poset.vc(j, e.vc[j]).leq(e.vc)) {
          return "vector clocks must be transitively closed";
        }
      }
    }
  }
  return nullptr;
}

// Three threads; thread 2's clocks are given, the rest are valid. Thread
// 1's first event follows thread 0's, so its clock is {1, 1, 0}.
PosetBuilder three_threads_with(const std::vector<VectorClock>& thread2) {
  PosetBuilder builder(3);
  builder.add_event_with_clock(0, OpKind::kInternal, 0, VectorClock{1, 0, 0});
  builder.add_event_with_clock(1, OpKind::kInternal, 0, VectorClock{1, 1, 0});
  for (const VectorClock& clock : thread2) {
    builder.add_event_with_clock(2, OpKind::kInternal, 0, clock);
  }
  return builder;
}

// Thread 2's first event names thread 1's first event but not the thread-0
// event that one follows.
TEST(PosetInvariantsDeathTest, NotTransitivelyClosedAtAThreadsFirstEvent) {
  const PosetBuilder builder = three_threads_with({VectorClock{0, 1, 1}});
  EXPECT_STREQ(full_scan_failure(builder.poset()),
               "vector clocks must be transitively closed");
  EXPECT_DEATH(builder.poset().check_invariants(),
               "vector clocks must be transitively closed");
}

// The same gap at thread 2's third event, where component 1 moves; the
// events before it are valid, and component 0 stays at 0 throughout.
TEST(PosetInvariantsDeathTest, NotTransitivelyClosedAtALaterEvent) {
  const PosetBuilder builder = three_threads_with(
      {VectorClock{0, 0, 1}, VectorClock{0, 0, 2}, VectorClock{0, 1, 3}});
  EXPECT_STREQ(full_scan_failure(builder.poset()),
               "vector clocks must be transitively closed");
  EXPECT_DEATH(builder.poset().check_invariants(),
               "vector clocks must be transitively closed");
}

// Random posets at widths 2-65, each rebuilt with one component of one
// event's clock changed: check_invariants must reject exactly the posets
// the full scan rejects, with the same message, and pass the rest.
TEST(PosetInvariantsDeathTest, OneCorruptComponentFailsLikeTheFullScan) {
  Rng rng(24);
  int rejected = 0;
  for (std::size_t width = 2; width <= 65; ++width) {
    const Poset valid = make_random(width, 6 * width, 0.5, 100 + width);
    ASSERT_EQ(full_scan_failure(valid), nullptr) << "width " << width;
    // The event and component to corrupt: any event, any other thread.
    const auto t = static_cast<ThreadId>(rng.next_below(width));
    if (valid.num_events(t) == 0) continue;
    const auto i = static_cast<EventIndex>(
        1 + rng.next_below(valid.num_events(t)));
    const auto j = static_cast<ThreadId>(
        (t + 1 + rng.next_below(width - 1)) % width);
    const EventIndex old_value = valid.vc(t, i)[j];
    EventIndex new_value = old_value;
    while (new_value == old_value) {
      new_value =
          static_cast<EventIndex>(rng.next_below(valid.num_events(j) + 2));
    }
    PosetBuilder builder(width);
    for (ThreadId u = 0; u < width; ++u) {
      for (EventIndex k = 1; k <= valid.num_events(u); ++k) {
        VectorClock clock = valid.vc(u, k);
        if (u == t && k == i) clock[j] = new_value;
        builder.add_event_with_clock(u, OpKind::kInternal, 0,
                                     std::move(clock));
      }
    }
    const Poset& corrupt = builder.poset();
    const char* expected = full_scan_failure(corrupt);
    if (expected == nullptr) {
      corrupt.check_invariants();  // aborts the suite on a false rejection
    } else {
      ++rejected;
      EXPECT_DEATH(corrupt.check_invariants(), expected)
          << "width " << width << ", event (" << t << ", " << i
          << "), component " << j << ": " << old_value << " -> "
          << new_value;
    }
  }
  EXPECT_GT(rejected, 16) << "too few corruptions broke an invariant";
}

TEST(Poset, EventAccessorsRoundTrip) {
  const Poset poset = make_figure4_poset();
  const Event& e = poset.event(EventId{0, 2});
  EXPECT_EQ(e.id.tid, 0u);
  EXPECT_EQ(e.id.index, 2u);
  EXPECT_EQ(e.vc, poset.vc(0, 2));
}

TEST(EventId, PackedAndToString) {
  const EventId id{3, 7};
  EXPECT_EQ(id.packed(), (std::uint64_t{3} << 32) | 7u);
  EXPECT_EQ(id.to_string(), "e3[7]");
  EXPECT_EQ(id, (EventId{3, 7}));
  EXPECT_NE(id, (EventId{3, 8}));
}

TEST(OpKind, Names) {
  EXPECT_STREQ(to_string(OpKind::kAcquire), "acquire");
  EXPECT_STREQ(to_string(OpKind::kCollection), "collection");
}

// The validator's ordered scan and its messages, kept as the reference its
// one-pass detection must match verdict for verdict.
class ReferenceValidator {
 public:
  using Verdict = ClockValidator::Verdict;

  explicit ReferenceValidator(std::size_t num_threads)
      : prev_(num_threads, VectorClock(num_threads)),
        published_(num_threads, 0),
        has_prev_(num_threads, true) {}

  void reset_published(std::vector<EventIndex> published) {
    published_ = std::move(published);
    prev_.assign(published_.size(), VectorClock(published_.size()));
    has_prev_.assign(published_.size(), false);
  }

  Verdict validate(ThreadId tid, const VectorClock& clock) const {
    if (tid >= published_.size()) return Verdict::kBadThread;
    if (clock[tid] != published_[tid] + 1) return Verdict::kWrongOwnComponent;
    const bool check_prev = has_prev_[tid] != 0;
    const VectorClock& prev = prev_[tid];
    for (ThreadId j = 0; j < published_.size(); ++j) {
      if (check_prev && clock[j] < prev[j]) return Verdict::kRegression;
      if (j != tid && clock[j] > published_[j]) return Verdict::kUnpublished;
    }
    return Verdict::kOk;
  }

  void commit(ThreadId tid, const VectorClock& clock) {
    published_[tid] += 1;
    prev_[tid] = clock;
    has_prev_[tid] = true;
  }

  std::string describe(ThreadId tid, Verdict verdict) const {
    switch (verdict) {
      case Verdict::kOk:
        return "ok";
      case Verdict::kBadThread:
        return "tid " + std::to_string(tid) + " out of range";
      case Verdict::kWrongOwnComponent:
        return "own clock component must equal the event's index " +
               std::to_string(tid < published_.size() ? published_[tid] + 1
                                                      : 0);
      case Verdict::kRegression:
        return "clock not componentwise monotone on thread " +
               std::to_string(tid);
      case Verdict::kUnpublished:
        return "clock references unpublished event of another thread";
    }
    return "ok";
  }

  const std::vector<EventIndex>& published() const { return published_; }

 private:
  std::vector<VectorClock> prev_;
  std::vector<EventIndex> published_;
  std::vector<char> has_prev_;
};

// Random streams at every width from 1 to 70. Half the candidate clocks are
// valid; the rest carry one to three defects at random components: a
// regression, a reference to an unpublished event, a wrong own component.
// Halfway through, both validators resume from the published counts alone.
TEST(ClockValidator, VerdictsAndMessagesMatchTheOrderedScan) {
  using Verdict = ClockValidator::Verdict;
  Rng rng(22);
  std::vector<std::uint64_t> seen(5, 0);
  for (std::size_t width = 1; width <= 70; ++width) {
    ClockValidator validator(width);
    ReferenceValidator reference(width);
    // Each thread's last accepted clock, kept across the reset.
    std::vector<VectorClock> last(width, VectorClock(width));
    constexpr int kSteps = 240;
    for (int step = 0; step < kSteps; ++step) {
      if (step == kSteps / 2) {
        validator.reset_published(reference.published());
        reference.reset_published(reference.published());
      }
      if (rng.next_below(40) == 0) {
        const auto tid = static_cast<ThreadId>(width + rng.next_below(3));
        const VectorClock clock(width);
        const Verdict want = reference.validate(tid, clock);
        ASSERT_EQ(validator.validate(tid, clock), want);
        ASSERT_EQ(validator.describe(tid, want), reference.describe(tid, want));
        ++seen[static_cast<std::size_t>(want)];
        continue;
      }
      const auto tid = static_cast<ThreadId>(rng.next_below(width));
      const std::vector<EventIndex>& published = reference.published();
      VectorClock clock = last[tid];
      clock.join(last[rng.next_below(width)]);
      clock[tid] = published[tid] + 1;
      const std::uint64_t defects =
          rng.next_bool(0.5) ? 0 : 1 + rng.next_below(3);
      for (std::uint64_t d = 0; d < defects; ++d) {
        const auto j = static_cast<ThreadId>(rng.next_below(width));
        switch (rng.next_below(3)) {
          case 0:  // regression below the thread's last accepted clock
            if (last[tid][j] > 0) {
              clock[j] = static_cast<EventIndex>(rng.next_below(last[tid][j]));
            }
            break;
          case 1:  // reference past the published count
            clock[j] = published[j] + 1 +
                       static_cast<EventIndex>(rng.next_below(3));
            break;
          default:  // wrong own component
            clock[tid] = rng.next_bool(0.5)
                             ? 0
                             : published[tid] + 2 +
                                   static_cast<EventIndex>(rng.next_below(3));
            break;
        }
      }
      const Verdict want = reference.validate(tid, clock);
      const std::string where = "width " + std::to_string(width) +
                                ", step " + std::to_string(step);
      ASSERT_EQ(validator.validate(tid, clock), want) << where;
      ASSERT_EQ(validator.describe(tid, want), reference.describe(tid, want))
          << where;
      ++seen[static_cast<std::size_t>(want)];
      if (want == Verdict::kOk) {
        validator.commit(tid, clock);
        reference.commit(tid, clock);
        last[tid] = clock;
      }
    }
    for (ThreadId t = 0; t < width; ++t) {
      ASSERT_EQ(validator.published(t), reference.published()[t]);
    }
  }
  for (std::size_t v = 0; v < seen.size(); ++v) {
    EXPECT_GT(seen[v], 0u) << "verdict " << v << " never came up";
  }
}

}  // namespace
}  // namespace paramount
