// Incremental validation of an externally produced vector-clock stream.
//
// Untrusted event sources must enforce exactly the invariants
// OnlinePoset::insert() checks, so hostile input yields a typed error
// instead of an abort:
//
//   1. the thread id names a real thread;
//   2. the event's own component equals its 1-based index (published + 1);
//   3. the clock is componentwise monotone over the thread's previous event;
//   4. every cross-thread component references an already published event.
//
// Together 2-4 imply that a clock counts its own thread's events exactly,
// never moves backwards on its thread, and names only events that already
// exist, so every accepted prefix is a valid file or insert order. They do
// not imply that the clock is transitively closed: e0[1]=[1,0,0],
// e1[1]=[1,1,0], e2[1]=[0,1,1] passes all four checks, yet e2[1] names
// e1[1] without e0[1], which e1[1] follows. Closure is checked when a
// Poset is built (Poset::first_defect, run by PosetBuilder::build and by
// trace::replay_to_poset, which reports it as a typed error); the online
// paths, which build no Poset, do not check it.
//
// ClockValidator is that check for the on-disk trace reader and writer
// (src/trace/), which see clocks before any poset exists. The paramountd
// session feeds the poset directly and takes the same verdict from
// OnlinePoset::try_append, whose insert pass checks the clock anyway; both
// pick the verdict of a defective clock with classify_clock_defect() and
// phrase it with describe(), so the two paths cannot drift apart.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "poset/vector_clock.hpp"

namespace paramount {

enum class ClockVerdict : std::uint8_t {
  kOk,
  kBadThread,          // tid >= num_threads
  kWrongOwnComponent,  // clock[tid] != published[tid] + 1
  kRegression,         // not componentwise >= the thread's previous clock
  kUnpublished,        // references an event no thread has produced yet
};

// Picks the verdict of a clock whose one-pass detection found a defect in
// checks 3 or 4: it scans in component order, so the first defective
// component decides. `prev` is the thread's previous clock; pass `clock`
// itself when there is none to compare against (nothing regresses against
// itself). published[tid] is never read.
inline ClockVerdict classify_clock_defect(ThreadId tid,
                                          const EventIndex* clock,
                                          const EventIndex* prev,
                                          const EventIndex* published,
                                          std::size_t n) {
  for (ThreadId j = 0; j < n; ++j) {
    if (clock[j] < prev[j]) return ClockVerdict::kRegression;
    if (j != tid && clock[j] > published[j]) return ClockVerdict::kUnpublished;
  }
  return ClockVerdict::kOk;
}

// Human-readable reason for a rejection, phrased for error messages.
// `next_index` is the index the thread's next event must carry (its
// published count + 1).
inline std::string describe(ClockVerdict verdict, ThreadId tid,
                            EventIndex next_index) {
  switch (verdict) {
    case ClockVerdict::kOk:
      return "ok";
    case ClockVerdict::kBadThread:
      return "tid " + std::to_string(tid) + " out of range";
    case ClockVerdict::kWrongOwnComponent:
      return "own clock component must equal the event's index " +
             std::to_string(next_index);
    case ClockVerdict::kRegression:
      return "clock not componentwise monotone on thread " +
             std::to_string(tid);
    case ClockVerdict::kUnpublished:
      return "clock references unpublished event of another thread";
  }
  return "ok";  // unreachable
}

class ClockValidator {
 public:
  using Verdict = ClockVerdict;

  explicit ClockValidator(std::size_t num_threads)
      : prev_(num_threads, VectorClock(num_threads)),
        published_(num_threads, 0),
        has_prev_(num_threads, true) {}

  std::size_t num_threads() const { return published_.size(); }

  // Resumes validation mid-stream (trace footer-index seeks): the number of
  // published events per thread is known, the previous clocks are not. The
  // per-thread monotonicity check (3) re-arms at each thread's first
  // validated event; checks 1, 2, and 4 apply immediately.
  void reset_published(std::vector<EventIndex> published) {
    published_ = std::move(published);
    prev_.assign(published_.size(), VectorClock(published_.size()));
    has_prev_.assign(published_.size(), false);
  }

  // Validates `clock` as thread `tid`'s next event without committing it.
  // `clock.size()` must equal num_threads() (the transports reject mismatched
  // widths before a clock is ever materialized).
  Verdict validate(ThreadId tid, const VectorClock& clock) const {
    if (tid >= published_.size()) return Verdict::kBadThread;
    PM_DCHECK(clock.size() == published_.size());
    if (clock[tid] != published_[tid] + 1) return Verdict::kWrongOwnComponent;
    // Checks 3 and 4 detected in one branch-free pass, which GCC
    // vectorizes (integer flags: GCC 12 leaves the loop scalar with bools).
    // The own component is always one above its published count, so a
    // clean clock has exactly one component above. A thread with no
    // previous clock compares against itself, which never regresses.
    const std::size_t n = published_.size();
    const EventIndex* const c = clock.data();
    const EventIndex* const prev = has_prev_[tid] != 0 ? prev_[tid].data() : c;
    const EventIndex* const published = published_.data();
    unsigned above = 0;
    unsigned regressed = 0;
    for (std::size_t j = 0; j < n; ++j) {
      above += static_cast<unsigned>(c[j] > published[j]);
      regressed |= static_cast<unsigned>(c[j] < prev[j]);
    }
    if (above == 1 && regressed == 0) return Verdict::kOk;
    return classify_clock_defect(tid, c, prev, published, n);
  }

  // Accepts a validated clock as the thread's newest event.
  void commit(ThreadId tid, const VectorClock& clock) {
    published_[tid] += 1;
    prev_[tid] = clock;
    has_prev_[tid] = true;
  }

  Verdict validate_and_commit(ThreadId tid, const VectorClock& clock) {
    const Verdict verdict = validate(tid, clock);
    if (verdict == Verdict::kOk) commit(tid, clock);
    return verdict;
  }

  // The thread's last accepted clock (all-zero before its first event or
  // after reset_published) — the base the delta decoders reconstruct from.
  const VectorClock& prev_clock(ThreadId tid) const {
    PM_DCHECK(tid < prev_.size());
    return prev_[tid];
  }

  // Accepted event count of `tid` (== the next event's expected index - 1).
  EventIndex published(ThreadId tid) const {
    PM_DCHECK(tid < published_.size());
    return published_[tid];
  }

  // Human-readable reason for a rejection, phrased for error messages.
  std::string describe(ThreadId tid, Verdict verdict) const {
    return paramount::describe(
        verdict, tid, tid < published_.size() ? published_[tid] + 1 : 0);
  }

 private:
  std::vector<VectorClock> prev_;
  std::vector<EventIndex> published_;
  // Not vector<bool>: per-thread flags are written independently.
  std::vector<char> has_prev_;
};

}  // namespace paramount
