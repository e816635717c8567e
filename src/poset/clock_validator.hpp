// Incremental validation of an externally produced vector-clock stream.
//
// Both untrusted event sources — the paramountd wire protocol
// (src/service/session.cpp) and the on-disk trace replayer
// (src/trace/trace_reader.cpp) — must enforce exactly the invariants
// OnlinePoset::insert() PM_CHECKs, so hostile input yields a typed error
// instead of an abort. This class is that shared check, factored out of the
// Session so the two paths cannot drift apart:
//
//   1. the thread id names a real thread;
//   2. the event's own component equals its 1-based index (published + 1);
//   3. the clock is componentwise monotone over the thread's previous event;
//   4. every cross-thread component references an already published event.
//
// Together 2-4 imply the clock is a transitively closed happened-before
// stamp over the accepted prefix, which is what insert() requires.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "poset/vector_clock.hpp"

namespace paramount {

class ClockValidator {
 public:
  enum class Verdict : std::uint8_t {
    kOk,
    kBadThread,        // tid >= num_threads
    kWrongOwnComponent,  // clock[tid] != published[tid] + 1
    kRegression,       // not componentwise >= the thread's previous clock
    kUnpublished,      // references an event no thread has produced yet
  };

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
    return classify(tid, clock);
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
    return "ok";  // unreachable
  }

 private:
  // Picks the verdict of a clock the detection pass flagged: checks 3 and 4
  // in component order, so the first defective component decides.
  Verdict classify(ThreadId tid, const VectorClock& clock) const {
    const bool check_prev = has_prev_[tid] != 0;
    const VectorClock& prev = prev_[tid];
    for (ThreadId j = 0; j < published_.size(); ++j) {
      if (check_prev && clock[j] < prev[j]) return Verdict::kRegression;
      if (j != tid && clock[j] > published_[j]) return Verdict::kUnpublished;
    }
    return Verdict::kOk;
  }

  std::vector<VectorClock> prev_;
  std::vector<EventIndex> published_;
  // Not vector<bool>: per-thread flags are written independently.
  std::vector<char> has_prev_;
};

}  // namespace paramount
