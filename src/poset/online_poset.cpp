#include "poset/online_poset.hpp"

#include <algorithm>
#include <cstdlib>

namespace paramount {

namespace {
// Out-of-lock snapshot attempts before falling back to the insertion lock.
// Each retry re-reads every per-thread counter; a handful is enough unless
// the writer is saturating the poset, where the exact locked read is both
// correct and cheap.
constexpr int kSnapshotRetries = 8;
}  // namespace

OnlinePoset::OnlinePoset(std::size_t num_threads)
    : threads_([num_threads] {
        // A row holds the n clock components, the kind and the object.
        // PerThread cannot move (its StableVector cannot), so the vector
        // builds every element in place from its row width.
        const std::vector<std::size_t> widths(num_threads, num_threads + 2);
        return std::vector<PerThread>(widths.begin(), widths.end());
      }()),
      published_(num_threads, 0),
      watermark_(num_threads) {}

Frontier OnlinePoset::published_frontier() const {
  Frontier f(num_threads());
  for (int attempt = 0; attempt < kSnapshotRetries; ++attempt) {
    for (ThreadId t = 0; t < num_threads(); ++t) f[t] = num_events(t);
    if (is_consistent(f)) return f;
  }
  MutexLock guard(insert_mutex_);
  return published_frontier_locked();
}

ClockVerdict OnlinePoset::try_append(ThreadId tid, OpKind kind,
                                     std::uint32_t object,
                                     const VectorClock& clock, Inserted* out) {
  const std::size_t n = num_threads();
  if (tid >= n) return ClockVerdict::kBadThread;
  PM_CHECK(clock.size() == n);

  MutexLock guard(insert_mutex_);

  EventIndex* const published = published_.data();
  const EventId id{tid, published[tid] + 1};
  if (clock[tid] != id.index) return ClockVerdict::kWrongOwnComponent;
  // Count the event first: published now holds Gbnd, and the one pass below
  // treats the own component like every other.
  published[tid] = id.index;
  // Per-thread clocks are monotone (e_t[i] happens-before e_t[i+1] and
  // clocks are transitively closed). The thread's last row is always live
  // (the watermark never passes a thread's newest event); a first event
  // compares against itself, which never regresses.
  const EventIndex* const c = clock.data();
  const EventIndex* const prev = id.index > 1 ? row(tid, id.index - 1) : c;
  // One branch-free pass, which GCC vectorizes: the flags are integers
  // because GCC 12 leaves the loop scalar when they are bools.
  unsigned unpublished = 0;  // references an event not yet inserted
  unsigned regressed = 0;    // below the thread's previous clock
  unsigned differs = 0;      // Gmin != Gbnd
  for (std::size_t j = 0; j < n; ++j) {
    unpublished |= static_cast<unsigned>(c[j] > published[j]);
    regressed |= static_cast<unsigned>(c[j] < prev[j]);
    differs |= static_cast<unsigned>(c[j] != published[j]);
  }
  // The clock may only reference already published events (Property 1 is
  // achieved by insertion order — §4.2). A defective clock takes its count
  // back, and the ordered scan picks its verdict.
  if ((unpublished | regressed) != 0) {
    published[tid] = id.index - 1;
    return classify_clock_defect(tid, c, prev, published, n);
  }

  // The one copy of the clock: into the event's row, published with it.
  threads_[tid].rows.push_row([&](EventIndex* row) {
    std::copy_n(c, n, row);
    row[n] = static_cast<EventIndex>(kind);
    row[n + 1] = object;
  });

  out->id = id;
  out->position = next_position_++;
  out->first = out->position == 0;
  out->one_state = differs == 0;
  // Gbnd(e): snapshot of maximal events after inserting e — exactly the
  // frontier of { f : f = e or f →p e } (Definition 1 via insertion order).
  // Exact by construction: we hold the insertion lock. A one-state box's
  // Gbnd is the clock itself, which the caller already holds.
  if (differs != 0) out->gbnd.assign(ClockView(published, n));
  return ClockVerdict::kOk;
}

ClockVerdict OnlinePoset::try_insert(ThreadId tid, OpKind kind,
                                     std::uint32_t object,
                                     const VectorClock& clock, Inserted* out) {
  const ClockVerdict verdict = try_append(tid, kind, object, clock, out);
  if (verdict == ClockVerdict::kOk) {
    out->gmin = clock;
    if (out->one_state) out->gbnd = clock;
  }
  return verdict;
}

void OnlinePoset::abort_on_defect(ClockVerdict verdict, ThreadId tid,
                                  const VectorClock& clock) const {
  PM_CHECK(tid < num_threads());
  PM_CHECK_MSG(verdict != ClockVerdict::kWrongOwnComponent,
               "own clock component must equal the event's index");
  // A clock that also regresses still names its forward reference. The
  // lock-free counts serve: a racing insert can only publish an event the
  // clock references, which changes nothing but the message.
  bool forward = verdict == ClockVerdict::kUnpublished;
  for (ThreadId j = 0; j < num_threads(); ++j) {
    forward = forward || (j != tid && clock[j] > num_events(j));
  }
  PM_CHECK_MSG(!forward, "clock references an event not yet inserted");
  PM_CHECK_MSG(verdict != ClockVerdict::kRegression,
               "per-thread vector clocks must be componentwise monotone");
  std::abort();  // unreachable: every defective verdict is checked above
}

std::uint32_t OnlinePoset::register_pin(ClockView gmin) {
  MutexLock guard(pin_mutex_);
  std::uint32_t slot;
  if (!free_pin_slots_.empty()) {
    slot = free_pin_slots_.back();
    free_pin_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(pin_slots_.size());
    pin_slots_.emplace_back();
  }
  pin_slots_[slot].gmin.assign(gmin);
  pin_slots_[slot].active = true;
  return slot;
}

void OnlinePoset::release_pin(std::uint32_t slot) {
  MutexLock guard(pin_mutex_);
  PM_DCHECK(slot < pin_slots_.size());
  PM_DCHECK(pin_slots_[slot].active);
  pin_slots_[slot].active = false;
  free_pin_slots_.push_back(slot);
}

OnlinePoset::EnumGuard OnlinePoset::pin_interval(const Frontier& gmin) {
  // Take the insertion lock so the pin is ordered against any in-progress
  // collect() (which holds it for the whole pass).
  MutexLock guard(insert_mutex_);
  return EnumGuard(this, register_pin(gmin));
}

std::uint32_t OnlinePoset::pin_newest(EventId owner) {
  PM_DCHECK(num_events(owner.tid) == owner.index);
  return register_pin(vc(owner.tid, owner.index));
}

std::size_t OnlinePoset::outstanding_pins() const {
  MutexLock guard(pin_mutex_);
  return pin_slots_.size() - free_pin_slots_.size();
}

OnlinePoset::CollectStats OnlinePoset::collect() {
  MutexLock guard(insert_mutex_);
  return collect_locked();
}

OnlinePoset::CollectStats OnlinePoset::collect_locked() {
  CollectStats stats;
  const std::size_t n = num_threads();

  // Clock floor: a future event of thread t carries a clock at or above the
  // clock of t's last event, so the componentwise minimum over all threads
  // lower-bounds every future Gmin. A thread with no events yet could still
  // reference anything already published — the floor stays at zero. The
  // loop below overwrites every component of the reused frontier.
  Frontier& watermark = watermark_;
  for (ThreadId t = 0; t < n; ++t) {
    if (published_[t] == 0) {
      stats.resident_bytes = heap_bytes();
      return stats;
    }
    const ClockView last = vc(t, published_[t]);
    for (ThreadId j = 0; j < n; ++j) {
      watermark[j] = t == 0 ? last[j] : std::min(watermark[j], last[j]);
    }
  }

  // In-flight intervals: their boxes start at Gmin, so every pinned Gmin
  // clamps the watermark (a stalled enumeration pins its epoch until its
  // EnumGuard is released).
  {
    MutexLock pins(pin_mutex_);
    for (const PinSlot& slot : pin_slots_) {
      if (!slot.active) continue;
      for (ThreadId j = 0; j < n; ++j) {
        watermark[j] = std::min(watermark[j], slot.gmin[j]);
      }
    }
  }

  // Advance: index w[j] itself stays live (a future interval may have
  // Gmin[j] == w[j] and read its clock); everything strictly below is dead.
  std::uint64_t reclaimed_now = 0;
  for (ThreadId j = 0; j < n; ++j) {
    const EventIndex base = watermark[j] == 0 ? 0 : watermark[j] - 1;
    // relaxed: window_base is only written here, under insert_mutex_; readers
    // racing the store are protected by their pins (see window_base()).
    const EventIndex old_base =
        threads_[j].window_base.load(std::memory_order_relaxed);
    if (base <= old_base) continue;
    threads_[j].rows.release_prefix(base);
    threads_[j].window_base.store(base, std::memory_order_relaxed);
    reclaimed_now += base - old_base;
  }
  // relaxed: statistics counter; see reclaimed_events().
  reclaimed_events_.fetch_add(reclaimed_now, std::memory_order_relaxed);
  stats.reclaimed_events = reclaimed_now;
  stats.resident_bytes = heap_bytes();
  return stats;
}

}  // namespace paramount
