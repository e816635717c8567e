// OnlinePoset: the concurrently growing poset of Algorithm 4, with an
// epoch-based sliding window so week-long monitored runs stay in bounded
// memory.
//
// Tracer threads insert events one at a time under an internal mutex (the
// paper's "atomic block"); the insertion order defines the total order →p.
// Enumeration workers concurrently read events below their Gbnd snapshot —
// those events are immutable once published, and the per-thread StableVector
// storage guarantees stable addresses and release/acquire publication, so the
// read side is lock-free (Theorem 3: insertion does not interfere with
// concurrent bounded enumerations).
//
// Storage. Each event is one StableVector row of n + 2 words: its n clock
// components, its kind and its object. insert() copies the clock into the
// row once; vc() returns a ClockView into the row and event() an EventView,
// so no read copies a clock and heap_bytes() counts every byte the events
// hold, clocks included. Rows sit in segments of at most kSegmentBytes
// (16 KiB) whatever n is: 32 events per segment at 64 threads, 512 at 6.
// collect() frees every segment below the watermark, so a windowed poset
// keeps about one segment per thread beyond its live events. A thread's
// storage addresses 2^18 segments of live events at a time (2–4 GiB of
// rows); has_room() says whether the next insert on a thread still fits,
// which an unwindowed poset fed by untrusted input must check.
//
// Sliding-window reclamation. Events strictly below the global watermark
//   w[j] = min( min over pinned intervals I of Gmin(I)[j],
//               min over program threads t of vc(last event of t)[j] )
// can never be read again. Every in-flight enumeration works inside its box
// [Gmin, Gbnd] and only reads indices >= Gmin[j] on thread j, and:
//   * events of one program thread are submitted one at a time, so while
//     the submitting thread enumerates its own event's interval that event
//     is its thread's newest, whose clock (= Gmin) bounds the clock floor:
//     such an interval needs no pin;
//   * an interval handed to another thread outlives its submit and is
//     pinned by an EnumGuard (pin_newest());
//   * every *future* event e' of thread t satisfies e'.vc >= vc(last event
//     of t) componentwise (per-thread clocks are monotone — insert() checks
//     this), so Gmin(e')[j] >= w[j] and the future interval's box starts at
//     or above the watermark.
// collect() computes w, advances each thread's window_base to w[j] - 1 and
// retires the underlying storage segments. The watermark is monotone, so
// window_base only ever advances. Threads that have not yet produced any
// event pin the watermark at zero (their first event's clock could reference
// anything already published).
//
// OnlinePoset satisfies the PosetLike read concept used by the enumerators:
//   num_threads(), num_events(tid), vc(tid, index), event(tid, index),
//   empty_frontier(), is_consistent(frontier). vc() and event() return views
//   by value where Poset returns references; generic code binds both with
//   `const auto&`. With a sliding window active
// the reads are only valid for live indices (index > window_base(tid));
// vc()/event() enforce this with a debug assertion, and is_live() lets
// detectors drop candidates that left the window instead of crashing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "poset/clock_validator.hpp"
#include "poset/event.hpp"
#include "poset/vector_clock.hpp"
#include "util/stable_vector.hpp"
#include "util/sync.hpp"

namespace paramount {

class OnlinePoset {
 public:
  explicit OnlinePoset(std::size_t num_threads);

  // ---- concurrent read interface (PosetLike) ----

  std::size_t num_threads() const { return threads_.size(); }

  EventIndex num_events(ThreadId tid) const {
    PM_DCHECK(tid < threads_.size());
    return static_cast<EventIndex>(threads_[tid].rows.size());
  }

  EventView event(ThreadId tid, EventIndex index) const {
    const EventIndex* r = row(tid, index);
    const std::size_t n = num_threads();
    return EventView{EventId{tid, index}, static_cast<OpKind>(r[n]), r[n + 1],
                     ClockView(r, n)};
  }

  ClockView vc(ThreadId tid, EventIndex index) const {
    return ClockView(row(tid, index), num_threads());
  }

  Frontier empty_frontier() const { return Frontier(num_threads()); }

  // Snapshot of the currently published maximal events of every thread.
  // The per-thread counters are read at different instants, so a raw read
  // can be *torn*: thread j's count, read late, may include events whose
  // causal predecessors on an earlier-read thread were not counted — an
  // inconsistent cut. The snapshot is therefore re-validated with
  // is_consistent() and retried; if the writer keeps racing ahead, the
  // insertion lock is taken for one exact read. Gbnd snapshots taken inside
  // insert() hold the lock and stay exact with no validation.
  Frontier published_frontier() const;

  bool is_consistent(const Frontier& frontier) const {
    for (ThreadId t = 0; t < num_threads(); ++t) {
      if (frontier[t] == 0) continue;
      if (!vc(t, frontier[t]).leq(frontier)) return false;
    }
    return true;
  }

  std::size_t total_events() const {
    std::size_t total = 0;
    for (ThreadId t = 0; t < num_threads(); ++t) total += num_events(t);
    return total;
  }

  // ---- sliding window ----

  // Highest reclaimed index of the thread (0 = nothing reclaimed). Live
  // indices are (window_base, num_events].
  EventIndex window_base(ThreadId tid) const {
    PM_DCHECK(tid < threads_.size());
    // relaxed: window_base is monotone and a reader holding an EnumGuard pin
    // is already protected from reclamation; a stale (smaller) value only
    // reports an index live that was live a moment ago.
    return threads_[tid].window_base.load(std::memory_order_relaxed);
  }

  // Smallest index whose event is still resident (1-based).
  EventIndex first_live_index(ThreadId tid) const {
    return window_base(tid) + 1;
  }

  bool is_live(ThreadId tid, EventIndex index) const {
    return index > window_base(tid);
  }

  // Total events reclaimed by collect() across all threads.
  std::uint64_t reclaimed_events() const {
    // relaxed: monotone statistics counter; readers tolerate slight lag.
    return reclaimed_events_.load(std::memory_order_relaxed);
  }

  // RAII pin: while alive, collect() will not advance the watermark past the
  // pinned Gmin, so every index the guarded enumeration can read stays live.
  class EnumGuard {
   public:
    EnumGuard() = default;
    // Adopts a pin slot returned by pin_newest(); kNoPin adopts nothing.
    EnumGuard(OnlinePoset* poset, std::uint32_t slot)
        : poset_(slot == kNoPin ? nullptr : poset), slot_(slot) {}
    EnumGuard(EnumGuard&& other) noexcept
        : poset_(other.poset_), slot_(other.slot_) {
      other.poset_ = nullptr;
    }
    EnumGuard& operator=(EnumGuard&& other) noexcept {
      if (this != &other) {
        release();
        poset_ = other.poset_;
        slot_ = other.slot_;
        other.poset_ = nullptr;
      }
      return *this;
    }
    EnumGuard(const EnumGuard&) = delete;
    EnumGuard& operator=(const EnumGuard&) = delete;
    ~EnumGuard() { release(); }

    bool active() const { return poset_ != nullptr; }

    void release() {
      if (poset_ != nullptr) {
        poset_->release_pin(slot_);
        poset_ = nullptr;
      }
    }

   private:
    OnlinePoset* poset_ = nullptr;
    std::uint32_t slot_ = 0;
  };

  // Pins `gmin` against reclamation (test/tooling entry point; the drivers
  // use pin_newest()). Precondition: every component of gmin is at or above
  // the current watermark, which holds for any Gmin derived from a live
  // event.
  EnumGuard pin_interval(const Frontier& gmin) PM_EXCLUDES(insert_mutex_);

  static constexpr std::uint32_t kNoPin = 0xffffffffu;

  // Pins the Gmin of `owner`'s interval as it leaves the submitting thread,
  // and returns the slot for an EnumGuard on the enumerating thread to
  // adopt. `owner` must still be its thread's newest event, as it is until
  // its submit returns, so the insertion lock is not needed: until that
  // thread's next insert the clock floor keeps every collect() at or below
  // the owner's clock, which is its Gmin, and every collect() after that
  // insert sees the pin.
  std::uint32_t pin_newest(EventId owner) PM_EXCLUDES(pin_mutex_);

  // Number of currently outstanding pins (diagnostics).
  std::size_t outstanding_pins() const PM_EXCLUDES(pin_mutex_);

  struct CollectStats {
    std::uint64_t reclaimed_events = 0;  // newly reclaimed by this pass
    std::size_t resident_bytes = 0;      // heap bytes after the pass
  };

  // One sliding-window reclamation pass: computes the watermark from the
  // per-thread clock floors and the outstanding pins, advances every
  // thread's window base, and retires dead storage segments. Serializes
  // with insert(). Safe to call concurrently with enumerations that hold
  // an EnumGuard.
  CollectStats collect() PM_EXCLUDES(insert_mutex_);

  // ---- insertion (Algorithm 4's atomic block) ----

  struct Inserted {
    EventId id;
    Frontier gmin;       // = the event's vector clock
    Frontier gbnd;       // snapshot of maximal events, including this event
    std::uint64_t position;  // 0-based position in the total order →p
    bool first;          // true for the very first event in →p
    // gmin == gbnd: the event causally follows every event inserted before
    // it, so its interval holds the single state gmin.
    bool one_state = false;
  };

  // The insert core: appends an event whose vector clock has already been
  // computed by the tracing layer (Algorithm 3), or reports why its clock
  // is defective. The clock must pass ClockValidator's checks: its own
  // component equals the event's 1-based index on its thread, it is
  // componentwise monotone over the thread's previous clock (the
  // sliding-window watermark relies on this to lower-bound future Gmins),
  // and it references only inserted events. The one pass that computes the
  // interval's shape checks them, under the insertion lock; a defect is
  // classified as ClockValidator classifies it, so the first defective
  // component decides. On any verdict but kOk nothing is inserted and *out
  // is untouched. On kOk it fills *out's id, position, first and one_state,
  // and copies Gbnd into out->gbnd for a multi-state box only, reusing its
  // buffer. It never writes out->gmin: Gmin is `clock`, and so is a
  // one-state box's Gbnd, so a caller that keeps `clock` needs no copy.
  ClockVerdict try_append(ThreadId tid, OpKind kind, std::uint32_t object,
                          const VectorClock& clock, Inserted* out)
      PM_EXCLUDES(insert_mutex_);

  // try_append() that also fills both bounds for every event: *out's gmin
  // and gbnd are copy-assigned, so an Inserted reused across inserts of
  // one width allocates nothing after the first. Defined out of line on
  // purpose: inline, its copies changed GCC 12's inlining into the
  // enumeration kernels instantiated in the same translation unit, and
  // perfbench's offline-hotvar ran about 10% slower.
  ClockVerdict try_insert(ThreadId tid, OpKind kind, std::uint32_t object,
                          const VectorClock& clock, Inserted* out)
      PM_EXCLUDES(insert_mutex_);

  // try_insert() for a trusted clock: a defective one aborts, through
  // check_insert().
  void insert(ThreadId tid, OpKind kind, std::uint32_t object,
              const VectorClock& clock, Inserted* out)
      PM_EXCLUDES(insert_mutex_) {
    check_insert(try_insert(tid, kind, object, clock, out), tid, clock);
  }

  Inserted insert(ThreadId tid, OpKind kind, std::uint32_t object,
                  const VectorClock& clock) PM_EXCLUDES(insert_mutex_) {
    Inserted result;
    insert(tid, kind, object, clock, &result);
    return result;
  }

  // Aborts on a defective try_insert() verdict for `clock` on `tid`, with
  // the aborting insert's messages: a clock with both a regression and a
  // forward reference reports the forward reference, wherever the two sit.
  void check_insert(ClockVerdict verdict, ThreadId tid,
                    const VectorClock& clock) const {
    if (verdict == ClockVerdict::kOk) return;
    abort_on_defect(verdict, tid, clock);
  }

  // False when the next insert() on `tid` would overflow the thread's row
  // directory (see "Storage") and abort. Only collect() frees room, so a
  // caller that alone inserts on `tid` may check this before the insert;
  // the service session and the online trace replay turn it into a typed
  // error.
  bool has_room(ThreadId tid) const {
    PM_DCHECK(tid < threads_.size());
    return !threads_[tid].rows.full();
  }

  // Bytes held by the event storage (rows and directory), for the memory
  // benches and the byte high-water GC trigger.
  std::size_t heap_bytes() const {
    std::size_t bytes = 0;
    for (const PerThread& pt : threads_) bytes += pt.rows.heap_bytes();
    return bytes;
  }

 private:
  friend class EnumGuard;

  struct PerThread {
    explicit PerThread(std::size_t width) : rows(width) {}
    StableVector<EventIndex> rows;  // see "Storage" in the file comment
    std::atomic<EventIndex> window_base{0};
  };

  const EventIndex* row(ThreadId tid, EventIndex index) const {
    PM_DCHECK(tid < threads_.size());
    PM_DCHECK(index >= 1);
    PM_DCHECK(is_live(tid, index));  // reclaimed slots must never be read
    return threads_[tid].rows.row(index - 1);
  }

  [[noreturn]] void abort_on_defect(ClockVerdict verdict, ThreadId tid,
                                    const VectorClock& clock) const;

  struct PinSlot {
    Frontier gmin;
    bool active = false;
  };

  // Exact only under insert_mutex_ — the REQUIRES is the exactness contract:
  // the per-thread counters cannot move while the caller holds the lock, so
  // the snapshot is a consistent cut by construction (no validation needed).
  Frontier published_frontier_locked() const PM_REQUIRES(insert_mutex_) {
    Frontier f(num_threads());
    std::copy_n(published_.data(), num_threads(), f.data());
    return f;
  }

  // What orders the pin against collect() is the caller's: pin_interval()
  // holds insert_mutex_, pin_newest() relies on its owner being newest.
  std::uint32_t register_pin(ClockView gmin) PM_EXCLUDES(pin_mutex_);
  void release_pin(std::uint32_t slot) PM_EXCLUDES(pin_mutex_);
  CollectStats collect_locked() PM_REQUIRES(insert_mutex_);

  // Event storage is deliberately *not* PM_GUARDED_BY(insert_mutex_): writes
  // happen under the lock, but enumeration workers read published events
  // lock-free (Theorem 3) — the publication protocol is StableVector's
  // release/acquire size counter, which the analysis cannot express.
  std::vector<PerThread> threads_;
  mutable Mutex insert_mutex_;
  std::uint64_t next_position_ PM_GUARDED_BY(insert_mutex_) = 0;
  // The writer's copy of the published counts, in one contiguous array:
  // whenever insert_mutex_ is free, published_[t] == threads_[t].rows.size().
  // The locked paths read it instead of n atomic size counters that sit in
  // n separate PerThread objects; lock-free readers use those counters.
  std::vector<EventIndex> published_ PM_GUARDED_BY(insert_mutex_);
  // collect()'s watermark, kept so that a pass allocates nothing.
  Frontier watermark_ PM_GUARDED_BY(insert_mutex_);

  // Pin registry: slots have stable identity; structure and contents are
  // guarded by pin_mutex_ (locked after insert_mutex_ where both are held).
  mutable Mutex pin_mutex_ PM_ACQUIRED_AFTER(insert_mutex_);
  std::deque<PinSlot> pin_slots_ PM_GUARDED_BY(pin_mutex_);
  std::vector<std::uint32_t> free_pin_slots_ PM_GUARDED_BY(pin_mutex_);

  std::atomic<std::uint64_t> reclaimed_events_{0};
};

}  // namespace paramount
