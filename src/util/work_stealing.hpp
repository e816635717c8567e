// Work-stealing interval scheduler: per-worker Chase–Lev-style deques with a
// seeded-RNG victim policy.
//
// Algorithm 1's work-optimality argument assumes workers stay busy, but a
// single shared claim point (the paper's counter, the offline driver's
// cursor mutex) serializes every claim, and interval sizes are
// skewed enough that a few tail intervals gate scale-up. Here each worker
// owns a deque: the owner pushes and pops at the bottom with no contention,
// and idle workers steal from the top of a randomly chosen victim — the
// classic Blumofe–Leiserson discipline, in the Chase–Lev circular-array
// formulation.
//
// Concurrency contract (per WsDeque):
//   * exactly one owner thread may call push()/pop() at a time;
//   * any number of thief threads may call steal() concurrently with the
//     owner and each other.
// Every cross-thread access is a std::atomic operation (slots included), so
// the deque is data-race-free under ThreadSanitizer: no standalone fences,
// no racy plain loads. Elements must be trivially copyable and word-sized
// (store indices or pointers; heavier payloads live behind the pointer).
//
// Memory ordering: every store to bottom_ is release (or stronger), so a
// thief's acquire load of bottom_ always synchronizes with the owner — the
// slot write and anything the owner wrote before push() happen-before the
// thief's read. The pop/steal race on the last element is arbitrated by
// seq_cst operations on top_ and bottom_ (the seq_cst-atomics variant of
// Chase–Lev; the fence-based variant is invisible to TSan).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace paramount {

// Randomized iteration over the other workers' indices for one steal sweep:
// visits every victim exactly once, starting at a position drawn from the
// caller's (per-worker, seeded) generator so thieves spread out instead of
// convoying on worker 0.
class VictimSequence {
 public:
  VictimSequence(std::size_t self, std::size_t num_workers, Rng& rng);

  // Writes the next victim index; returns false once the sweep is exhausted.
  bool next(std::size_t& victim);

 private:
  std::size_t self_;
  std::size_t num_workers_;
  std::size_t offset_;
  std::size_t visited_ = 0;
};

namespace detail {
// Decorrelates per-worker RNG streams derived from one scheduler seed.
std::uint64_t worker_seed(std::uint64_t base_seed, std::size_t worker);
}  // namespace detail

template <typename T>
class WsDeque {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= sizeof(void*),
                "WsDeque elements are read under races: store an index or a "
                "pointer, not the payload itself");

 public:
  enum class StealResult {
    kSuccess,  // out holds the stolen element
    kEmpty,    // nothing observable to steal
    kLost,     // lost a race for the top element; the deque may hold more
  };

  explicit WsDeque(std::size_t initial_capacity = kInitialCapacity) {
    std::size_t cap = 1;
    while (cap < initial_capacity) cap <<= 1;
    buffers_.push_back(std::make_unique<Buffer>(cap));
    // relaxed: single-threaded construction; publication to thieves happens
    // through the owner's later release store to bottom_.
    buffer_.store(buffers_.back().get(), std::memory_order_relaxed);
  }

  WsDeque(const WsDeque&) = delete;
  WsDeque& operator=(const WsDeque&) = delete;

  // Owner: pushes onto the bottom, growing the circular array as needed.
  void push(T item) {
    // relaxed: bottom_ and buffer_ are only written by the owner — this
    // thread — so its own prior values are already visible.
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    // relaxed: owner-written, see above.
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    if (b - t >= static_cast<std::int64_t>(buf->capacity)) {
      buf = grow(buf, t, b);
    }
    buf->put(b, item);
    bottom_.store(b + 1, std::memory_order_release);
  }

  // Owner: pops from the bottom (LIFO). Returns false when empty. On the
  // last element the owner races thieves via a CAS on top_; the loser backs
  // off and reports empty.
  bool pop(T& out) {
    // relaxed: bottom_ and buffer_ are owner-written; this is the owner.
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Buffer* const buf = buffer_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {
      // Already empty; restore bottom.
      bottom_.store(b + 1, std::memory_order_release);
      return false;
    }
    out = buf->get(b);
    if (t == b) {
      // relaxed: failure order only — a lost CAS means a thief took the
      // element; the seq_cst success/loads above already ordered the race.
      const bool won = top_.compare_exchange_strong(
          t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
      bottom_.store(b + 1, std::memory_order_release);
      return won;
    }
    return true;
  }

  // Thief: steals from the top (FIFO). kLost means another thief (or the
  // owner, on the last element) won the CAS — the element went somewhere,
  // but this deque may still hold more, so callers should retry before
  // declaring the victim empty.
  StealResult steal(T& out) {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return StealResult::kEmpty;
    Buffer* const buf = buffer_.load(std::memory_order_acquire);
    out = buf->get(t);
    // relaxed: failure order only — on a lost race the read of `out` is
    // discarded and the caller retries or moves on.
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return StealResult::kLost;
    }
    return StealResult::kSuccess;
  }

  // Approximate (racy) — exact only while no other thread is mutating.
  std::size_t size_approx() const {
    // relaxed: advisory estimate for telemetry and steal heuristics; no
    // decision taken on it needs to be exact.
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

 private:
  static constexpr std::size_t kInitialCapacity = 64;

  struct Buffer {
    explicit Buffer(std::size_t cap)
        : capacity(cap), mask(cap - 1),
          slots(std::make_unique<std::atomic<T>[]>(cap)) {}
    const std::size_t capacity;
    const std::size_t mask;
    std::unique_ptr<std::atomic<T>[]> slots;

    T get(std::int64_t i) const {
      // relaxed: slot reads are racy by design (a thief may read a slot the
      // owner is about to overwrite); the top_ CAS discards stale reads, and
      // cross-thread publication rides bottom_'s release store.
      return slots[static_cast<std::size_t>(i) & mask].load(
          std::memory_order_relaxed);
    }
    void put(std::int64_t i, T v) {
      // relaxed: see get() — ordering is provided by bottom_, not the slot.
      slots[static_cast<std::size_t>(i) & mask].store(
          v, std::memory_order_relaxed);
    }
  };

  // Owner only. Old buffers are retired, not freed: a thief that loaded the
  // previous buffer pointer may still read a stale slot, lose its CAS, and
  // retry — the read must stay within live memory.
  Buffer* grow(Buffer* old, std::int64_t t, std::int64_t b) {
    buffers_.push_back(std::make_unique<Buffer>(old->capacity * 2));
    Buffer* const bigger = buffers_.back().get();
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    buffer_.store(bigger, std::memory_order_release);
    return bigger;
  }

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Buffer*> buffer_{nullptr};
  std::vector<std::unique_ptr<Buffer>> buffers_;  // owner only; newest = live
};

// N deques + the victim policy, one bundle per driver invocation. `worker`
// arguments are the caller's identity: push/pop touch only the caller's own
// deque; steal() sweeps the others in seeded-random order.
template <typename T>
class WorkStealingScheduler {
 public:
  WorkStealingScheduler(std::size_t num_workers, std::uint64_t seed,
                        std::size_t initial_capacity = 64) {
    PM_CHECK(num_workers > 0);
    workers_.reserve(num_workers);
    for (std::size_t w = 0; w < num_workers; ++w) {
      workers_.push_back(std::make_unique<PerWorker>(
          detail::worker_seed(seed, w), initial_capacity));
    }
  }

  std::size_t num_workers() const { return workers_.size(); }

  void push(std::size_t worker, T item) {
    workers_[worker]->deque.push(item);
  }

  bool pop(std::size_t worker, T& out) {
    return workers_[worker]->deque.pop(out);
  }

  // Approximate (racy) depth of one worker's deque — feeds the live
  // pool.queue_depth gauge; exact only while that deque is quiescent.
  std::size_t size_approx(std::size_t worker) const {
    return workers_[worker]->deque.size_approx();
  }

  // One randomized sweep over every other worker's deque. Returns true with
  // a stolen element, or false after observing every victim empty — which is
  // definitive only when no concurrent pushes are possible (each deque's
  // residue is drained by its owner regardless, so a false here never
  // strands work; it only retires this worker early). `failed_probes`, when
  // non-null, is incremented once per victim observed empty (feeds the
  // pool.steal_fail counter).
  bool steal(std::size_t worker, T& out,
             std::uint64_t* failed_probes = nullptr) {
    PerWorker& self = *workers_[worker];
    VictimSequence seq(worker, workers_.size(), self.rng);
    std::size_t victim;
    while (seq.next(victim)) {
      WsDeque<T>& target = workers_[victim]->deque;
      for (;;) {
        const auto result = target.steal(out);
        if (result == WsDeque<T>::StealResult::kSuccess) return true;
        if (result == WsDeque<T>::StealResult::kEmpty) break;
        // kLost: someone else took the top element; the victim may still
        // have more, so retry it rather than miscounting it as empty.
      }
      if (failed_probes != nullptr) ++*failed_probes;
    }
    return false;
  }

 private:
  struct PerWorker {
    PerWorker(std::uint64_t seed, std::size_t initial_capacity)
        : deque(initial_capacity), rng(seed) {}
    alignas(64) WsDeque<T> deque;
    Rng rng;  // owner-thread only (victim selection)
  };

  std::vector<std::unique_ptr<PerWorker>> workers_;
};

}  // namespace paramount
