// StableVector<T>: an append-only sequence with stable element addresses,
// single-writer / multi-reader concurrency, and prefix reclamation.
//
// The online poset (Algorithm 4 of the paper) appends events to per-thread
// sequences while enumeration workers concurrently read earlier elements.
// std::vector cannot be used: growth relocates elements under the readers.
// StableVector stores elements in segments that are never moved; the
// published size is an atomic counter, so a reader that observed
// size() == k may freely access indices [0, k) with no further
// synchronization and no locks on the read path.
//
// Each index holds one row of `width` consecutive elements, fixed at
// construction. Width 1 is a plain sequence (the AccessTable). OnlinePoset
// stores one event per row: its n clock components, then its kind and
// object, so one size increment publishes an event together with its clock.
//
// Long-lived monitored runs additionally need the *front* of the sequence to
// be reclaimable: once the sliding-window watermark (see OnlinePoset) has
// passed an index, its slot will never be read again and its memory should
// return to the allocator. Two consequences for the layout:
//   * segment capacity is capped at MaxSegment rows — purely geometric
//     growth would leave the newest segment O(n) large, so resident memory
//     could never drop below half the total event count no matter how much
//     prefix is released;
//   * release_prefix(n) frees every segment that lies entirely below n
//     (segment granularity: a partially covered segment stays resident).
//
// Layout: segment s < kGeomSegments holds Base * 2^s rows (the classic
// geometric ramp keeps small vectors small); every later segment holds
// MaxSegment rows and is addressed through a two-level directory
// (kTopSlots leaf blocks of kLeafSegments segment pointers each), so the
// directory never relocates and capacity is ~kTopSlots * kLeafSegments *
// MaxSegment rows per vector.
//
// Concurrency contract:
//   * exactly one thread may call push_back() or push_row() at a time
//     (external mutual exclusion — the paper's "atomic block" — is the
//     caller's job);
//   * release_prefix() must be serialized with the appends by the caller
//     (OnlinePoset runs both under its insertion mutex), and the caller
//     guarantees no reader will ever again access an index below the
//     released prefix (the EnumGuard watermark protocol);
//   * any number of threads may call size(), heap_bytes(), operator[] and
//     row() concurrently with the writer, provided the index was covered by
//     an observed size() and is at or above the released prefix.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <memory>

#include "util/check.hpp"

namespace paramount {

template <typename T, std::size_t Base = 64, std::size_t MaxSegment = 4096>
class StableVector {
  static_assert(Base > 0 && (Base & (Base - 1)) == 0,
                "Base must be a power of two");
  static_assert((MaxSegment & (MaxSegment - 1)) == 0 && MaxSegment >= Base,
                "MaxSegment must be a power of two >= Base");
  static constexpr std::size_t kBaseLog = std::bit_width(Base) - 1;
  static constexpr std::size_t kMaxSegLog = std::bit_width(MaxSegment) - 1;
  // Geometric segments Base, 2*Base, …, MaxSegment; everything after is a
  // flat run of MaxSegment-sized segments.
  static constexpr std::size_t kGeomSegments = kMaxSegLog - kBaseLog + 1;
  static constexpr std::size_t kGeomCover = 2 * MaxSegment - Base;
  static constexpr std::size_t kLeafSegments = 512;
  static constexpr std::size_t kTopSlots = 512;

 public:
  explicit StableVector(std::size_t width = 1) : width_(width) {
    PM_CHECK(width > 0);
  }

  StableVector(const StableVector&) = delete;
  StableVector& operator=(const StableVector&) = delete;

  ~StableVector() {
    // relaxed: destruction is single-threaded by contract; whoever destroys
    // the vector already synchronized with the writer and all readers.
    for (auto& seg : geom_) delete[] seg.load(std::memory_order_relaxed);
    for (auto& leaf_slot : leaves_) {
      std::atomic<T*>* leaf = leaf_slot.load(std::memory_order_relaxed);
      if (leaf == nullptr) continue;
      for (std::size_t i = 0; i < kLeafSegments; ++i) {
        delete[] leaf[i].load(std::memory_order_relaxed);
      }
      delete[] leaf;
    }
  }

  // Number of elements visible to the calling thread. Acquire order pairs
  // with the release in push_back so observed elements are fully written.
  std::size_t size() const { return size_.load(std::memory_order_acquire); }

  bool empty() const { return size() == 0; }

  std::size_t width() const { return width_; }

  // The first element of row i; the row's other elements follow it.
  const T* row(std::size_t i) const { return slot(i); }

  const T& operator[](std::size_t i) const { return *slot(i); }
  T& operator[](std::size_t i) { return *slot(i); }

  const T& back() const { return (*this)[size() - 1]; }

  // Appends one element to a width-1 vector and returns its index. Single
  // writer only.
  std::size_t push_back(T value) {
    PM_DCHECK(width_ == 1);
    return push_row([&value](T* dst) { *dst = std::move(value); });
  }

  // Appends one row, written in place by fill(T* row) before the row is
  // published, and returns its index. Single writer only.
  template <typename Fill>
  std::size_t push_row(Fill&& fill) {
    // relaxed: size_ and the segment pointers are only written by this (the
    // single writer) thread, which always sees its own prior stores.
    const std::size_t i = size_.load(std::memory_order_relaxed);
    const std::size_t s = segment_of(i);
    std::atomic<T*>& entry = segment_entry(s, /*allocate_leaf=*/true);
    if (entry.load(std::memory_order_relaxed) == nullptr) {
      // Release so a reader that races to this segment through a published
      // size sees initialized storage.
      const std::size_t elems = segment_capacity(s) * width_;
      entry.store(new T[elems], std::memory_order_release);
      // relaxed: byte accounting only, see heap_bytes().
      live_bytes_.fetch_add(elems * sizeof(T), std::memory_order_relaxed);
    }
    fill(slot(i));
    size_.store(i + 1, std::memory_order_release);
    return i;
  }

  // Frees every segment that lies entirely below index `n`. The caller must
  // serialize this with the appends and guarantee no reader will touch
  // indices below `n` again (see the concurrency contract above). Only whole
  // segments are reclaimed, so released() may lag `n` by up to one segment.
  void release_prefix(std::size_t n) {
    // relaxed: the releaser is serialized with the writer by contract, so
    // these loads observe values the caller already synchronized on; the
    // byte counter is accounting only.
    const std::size_t published = size_.load(std::memory_order_relaxed);
    if (n > published) n = published;
    while (true) {
      const std::size_t s = next_release_;
      if (segment_start(s) + segment_capacity(s) > n) break;
      std::atomic<T*>& entry = segment_entry(s, /*allocate_leaf=*/false);
      T* seg = entry.load(std::memory_order_relaxed);
      if (seg != nullptr) {
        entry.store(nullptr, std::memory_order_release);
        delete[] seg;
        // relaxed: byte accounting only, see heap_bytes().
        live_bytes_.fetch_sub(segment_capacity(s) * width_ * sizeof(T),
                              std::memory_order_relaxed);
      }
      ++next_release_;
    }
  }

  // Elements whose storage has been returned to the allocator (a lower bound
  // on every release_prefix(n) argument so far, rounded down to a segment
  // boundary). Indices below this must never be accessed again.
  std::size_t released() const { return segment_start(next_release_); }

  // Heap bytes currently owned (live segments + directory leaves). A relaxed
  // counter: callable concurrently with the writer and the releaser.
  std::size_t heap_bytes() const {
    // relaxed: advisory byte total for GC triggers and benches; a slightly
    // stale value changes nothing but the instant a GC pass fires.
    return live_bytes_.load(std::memory_order_relaxed);
  }

 private:
  static std::size_t segment_of(std::size_t i) {
    if (i < kGeomCover) return std::bit_width(i + Base) - 1 - kBaseLog;
    return kGeomSegments + ((i - kGeomCover) >> kMaxSegLog);
  }
  static std::size_t segment_start(std::size_t s) {
    if (s < kGeomSegments) return Base * ((std::size_t{1} << s) - 1);
    return kGeomCover + ((s - kGeomSegments) << kMaxSegLog);
  }
  static std::size_t segment_capacity(std::size_t s) {
    return s < kGeomSegments ? (Base << s) : MaxSegment;
  }

  // Directory entry for segment ordinal s. For flat segments the leaf block
  // is allocated on demand by the writer; readers and the releaser only ever
  // visit leaves that already exist.
  std::atomic<T*>& segment_entry(std::size_t s, bool allocate_leaf) {
    if (s < kGeomSegments) return geom_[s];
    const std::size_t flat = s - kGeomSegments;
    const std::size_t top = flat / kLeafSegments;
    PM_CHECK_MSG(top < kTopSlots, "StableVector capacity exhausted");
    std::atomic<T*>* leaf = leaves_[top].load(std::memory_order_acquire);
    if (leaf == nullptr) {
      PM_CHECK(allocate_leaf);  // single writer allocates in index order
      leaf = new std::atomic<T*>[kLeafSegments]();
      // relaxed: byte accounting only, see heap_bytes().
      live_bytes_.fetch_add(kLeafSegments * sizeof(std::atomic<T*>),
                            std::memory_order_relaxed);
      leaves_[top].store(leaf, std::memory_order_release);
    }
    return leaf[flat % kLeafSegments];
  }

  T* slot(std::size_t i) const {
    const std::size_t s = segment_of(i);
    T* seg;
    if (s < kGeomSegments) {
      seg = geom_[s].load(std::memory_order_acquire);
    } else {
      const std::size_t flat = s - kGeomSegments;
      std::atomic<T*>* leaf =
          leaves_[flat / kLeafSegments].load(std::memory_order_acquire);
      PM_DCHECK(leaf != nullptr);
      seg = leaf[flat % kLeafSegments].load(std::memory_order_acquire);
    }
    PM_DCHECK(seg != nullptr);  // fires on access below the released prefix
    return seg + (i - segment_start(s)) * width_;
  }

  std::atomic<T*> geom_[kGeomSegments] = {};
  std::atomic<std::atomic<T*>*> leaves_[kTopSlots] = {};
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> live_bytes_{0};
  std::size_t next_release_ = 0;  // serialized with the appends by the caller
  const std::size_t width_;
};

}  // namespace paramount
