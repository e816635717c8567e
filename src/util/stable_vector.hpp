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
// Layout. Segments are sized in bytes, not rows. A full segment holds R
// rows, the largest power of two whose rows fit in SegmentBytes (at least
// one row): R = 32 (8.25 KiB) for a 64-thread OnlinePoset row of 264 B,
// R = 512 (16 KiB) for a 6-thread row of 32 B. The first R rows are split
// into a ramp of segments of R/8, R/8, R/4 and R/2 rows, so a vector that
// only ever holds a few rows stays small; every later segment holds R rows
// and starts at a multiple of R. Long-lived monitored runs need the *front*
// of the sequence to be reclaimable: once the sliding-window watermark (see
// OnlinePoset) has passed an index, its row will never be read again.
// release_prefix(n) frees every segment that lies entirely below n, so a
// vector whose live window is w rows keeps about w + R rows resident,
// whatever its row width and however many rows it has seen.
//
// Directory. The ramp segments sit in a small inline array. The full
// segments' pointers sit in leaf blocks of kLeafSegments entries that the
// writer allocates on demand, and a ring of kTopSlots top-level slots
// points at the leaves; a reader resolves a row with two dependent loads
// (top slot, then leaf entry). release_prefix also frees each leaf whose
// segments are all released, which hands its top slot back to the writer
// for the block kTopSlots blocks later. The directory therefore bounds only
// the *live* rows: a windowed vector has no lifetime cap. A vector that is
// never released holds at most kTopSlots * kLeafSegments (2^18) full
// segments, 2–4 GiB of rows at the default cap; full() reports when the
// next append would need more, so callers fed by untrusted input can reject
// it with a typed error instead of reaching push_row()'s abort.
//
// Concurrency contract:
//   * exactly one thread may call push_back(), push_row() or full() at a
//     time (external mutual exclusion — the paper's "atomic block" — is the
//     caller's job);
//   * release_prefix() must be serialized with the appends by the caller
//     (OnlinePoset runs both under its insertion mutex), and the caller
//     guarantees no reader will ever again access an index below the
//     released prefix (the EnumGuard watermark protocol);
//   * any number of threads may call size(), heap_bytes(), operator[] and
//     row() concurrently with the writer, provided the index was covered by
//     an observed size() and is at or above the released prefix.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <utility>

#include "util/check.hpp"

namespace paramount {

// Byte cap of one StableVector segment (see "Layout" above).
inline constexpr std::size_t kSegmentBytes = 16 * 1024;

template <typename T, std::size_t SegmentBytes = kSegmentBytes>
class StableVector {
  static constexpr std::size_t kRampSegments = 4;  // b, b, 2b, 4b
  static constexpr std::size_t kLeafLog = 9;
  static constexpr std::size_t kLeafSegments = std::size_t{1} << kLeafLog;
  static constexpr std::size_t kLeafMask = kLeafSegments - 1;
  static constexpr std::size_t kLeafBytes =
      kLeafSegments * sizeof(std::atomic<T*>);
  static constexpr std::size_t kTopSlots = 512;

 public:
  explicit StableVector(std::size_t width = 1)
      : width_(width),
        row_log_(rows_log(width)),
        base_log_(row_log_ - std::min(row_log_, kRampSegments - 1)) {}

  StableVector(const StableVector&) = delete;
  StableVector& operator=(const StableVector&) = delete;

  ~StableVector() {
    // relaxed: destruction is single-threaded by contract; whoever destroys
    // the vector already synchronized with the writer and all readers.
    for (auto& seg : ramp_) delete[] seg.load(std::memory_order_relaxed);
    for (auto& top : top_) {
      std::atomic<T*>* leaf = top.load(std::memory_order_relaxed);
      if (leaf == nullptr) continue;
      for (std::size_t i = 0; i < kLeafSegments; ++i) {
        delete[] leaf[i].load(std::memory_order_relaxed);
      }
      delete[] leaf;
    }
  }

  // Number of elements visible to the calling thread. Acquire order pairs
  // with the release in push_row so observed elements are fully written.
  std::size_t size() const { return size_.load(std::memory_order_acquire); }

  bool empty() const { return size() == 0; }

  std::size_t width() const { return width_; }

  // Rows per full segment (a power of two fixed by the width; see "Layout").
  std::size_t segment_rows() const { return std::size_t{1} << row_log_; }

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
  // published, and returns its index. Single writer only; aborts when
  // full().
  template <typename Fill>
  std::size_t push_row(Fill&& fill) {
    // relaxed: size_ is only written by this (the single writer) thread,
    // which always sees its own prior stores.
    const std::size_t i = size_.load(std::memory_order_relaxed);
    if (tail_room_ == 0) open_segment(i);
    fill(tail_);
    tail_ += width_;
    --tail_room_;
    size_.store(i + 1, std::memory_order_release);
    return i;
  }

  // True when the next push_row() would abort: it opens a leaf block whose
  // top-level slot still holds a block that is not wholly released. Between
  // two appends only release_prefix() changes the answer, and only from
  // true to false, so the writer may test this before an append.
  bool full() const {
    // relaxed: size_ is written only by the calling writer thread; a top
    // slot read stale by a racing releaser can only still be non-null,
    // which reports the room it is freeing one call late.
    const std::size_t s = size_.load(std::memory_order_relaxed) >> row_log_;
    if (tail_room_ != 0 || s == 0) return false;
    const std::size_t f = s - 1;
    return (f & kLeafMask) == 0 &&
           top_[top_index(f)].load(std::memory_order_relaxed) != nullptr;
  }

  // Frees every segment that lies entirely below index `n`, and every leaf
  // block whose segments are all freed. The caller must serialize this with
  // the appends and guarantee no reader will touch indices below `n` again
  // (see the concurrency contract above). Only whole segments are
  // reclaimed, so released() may lag `n` by up to one segment.
  void release_prefix(std::size_t n) {
    // relaxed: the releaser is serialized with the writer by contract, so
    // it observes a size the caller already synchronized on.
    const std::size_t published = size_.load(std::memory_order_relaxed);
    if (n > published) n = published;
    while (released_ + rows_at(released_) <= n) {
      // relaxed: the directory is written only by the writer and this
      // releaser, which the caller serializes; no reader touches a released
      // segment or leaf again, and the byte counter is accounting only.
      const std::size_t rows = rows_at(released_);
      live_bytes_.fetch_sub(rows * width_ * sizeof(T),
                            std::memory_order_relaxed);
      const std::size_t s = released_ >> row_log_;
      if (s == 0) {
        // relaxed: as above.
        std::atomic<T*>& entry = ramp_[ramp_index(released_)];
        delete[] entry.load(std::memory_order_relaxed);
        entry.store(nullptr, std::memory_order_relaxed);
      } else {
        const std::size_t f = s - 1;
        std::atomic<std::atomic<T*>*>& top = top_[top_index(f)];
        std::atomic<T*>* leaf = top.load(std::memory_order_relaxed);
        delete[] leaf[f & kLeafMask].load(std::memory_order_relaxed);
        leaf[f & kLeafMask].store(nullptr, std::memory_order_relaxed);
        if ((f & kLeafMask) == kLeafMask) {
          // The block's last segment: its leaf goes too, and the writer may
          // reuse the top slot.
          // relaxed: serialized with the writer, as above.
          top.store(nullptr, std::memory_order_relaxed);
          delete[] leaf;
          live_bytes_.fetch_sub(kLeafBytes, std::memory_order_relaxed);
        }
      }
      released_ += rows;
    }
  }

  // Elements whose storage has been returned to the allocator (a lower bound
  // on every release_prefix(n) argument so far, rounded down to a segment
  // boundary). Indices below this must never be accessed again.
  std::size_t released() const { return released_; }

  // Heap bytes currently owned (live segments + directory leaves). A relaxed
  // counter: callable concurrently with the writer and the releaser.
  std::size_t heap_bytes() const {
    // relaxed: advisory byte total for GC triggers and benches; a slightly
    // stale value changes nothing but the instant a GC pass fires.
    return live_bytes_.load(std::memory_order_relaxed);
  }

 private:
  static std::size_t rows_log(std::size_t width) {
    PM_CHECK(width > 0);
    const std::size_t rows = SegmentBytes / (width * sizeof(T));
    return rows <= 1 ? 0 : std::bit_width(rows) - 1;
  }
  static std::size_t top_index(std::size_t f) {
    return (f >> kLeafLog) % kTopSlots;
  }
  // The ramp splits rows [0, R) into segments of b, b, 2b and 4b rows
  // (b = R/8, or fewer segments when R < 8): row i < R lies in ramp
  // segment k = bit_width(i / b), which starts at ramp_start(k).
  std::size_t ramp_index(std::size_t i) const {
    return std::bit_width(i >> base_log_);
  }
  std::size_t ramp_start(std::size_t k) const {
    return ((std::size_t{1} << k) >> 1) << base_log_;
  }
  // Rows of the segment that starts at row i.
  std::size_t rows_at(std::size_t i) const {
    if ((i >> row_log_) != 0) return std::size_t{1} << row_log_;
    const std::size_t k = ramp_index(i);
    return std::size_t{1} << (base_log_ + (k == 0 ? 0 : k - 1));
  }

  // Allocates the segment that starts at row i (and, for the first segment
  // of a block, its leaf) and makes it the writer's tail.
  void open_segment(std::size_t i) {
    tail_room_ = rows_at(i);
    tail_ = new T[tail_room_ * width_];
    // relaxed: byte accounting only, see heap_bytes().
    live_bytes_.fetch_add(tail_room_ * width_ * sizeof(T),
                          std::memory_order_relaxed);
    // Release stores, so a reader that reaches this segment through a
    // published size sees an initialized directory.
    const std::size_t s = i >> row_log_;
    if (s == 0) {
      ramp_[ramp_index(i)].store(tail_, std::memory_order_release);
      return;
    }
    const std::size_t f = s - 1;
    std::atomic<std::atomic<T*>*>& top = top_[top_index(f)];
    // relaxed: the directory is written only by the writer and the
    // releaser, which the caller serializes.
    std::atomic<T*>* leaf = top.load(std::memory_order_relaxed);
    if ((f & kLeafMask) == 0) {
      PM_CHECK_MSG(leaf == nullptr,
                   "StableVector directory full: no top slot released");
      leaf = new std::atomic<T*>[kLeafSegments]();
      // relaxed: byte accounting only, see heap_bytes().
      live_bytes_.fetch_add(kLeafBytes, std::memory_order_relaxed);
      top.store(leaf, std::memory_order_release);
    }
    leaf[f & kLeafMask].store(tail_, std::memory_order_release);
  }

  T* slot(std::size_t i) const {
    const std::size_t s = i >> row_log_;
    T* seg;
    std::size_t offset;
    if (s != 0) [[likely]] {
      const std::size_t f = s - 1;
      const std::atomic<T*>* leaf =
          top_[top_index(f)].load(std::memory_order_acquire);
      PM_DCHECK(leaf != nullptr);
      seg = leaf[f & kLeafMask].load(std::memory_order_acquire);
      offset = i & ((std::size_t{1} << row_log_) - 1);
    } else {
      const std::size_t k = ramp_index(i);
      seg = ramp_[k].load(std::memory_order_acquire);
      offset = i - ramp_start(k);
    }
    PM_DCHECK(seg != nullptr);  // fires on access below the released prefix
    return seg + offset * width_;
  }

  std::atomic<T*> ramp_[kRampSegments] = {};
  std::atomic<std::atomic<T*>*> top_[kTopSlots] = {};
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> live_bytes_{0};
  T* tail_ = nullptr;          // writer only: where the next row goes
  std::size_t tail_room_ = 0;  // writer only: rows left in the tail segment
  std::size_t released_ = 0;   // serialized with the appends by the caller
  const std::size_t width_;
  const std::size_t row_log_;   // log2 of R, a full segment's rows
  const std::size_t base_log_;  // log2 of b, the first segment's rows
};

}  // namespace paramount
