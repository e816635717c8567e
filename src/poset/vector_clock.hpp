// Vector clocks (Fidge/Mattern) and frontiers of global states.
//
// Both concepts are arrays of n small integers indexed by thread:
//   * a vector clock e.vc has e.vc[i] = index of the latest event of thread i
//     that happened-before (or is) e — §2.2 of the paper;
//   * a frontier G has G[i] = index of the maximal event of thread i included
//     in the global state G (0 = no event) — §2.1 of the paper.
// The frontier of the least global state containing e *is* e's vector clock
// (Gmin(e) = e.vc), so the two share one representation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

#include "util/check.hpp"
#include "util/inlined_vector.hpp"

namespace paramount {

using ThreadId = std::uint32_t;
// 1-based index of an event within its thread; 0 means "no event yet".
using EventIndex = std::uint32_t;

// A read-only view of n clock components stored elsewhere. OnlinePoset keeps
// each event's clock inside the event's storage row and hands out views, so
// reading a published clock neither copies nor allocates. The read
// operations match VectorClock's, and a VectorClock converts to a view of
// itself.
class ClockView {
 public:
  ClockView() = default;
  ClockView(const EventIndex* data, std::size_t size)
      : data_(data), size_(size) {}

  std::size_t size() const { return size_; }
  const EventIndex* data() const { return data_; }

  EventIndex operator[](std::size_t i) const {
    PM_DCHECK(i < size_);
    return data_[i];
  }

  const EventIndex* begin() const { return data_; }
  const EventIndex* end() const { return data_ + size_; }

  // VectorClock::leq over views. That one keeps its own body: forwarding it
  // here reorders the code of the offline kernels that call it.
  bool leq(ClockView other) const {
    const std::size_t common = std::min(size_, other.size_);
    for (std::size_t i = 0; i < common; ++i) {
      if (data_[i] > other.data_[i]) return false;
    }
    for (std::size_t i = common; i < size_; ++i) {
      if (data_[i] > 0) return false;  // other's missing component is 0
    }
    return true;
  }

  // Iterated splitmix64: every component passes through a full-avalanche
  // finalizer. Frontiers are *small dense integers*, and the old
  // shift-xor fold left the high bits nearly unmixed (see
  // FrontierHashQuality in tests/test_vector_clock.cpp, which pins the
  // collision rate).
  std::uint64_t hash() const {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ size_;
    for (EventIndex c : *this) {
      h += 0x9e3779b97f4a7c15ULL + c;
      h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
      h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
      h ^= h >> 31;
    }
    return h;
  }

  friend bool operator==(ClockView a, ClockView b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  const EventIndex* data_ = nullptr;
  std::size_t size_ = 0;
};

class VectorClock {
 public:
  // Result of comparing two clocks under the componentwise partial order.
  enum class Order { kEqual, kLess, kGreater, kConcurrent };

  VectorClock() = default;

  explicit VectorClock(std::size_t num_threads)
      : components_(num_threads, 0) {}

  VectorClock(std::initializer_list<EventIndex> init) : components_(init) {}

  // Copies the viewed components (explicit: a copy may allocate).
  explicit VectorClock(ClockView view) : components_(view.size()) {
    std::copy(view.begin(), view.end(), components_.begin());
  }

  operator ClockView() const {
    return ClockView(components_.data(), components_.size());
  }

  std::size_t size() const { return components_.size(); }
  EventIndex* data() { return components_.data(); }
  const EventIndex* data() const { return components_.data(); }

  // Sets the clock to `num_threads` zero components, reusing the buffer.
  void assign_zero(std::size_t num_threads) {
    components_.assign(num_threads, 0);
  }

  // Sets the clock to a copy of the viewed components, reusing the buffer.
  void assign(ClockView view) { components_.assign(view.data(), view.size()); }

  EventIndex operator[](std::size_t i) const { return components_[i]; }
  EventIndex& operator[](std::size_t i) { return components_[i]; }

  // Componentwise maximum with `other` (the happened-before join). Clocks of
  // different widths join under zero-extension: missing components are 0, so
  // the result is widened to the larger of the two sizes. (A PM_DCHECK here
  // used to be the only guard — in release builds a size mismatch read out
  // of bounds; the width-extending semantics make every input well-defined.)
  void join(const VectorClock& other) {
    if (other.components_.size() > components_.size()) {
      components_.resize(other.components_.size(), 0);
    }
    for (std::size_t i = 0; i < other.components_.size(); ++i) {
      components_[i] = std::max(components_[i], other.components_[i]);
    }
  }

  // True iff this ≤ other componentwise, under zero-extension of the shorter
  // clock (see join() for why sizes may legitimately differ).
  bool leq(const VectorClock& other) const {
    const std::size_t common = std::min(size(), other.size());
    for (std::size_t i = 0; i < common; ++i) {
      if (components_[i] > other.components_[i]) return false;
    }
    for (std::size_t i = common; i < size(); ++i) {
      if (components_[i] > 0) return false;  // other's missing component is 0
    }
    return true;
  }

  // Single-pass comparison under the componentwise partial order: one scan
  // tracks both directions and exits early once the clocks are known to be
  // concurrent (the old two-leq formulation always paid two full scans).
  static Order compare(const VectorClock& a, const VectorClock& b) {
    bool a_le_b = true;
    bool b_le_a = true;
    const std::size_t n = std::max(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
      const EventIndex av = i < a.size() ? a.components_[i] : 0;
      const EventIndex bv = i < b.size() ? b.components_[i] : 0;
      if (av < bv) {
        if (!a_le_b) return Order::kConcurrent;
        b_le_a = false;
      } else if (bv < av) {
        if (!b_le_a) return Order::kConcurrent;
        a_le_b = false;
      }
    }
    if (a_le_b && b_le_a) return Order::kEqual;
    return a_le_b ? Order::kLess : Order::kGreater;
  }

  friend bool operator==(const VectorClock& a, const VectorClock& b) {
    return a.components_ == b.components_;
  }
  friend bool operator!=(const VectorClock& a, const VectorClock& b) {
    return !(a == b);
  }

  // Strict total order: lexicographic with thread 0 most significant. This is
  // the order the lexical enumeration algorithm (§3.2) traverses. Shorter
  // clocks are zero-extended, like leq()/compare().
  static bool lex_less(const VectorClock& a, const VectorClock& b) {
    const std::size_t n = std::max(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
      const EventIndex av = i < a.size() ? a.components_[i] : 0;
      const EventIndex bv = i < b.size() ? b.components_[i] : 0;
      if (av != bv) return av < bv;
    }
    return false;
  }

  // See ClockView::hash; a clock and a view of it hash alike.
  std::uint64_t hash() const { return ClockView(*this).hash(); }

  std::uint64_t sum() const {
    std::uint64_t s = 0;
    for (EventIndex c : components_) s += c;
    return s;
  }

  std::string to_string() const;

 private:
  InlinedVector<EventIndex, 16> components_;
};

// Algorithm 3 of the paper (calculateVectorClock): computes the clock of a
// new event of thread `tid` that synchronizes with another timeline (a lock,
// a forking parent, a joined child). The thread's own component is advanced,
// the two clocks are joined, and the partner timeline adopts the result so
// later acquirers inherit the edge. Returns the new event's clock.
inline VectorClock calculate_vector_clock(ThreadId tid,
                                          VectorClock& thread_clock,
                                          VectorClock& partner_clock) {
  PM_DCHECK(thread_clock.size() == partner_clock.size());
  PM_DCHECK(tid < thread_clock.size());
  thread_clock[tid] += 1;       // vci[i] ← vci[i] + 1
  thread_clock.join(partner_clock);  // vci[k] ← max(vci[k], vcj[k])
  partner_clock = thread_clock;      // vcj ← vci
  return thread_clock;
}

// A frontier identifying a global state: G[i] = number of events of thread i
// included in G. Structurally identical to a vector clock (see file comment).
using Frontier = VectorClock;

struct FrontierHash {
  std::size_t operator()(const Frontier& f) const {
    return static_cast<std::size_t>(f.hash());
  }
};

}  // namespace paramount
