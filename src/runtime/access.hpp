// Shared-variable access records and the Figure-9 event collections.
//
// The paper's detector does not insert one poset event per read/write;
// consecutive accesses of a thread between two synchronization operations are
// merged into an *event collection* that keeps, per variable, the first write
// (or the first read if the variable is never written in the collection) and
// shares a single vector clock. AccessSet implements that merging rule;
// AccessTable stores the sets with single-writer/multi-reader semantics so
// enumeration workers can inspect frontier collections concurrently.
#pragma once

#include <cstdint>
#include <vector>

#include "poset/vector_clock.hpp"
#include "util/inlined_vector.hpp"
#include "util/stable_vector.hpp"

namespace paramount {

using VarId = std::uint32_t;

struct Access {
  VarId var = 0;
  bool is_write = false;
  // Initialization write: performed by the variable's creating thread before
  // any other thread has touched the variable. The paper's detector never
  // reports such writes as race participants (§5.2); FastTrack has no such
  // exemption, which reproduces the set(correct) discrepancy of Table 2.
  bool is_init = false;
};

class AccessSet {
 public:
  // Merges one access under the Figure-9 rule: per variable keep the first
  // write, or the first read when no write has occurred. Returns true if the
  // set changed.
  bool merge(VarId var, bool is_write, bool is_init) {
    for (Access& a : accesses_) {
      if (a.var != var) continue;
      if (is_write && !a.is_write) {
        // First write supersedes a previously stored read.
        a.is_write = true;
        a.is_init = is_init;
        return true;
      }
      return false;
    }
    accesses_.push_back(Access{var, is_write, is_init});
    return true;
  }

  bool empty() const { return accesses_.empty(); }
  std::size_t size() const { return accesses_.size(); }
  void clear() { accesses_.clear(); }

  const Access* begin() const { return accesses_.begin(); }
  const Access* end() const { return accesses_.end(); }
  const Access& operator[](std::size_t i) const { return accesses_[i]; }

 private:
  InlinedVector<Access, 8> accesses_;
};

// Per-thread append-only storage of flushed collections. Collection events
// carry the index of their AccessSet in their `object` field.
class AccessTable {
 public:
  explicit AccessTable(std::size_t num_threads) : per_thread_(num_threads) {}

  std::size_t num_threads() const { return per_thread_.size(); }

  // Single writer per thread (the traced thread itself).
  std::uint32_t append(ThreadId tid, AccessSet set) {
    PM_DCHECK(tid < per_thread_.size());
    return static_cast<std::uint32_t>(
        per_thread_[tid].sets.push_back(std::move(set)));
  }

  // Concurrent reads of already published sets are safe.
  const AccessSet& get(ThreadId tid, std::uint32_t index) const {
    PM_DCHECK(tid < per_thread_.size());
    return per_thread_[tid].sets[index];
  }

  std::size_t count(ThreadId tid) const { return per_thread_[tid].sets.size(); }

  // False when the next append() on `tid` would overflow its storage and
  // abort: the table is never released, so it holds 2^18 segments of sets
  // per thread (StableVector's full()). The service session checks this
  // before appending a collection taken from the wire.
  bool has_room(ThreadId tid) const { return !per_thread_[tid].sets.full(); }

 private:
  struct PerThread {
    StableVector<AccessSet> sets;
  };
  std::vector<PerThread> per_thread_;
};

}  // namespace paramount
