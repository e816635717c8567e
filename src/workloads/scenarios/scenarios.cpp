#include "workloads/scenarios/scenarios.hpp"

#include <deque>

#include "poset/clock_engine.hpp"
#include "poset/vector_clock.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace paramount {

namespace {

using trace::TraceAccess;
using trace::TraceEvent;

// Shared plumbing: the clock engine, the event budget, and the three event
// shapes every scenario is built from (local step, Algorithm-3 sync against
// a timeline, fork/join absorb of another thread's clock). Timeline ids are
// scenario-local (a lock, a barrier generation slot, a per-producer
// channel); the engine creates them on first use.
class ScenarioBase : public ScenarioStream {
 public:
  explicit ScenarioBase(const ScenarioParams& params)
      : params_(params), rng_(params.seed), engine_(params.num_threads) {
    PM_CHECK(params.num_threads > 0);
    PM_CHECK(params.num_threads <= trace::kMaxThreads);
  }

  std::size_t num_threads() const override { return params_.num_threads; }

 protected:
  bool budget_left() const { return emitted_ < params_.num_events; }

  TraceEvent local_event(ThreadId tid, OpKind kind = OpKind::kInternal,
                         std::uint32_t object = 0) {
    TraceEvent ev;
    ev.tid = tid;
    ev.kind = kind;
    ev.object = object;
    engine_.local_step(tid, &ev.clock);
    ++emitted_;
    return ev;
  }

  TraceEvent sync_event(ThreadId tid, OpKind kind, std::uint32_t object,
                        std::size_t timeline) {
    TraceEvent ev;
    ev.tid = tid;
    ev.kind = kind;
    ev.object = object;
    engine_.sync_step(tid, timeline, &ev.clock);
    ++emitted_;
    return ev;
  }

  TraceEvent absorb_event(ThreadId dst, ThreadId src, OpKind kind,
                          std::uint32_t object) {
    TraceEvent ev;
    ev.tid = dst;
    ev.kind = kind;
    ev.object = object;
    engine_.absorb_step(dst, src, &ev.clock);
    ++emitted_;
    return ev;
  }

  ScenarioParams params_;
  Rng rng_;
  ClockEngine engine_;
  std::uint64_t emitted_ = 0;
};

// All threads serialize through one lock: acquire, a few local steps,
// release, next thread. The trace is one long chain of critical sections.
class LockConvoy final : public ScenarioBase {
 public:
  explicit LockConvoy(const ScenarioParams& params) : ScenarioBase(params) {}

  bool next(TraceEvent* out) override {
    if (!budget_left()) return false;
    if (pos_ == 0) {
      *out = sync_event(turn_, OpKind::kAcquire, 0, kLockTimeline);
      section_len_ = 1 + static_cast<int>(rng_.next_below(3));
      pos_ = 1;
    } else if (pos_ <= section_len_) {
      *out = local_event(turn_);
      ++pos_;
    } else {
      *out = sync_event(turn_, OpKind::kRelease, 0, kLockTimeline);
      pos_ = 0;
      turn_ = static_cast<ThreadId>((turn_ + 1) % params_.num_threads);
    }
    return true;
  }

 private:
  static constexpr std::size_t kLockTimeline = 0;
  ThreadId turn_ = 0;
  int pos_ = 0;
  int section_len_ = 0;
};

// Rounds of independent compute separated by all-to-all barriers. The
// barrier is modeled as two sequential sweeps over a barrier timeline
// (arrive = kSend, depart = kReceive): after the second sweep every thread
// has transitively joined every other's arrival, exactly a barrier's
// happened-before closure.
class BarrierPhase final : public ScenarioBase {
 public:
  explicit BarrierPhase(const ScenarioParams& params) : ScenarioBase(params) {}

  bool next(TraceEvent* out) override {
    if (!budget_left()) return false;
    if (stage_ == 0) {
      *out = local_event(tid_);
      advance_sweep(kComputeRounds);
    } else if (stage_ == 1) {
      *out = sync_event(tid_, OpKind::kSend, generation_, kBarrierTimeline);
      advance_sweep(1);
    } else {
      *out = sync_event(tid_, OpKind::kReceive, generation_, kBarrierTimeline);
      if (advance_sweep(1)) ++generation_;
    }
    return true;
  }

 private:
  // Lattice width per phase grows as rounds^(threads-1); keep the slab
  // small so corpus-sized traces enumerate in seconds, not hours.
  static constexpr int kComputeRounds = 4;

  // Round-robin within a stage; returns true when the stage completed and
  // rolls over to the next one.
  bool advance_sweep(int rounds_in_stage) {
    tid_ = static_cast<ThreadId>((tid_ + 1) % params_.num_threads);
    if (tid_ != 0) return false;
    if (++round_ < rounds_in_stage) return false;
    round_ = 0;
    stage_ = (stage_ + 1) % 3;
    return true;
  }

  static constexpr std::size_t kBarrierTimeline = 0;
  ThreadId tid_ = 0;
  int stage_ = 0;
  int round_ = 0;
  std::uint32_t generation_ = 0;
};

// Threads 1..n-1 produce messages into a depth-1 bounded queue consumed by
// thread 0: a send synchronizes with the consumer's acknowledgement of the
// producer's previous message (the blocking put of a full queue), so the
// consumer fans in every producer timeline while producers overlap only
// within a round's window.
class FaninQueue final : public ScenarioBase {
 public:
  explicit FaninQueue(const ScenarioParams& params) : ScenarioBase(params) {}

  bool next(TraceEvent* out) override {
    if (!budget_left()) return false;
    if (params_.num_threads == 1) {  // degenerate: no producers
      *out = local_event(0);
      return true;
    }
    if (producer_ != 0) {
      if (work_left_ > 0) {
        *out = local_event(producer_);
        --work_left_;
        return true;
      }
      // kSend joins the producer's channel (timeline = producer tid): the
      // first round that is empty, later it holds the consumer's clock at
      // the previous receive — the back-pressure edge of the full queue.
      *out = sync_event(producer_, OpKind::kSend, 0, producer_);
      pending_.push_back(producer_);
      advance_producer();
      return true;
    }
    // Consumer drains the round's messages; each receive adopts into the
    // channel, acknowledging the slot back to its producer.
    const ThreadId from = pending_.front();
    pending_.pop_front();
    *out = sync_event(0, OpKind::kReceive, from, from);
    if (pending_.empty()) advance_producer();
    return true;
  }

 private:
  void advance_producer() {
    producer_ = static_cast<ThreadId>((producer_ + 1) % params_.num_threads);
    if (producer_ != 0) {
      work_left_ = 1 + static_cast<int>(rng_.next_below(2));
    }
  }

  ThreadId producer_ = 1;
  int work_left_ = 1;
  std::deque<ThreadId> pending_;
};

// A binary thread tree (parent of t is (t-1)/2) forking out in BFS order,
// computing round-robin, and joining back in reverse order — the shape of
// recursive task decomposition.
class ForkJoinTree final : public ScenarioBase {
 public:
  explicit ForkJoinTree(const ScenarioParams& params) : ScenarioBase(params) {}

  bool next(TraceEvent* out) override {
    if (!budget_left()) return false;
    const std::size_t n = params_.num_threads;
    if (stage_ == 0) {  // fork cascade: kFork by parent, first step by child
      if (n == 1) {
        stage_ = 1;
        return next(out);
      }
      const ThreadId child = static_cast<ThreadId>(1 + cascade_ / 2);
      const ThreadId parent = (child - 1) / 2;
      if (cascade_ % 2 == 0) {
        *out = local_event(parent, OpKind::kFork, child);
      } else {
        // The child's first step absorbs the parent's clock (the fork edge).
        *out = absorb_event(child, parent, OpKind::kInternal, 0);
      }
      if (++cascade_ == 2 * (n - 1)) {
        stage_ = 1;
        cascade_ = 0;
      }
      return true;
    }
    if (stage_ == 1) {  // round-robin compute
      *out = local_event(tid_);
      tid_ = static_cast<ThreadId>((tid_ + 1) % n);
      if (tid_ == 0 && ++round_ == kComputeRounds) {
        stage_ = n > 1 ? 2 : 0;
        round_ = 0;
      }
      return true;
    }
    // Join cascade in reverse: parent's kJoin happens after the child's
    // last event, deepest children first.
    const ThreadId child = static_cast<ThreadId>(n - 1 - cascade_);
    const ThreadId parent = (child - 1) / 2;
    *out = absorb_event(parent, child, OpKind::kJoin, child);
    if (++cascade_ == n - 1) {  // tree collapsed; fork it again
      stage_ = 0;
      cascade_ = 0;
    }
    return true;
  }

 private:
  // Same width concern as BarrierPhase: all threads run concurrently
  // between the cascades, so keep the compute slab narrow.
  static constexpr int kComputeRounds = 4;

  int stage_ = 0;
  std::size_t cascade_ = 0;
  ThreadId tid_ = 0;
  int round_ = 0;
};

// Skewed shared-variable traffic: most accesses hit variable 0. Emits
// Figure-9 collection events whose access lists ride in the trace
// (kHasAccesses records), plus occasional lock syncs for cross edges.
class HotVar final : public ScenarioBase {
 public:
  explicit HotVar(const ScenarioParams& params)
      : ScenarioBase(params),
        collections_(params.num_threads, 0),
        written_(kNumVars, 0) {}

  bool next(TraceEvent* out) override {
    if (!budget_left()) return false;
    const ThreadId tid = turn_;
    turn_ = static_cast<ThreadId>((turn_ + 1) % params_.num_threads);
    if (rng_.next_bool(0.35)) {
      const auto lock = static_cast<std::uint32_t>(rng_.next_below(2));
      *out = sync_event(tid, OpKind::kAcquire, lock, lock);
      return true;
    }
    TraceEvent ev = local_event(tid, OpKind::kCollection, collections_[tid]++);
    const int accesses = 1 + static_cast<int>(rng_.next_below(4));
    for (int i = 0; i < accesses; ++i) {
      const VarId var =
          rng_.next_bool(0.75)
              ? 0
              : static_cast<VarId>(1 + rng_.next_below(kNumVars - 1));
      const bool is_write = rng_.next_bool(0.4);
      merge_access(ev.accesses, var, is_write);
    }
    *out = std::move(ev);
    return true;
  }

 private:
  static constexpr std::size_t kNumVars = 64;

  // The Figure-9 rule: per variable keep the first write, else first read.
  void merge_access(std::vector<TraceAccess>& list, VarId var, bool is_write) {
    const bool is_init = is_write && written_[var] == 0;
    if (is_write) written_[var] = 1;
    for (TraceAccess& a : list) {
      if (a.var != var) continue;
      if (is_write && !a.is_write) {
        a.is_write = true;
        a.is_init = is_init;
      }
      return;
    }
    list.push_back(TraceAccess{var, is_write, is_init});
  }

  std::vector<std::uint32_t> collections_;
  std::vector<char> written_;
  ThreadId turn_ = 0;
};

}  // namespace

const std::vector<std::string>& scenario_names() {
  static const std::vector<std::string> kNames = {
      "lock-convoy", "barrier-phase", "fanin-queue", "fork-join", "hot-var",
  };
  return kNames;
}

namespace {

constexpr std::size_t kWideWidths[] = {64, 128, 256};

// "lock-convoy-256" → base "lock-convoy", width 256. Returns 0 for names
// without a wide suffix.
std::size_t split_wide_suffix(const std::string& name, std::string* base) {
  for (std::size_t width : kWideWidths) {
    const std::string suffix = "-" + std::to_string(width);
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      *base = name.substr(0, name.size() - suffix.size());
      return width;
    }
  }
  return 0;
}

std::unique_ptr<ScenarioStream> make_base_scenario(
    const std::string& name, const ScenarioParams& params) {
  if (name == "lock-convoy") return std::make_unique<LockConvoy>(params);
  if (name == "barrier-phase") return std::make_unique<BarrierPhase>(params);
  if (name == "fanin-queue") return std::make_unique<FaninQueue>(params);
  if (name == "fork-join") return std::make_unique<ForkJoinTree>(params);
  if (name == "hot-var") return std::make_unique<HotVar>(params);
  return nullptr;
}

}  // namespace

const std::vector<std::string>& wide_scenario_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (std::size_t width : kWideWidths) {
      for (const std::string& base : scenario_names()) {
        names.push_back(base + "-" + std::to_string(width));
      }
    }
    return names;
  }();
  return kNames;
}

std::unique_ptr<ScenarioStream> make_scenario(const std::string& name,
                                              const ScenarioParams& params) {
  std::string base;
  if (const std::size_t width = split_wide_suffix(name, &base)) {
    // One suffix only: "lock-convoy-64-128" names no scenario.
    ScenarioParams wide = params;
    wide.num_threads = width;
    return make_base_scenario(base, wide);
  }
  return make_base_scenario(name, params);
}

}  // namespace paramount
