// Execution-tracing runtime: the C++ substitute for the paper's JVM bytecode
// injection (DESIGN.md §5, substitution 1).
//
// Programs are written against TracedThread / TracedMutex / TracedVar<T>.
// The runtime maintains a vector clock per thread and per lock and emits
// poset events to a TraceSink, establishing exactly the paper's four
// happened-before rules (§4.1):
//   1. process order   — per-thread event sequence;
//   2. lock atomicity  — release publishes the thread clock into the lock
//                        clock, acquire joins it (Algorithm 3);
//   3. fork-join       — child starts with the parent's clock; join folds the
//                        child's final clock back into the parent;
//   4. transitivity    — vector clocks are transitively closed by
//                        construction.
//
// Consecutive accesses between synchronization points are merged into
// Figure-9 event collections. Synchronization operations themselves are
// recorded as poset events only when Options::record_sync_events is set: the
// paper's detector posets contain only predicate-relevant events (§4.4),
// while richer posets for the enumeration benchmarks record the sync
// skeleton too.
//
// Delivery of events to the sink respects happened-before (Property 1):
// a thread flushes its pending collection before every synchronization
// operation, and clocks only escape to other threads through operations that
// flushed first.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/access.hpp"
#include "runtime/trace_sink.hpp"
#include "util/sync.hpp"

namespace paramount {

class ScheduleController;
class TracedMutex;
class TracedThread;

class TraceRuntime {
 public:
  struct Options {
    // Total number of traced threads, including the constructing (main)
    // thread; fixes the vector-clock width.
    std::size_t num_threads = 1;
    // Record acquire/release/fork/join as poset events.
    bool record_sync_events = false;
    // Optional cooperative scheduler (schedule exploration, §5.3): every
    // traced access and lock operation becomes a deterministic schedule
    // point. Must outlive the runtime.
    ScheduleController* controller = nullptr;
  };

  TraceRuntime(Options options, TraceSink& sink);
  ~TraceRuntime();

  TraceRuntime(const TraceRuntime&) = delete;
  TraceRuntime& operator=(const TraceRuntime&) = delete;

  std::size_t num_threads() const { return options_.num_threads; }
  const AccessTable& access_table() const { return access_table_; }

  // ---- variables ----

  // Registers a shared variable; `creator` is the calling thread.
  VarId register_var(std::string name);
  const std::string& var_name(VarId var) const;
  std::size_t num_vars() const;

  // Traced accesses; must run on a registered thread.
  void on_read(VarId var);
  void on_write(VarId var);

  // Cooperative yield: a schedule point under a ScheduleController, a plain
  // std::this_thread::yield otherwise. Traced programs must use this (never
  // a raw spin) when busy-waiting on untraced state, or they would hold the
  // controller's execution token forever.
  void sched_yield();

  // Flushes the main thread's pending collection. All forked threads must
  // already be joined. Idempotent; also run by the destructor.
  void finish();

 private:
  friend class TracedMutex;
  friend class TracedThread;

  struct ThreadState {
    VectorClock clock;
    AccessSet pending;
    bool has_pending = false;
    bool registered = false;
  };

  struct VarState {
    static constexpr std::uint32_t kNoOwner = 0xffffffffu;

    std::string name;
    // First thread to access the variable. Writes are initialization writes
    // (§5.2 exemption) while the variable has been touched by no thread
    // other than the writer — "no other thread can have reference to an
    // uninstantiated object or variable".
    std::atomic<std::uint32_t> owner{kNoOwner};
    std::atomic<bool> shared{false};  // a second thread has touched the var
  };

  ThreadState& current_thread();
  void record_access(VarId var, bool is_write);
  // Emits the pending collection (if any) of the current thread.
  void flush_pending(ThreadState& ts, ThreadId tid);
  // Records a synchronization event if record_sync_events is on. Must be
  // called after flush_pending.
  void record_sync(ThreadState& ts, ThreadId tid, OpKind kind,
                   std::uint32_t object);

  // Thread lifecycle used by TracedThread.
  ThreadId fork_thread(VectorClock& child_clock_out);
  void bind_current_thread(ThreadId tid, VectorClock clock);
  VectorClock unbind_current_thread();  // flushes, returns final clock
  void join_thread(ThreadId child, const VectorClock& child_final_clock);

  Options options_;
  TraceSink& sink_;
  AccessTable access_table_;
  std::vector<ThreadState> threads_;
  std::atomic<ThreadId> next_thread_id_{1};
  // Lock ids are per-runtime so repeated runs label locks identically
  // (deterministic replay compares recorded posets byte for byte).
  std::atomic<std::uint32_t> next_lock_id_{0};

  mutable Mutex vars_mutex_;
  // deque-like stability not needed: VarState is not movable (atomics), so
  // store by pointer.
  std::vector<std::unique_ptr<VarState>> vars_ PM_GUARDED_BY(vars_mutex_);

  bool finished_ = false;
};

// Mutex with lock-atomicity tracing. The lock's vector clock carries the
// happened-before edge from the releasing thread to the next acquirer.
//
// A capability in its own right: traced programs that call lock()/unlock()
// manually get the same balance checking as code using the core Mutex. The
// lock()/unlock() *bodies* opt out of the analysis (PM_NO_THREAD_SAFETY_
// ANALYSIS in tracer.cpp) — under a ScheduleController the acquire is a
// try_lock + yield spin the analysis cannot follow, and clock_ is protected
// by the inner mutex_ the capability delegates to.
class PM_CAPABILITY("mutex") TracedMutex {
 public:
  explicit TracedMutex(TraceRuntime& runtime, std::string name = "lock");

  void lock() PM_ACQUIRE();
  void unlock() PM_RELEASE();

 private:
  TraceRuntime& runtime_;
  Mutex mutex_;
  VectorClock clock_;  // guarded by mutex_ (bodies are outside the analysis)
  std::uint32_t id_;
};

// RAII guard for TracedMutex.
class PM_SCOPED_CAPABILITY TracedLockGuard {
 public:
  explicit TracedLockGuard(TracedMutex& mutex) PM_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.lock();
  }
  ~TracedLockGuard() PM_RELEASE() { mutex_.unlock(); }

  TracedLockGuard(const TracedLockGuard&) = delete;
  TracedLockGuard& operator=(const TracedLockGuard&) = delete;

 private:
  TracedMutex& mutex_;
};

// Thread with fork-join tracing. Construction forks (the body starts with
// the parent's clock); join() folds the child clock back into the parent.
class TracedThread {
 public:
  TracedThread(TraceRuntime& runtime, std::function<void()> body);
  ~TracedThread();

  TracedThread(const TracedThread&) = delete;
  TracedThread& operator=(const TracedThread&) = delete;

  void join();

 private:
  TraceRuntime& runtime_;
  ThreadId tid_;
  std::thread thread_;
  // Written by the child thread right before it exits; the happens-before
  // edge of std::thread::join makes it safe to read afterwards.
  VectorClock final_clock_;
  bool joined_ = false;
};

// Traced shared variable. The underlying storage is a relaxed std::atomic so
// that *workloads with intentional data races remain well-defined C++*; the
// races being detected are logical (absence of happened-before edges in the
// trace), not C++ UB.
template <typename T>
class TracedVar {
 public:
  TracedVar(TraceRuntime& runtime, std::string name, T initial = T())
      : runtime_(runtime),
        id_(runtime.register_var(std::move(name))),
        value_(initial) {}

  VarId id() const { return id_; }

  // Traced read/write.
  // relaxed: deliberately the weakest order — ordering must come from the
  // workload's *traced* synchronization (TracedMutex etc.), never from the
  // variable itself, or races the detector should flag would be hidden; the
  // atomic exists only to keep intentionally racy workloads defined C++.
  T load() {
    runtime_.on_read(id_);
    return value_.load(std::memory_order_relaxed);
  }
  void store(T v) {
    runtime_.on_write(id_);
    value_.store(v, std::memory_order_relaxed);
  }

  // Untraced accesses for driver/harness code (not part of the monitored
  // program, like the paper's test drivers).
  // relaxed: harness-side peeks, ordered by thread joins in the drivers.
  T unsafe_load() const { return value_.load(std::memory_order_relaxed); }
  void unsafe_store(T v) { value_.store(v, std::memory_order_relaxed); }

 private:
  TraceRuntime& runtime_;
  VarId id_;
  std::atomic<T> value_;
};

}  // namespace paramount
