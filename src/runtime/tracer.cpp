#include "runtime/tracer.hpp"

#include "runtime/schedule_controller.hpp"

namespace paramount {

namespace {

// Identity of the current OS thread within a TraceRuntime.
struct TlsBinding {
  TraceRuntime* runtime = nullptr;
  ThreadId tid = 0;
};

thread_local TlsBinding tls;

}  // namespace

TraceRuntime::TraceRuntime(Options options, TraceSink& sink)
    : options_(options),
      sink_(sink),
      access_table_(options.num_threads),
      threads_(options.num_threads) {
  PM_CHECK(options_.num_threads >= 1);
  for (ThreadState& ts : threads_) {
    ts.clock = VectorClock(options_.num_threads);
  }
  // The constructing thread is traced thread 0.
  PM_CHECK_MSG(tls.runtime == nullptr,
               "thread is already bound to another TraceRuntime");
  tls = TlsBinding{this, 0};
  threads_[0].registered = true;
  if (options_.controller != nullptr) options_.controller->start(0);
}

TraceRuntime::~TraceRuntime() { finish(); }

void TraceRuntime::finish() {
  if (finished_) return;
  PM_CHECK_MSG(tls.runtime == this && tls.tid == 0,
               "finish() must run on the constructing thread");
  flush_pending(threads_[0], 0);
  if (options_.controller != nullptr) options_.controller->thread_finished(0);
  tls = TlsBinding{};
  finished_ = true;
}

void TraceRuntime::sched_yield() {
  if (options_.controller != nullptr) {
    PM_DCHECK(tls.runtime == this);
    options_.controller->yield_point(tls.tid);
  } else {
    std::this_thread::yield();
  }
}

TraceRuntime::ThreadState& TraceRuntime::current_thread() {
  PM_CHECK_MSG(tls.runtime == this,
               "operation on a thread not bound to this TraceRuntime");
  return threads_[tls.tid];
}

VarId TraceRuntime::register_var(std::string name) {
  ThreadState& ts = current_thread();
  (void)ts;
  MutexLock guard(vars_mutex_);
  auto state = std::make_unique<VarState>();
  state->name = std::move(name);
  vars_.push_back(std::move(state));
  return static_cast<VarId>(vars_.size() - 1);
}

const std::string& TraceRuntime::var_name(VarId var) const {
  // vars_ only grows and VarState objects are stable behind unique_ptr.
  MutexLock guard(vars_mutex_);
  PM_CHECK(var < vars_.size());
  return vars_[var]->name;
}

std::size_t TraceRuntime::num_vars() const {
  MutexLock guard(vars_mutex_);
  return vars_.size();
}

void TraceRuntime::on_read(VarId var) { record_access(var, /*is_write=*/false); }

void TraceRuntime::on_write(VarId var) { record_access(var, /*is_write=*/true); }

void TraceRuntime::record_access(VarId var, bool is_write) {
  ThreadState& ts = current_thread();
  const ThreadId tid = tls.tid;
  // Every traced access is a schedule point under controlled exploration.
  if (options_.controller != nullptr) options_.controller->yield_point(tid);

  VarState* vs;
  {
    MutexLock guard(vars_mutex_);
    PM_CHECK(var < vars_.size());
    vs = vars_[var].get();
  }
  // relaxed: owner/shared only feed the §5.2 initialization-write exemption,
  // which by definition matters only while a single thread touches the var —
  // once a second thread races here, `shared` flips and the exemption is off
  // regardless of which order the flags become visible.
  std::uint32_t expected = VarState::kNoOwner;
  if (!vs->owner.compare_exchange_strong(expected, tid,
                                         std::memory_order_relaxed) &&
      expected != tid) {
    vs->shared.store(true, std::memory_order_relaxed);
  }
  const bool is_init = is_write &&
                       !vs->shared.load(std::memory_order_relaxed) &&
                       vs->owner.load(std::memory_order_relaxed) == tid;

  if (!ts.has_pending) {
    // A new collection starts: it becomes the thread's next recorded event,
    // so the thread's own clock component advances now. The clock cannot
    // change again before the flush (every synchronization flushes first),
    // so all accesses of the collection share this clock (Figure 9).
    ts.clock[tid] += 1;
    ts.pending.clear();
    ts.has_pending = true;
  }
  ts.pending.merge(var, is_write, is_init);
  sink_.on_raw_access(tid, var, is_write, ts.clock);
}

void TraceRuntime::flush_pending(ThreadState& ts, ThreadId tid) {
  if (!ts.has_pending) return;
  const std::uint32_t index = access_table_.append(tid, ts.pending);
  ts.pending.clear();
  ts.has_pending = false;
  sink_.on_event(tid, OpKind::kCollection, index, ts.clock);
}

void TraceRuntime::record_sync(ThreadState& ts, ThreadId tid, OpKind kind,
                               std::uint32_t object) {
  if (!options_.record_sync_events) return;
  PM_DCHECK(!ts.has_pending);
  ts.clock[tid] += 1;
  sink_.on_event(tid, kind, object, ts.clock);
}

ThreadId TraceRuntime::fork_thread(VectorClock& child_clock_out) {
  ThreadState& ts = current_thread();
  const ThreadId tid = tls.tid;
  // relaxed: id allocation only — uniqueness comes from the atomic RMW; the
  // fork-join happened-before edge rides the std::thread machinery.
  const ThreadId child =
      next_thread_id_.fetch_add(1, std::memory_order_relaxed);
  PM_CHECK_MSG(child < options_.num_threads,
               "more threads forked than Options::num_threads");
  flush_pending(ts, tid);
  record_sync(ts, tid, OpKind::kFork, child);
  if (options_.controller != nullptr) {
    options_.controller->thread_created(child);
  }
  // The child inherits the parent's clock (fork-join rule); its own
  // component is 0 until it records its first event.
  child_clock_out = ts.clock;
  return child;
}

void TraceRuntime::bind_current_thread(ThreadId tid, VectorClock clock) {
  PM_CHECK_MSG(tls.runtime == nullptr,
               "thread is already bound to a TraceRuntime");
  tls = TlsBinding{this, tid};
  threads_[tid].clock = std::move(clock);
  threads_[tid].registered = true;
  if (options_.controller != nullptr) options_.controller->thread_arrived(tid);
}

VectorClock TraceRuntime::unbind_current_thread() {
  ThreadState& ts = current_thread();
  flush_pending(ts, tls.tid);
  VectorClock final_clock = ts.clock;
  if (options_.controller != nullptr) {
    options_.controller->thread_finished(tls.tid);
  }
  tls = TlsBinding{};
  return final_clock;
}

void TraceRuntime::join_thread(ThreadId child,
                               const VectorClock& child_final_clock) {
  ThreadState& ts = current_thread();
  const ThreadId tid = tls.tid;
  // The pending collection happened before the join: flush it before the
  // child's clock is folded in.
  flush_pending(ts, tid);
  ts.clock.join(child_final_clock);
  record_sync(ts, tid, OpKind::kJoin, child);
}

// ---- TracedMutex ----

TracedMutex::TracedMutex(TraceRuntime& runtime, std::string name)
    : runtime_(runtime),
      clock_(runtime.num_threads()),
      // relaxed: id allocation only, see fork_thread().
      id_(runtime.next_lock_id_.fetch_add(1, std::memory_order_relaxed)) {
  (void)name;
}

// Lock-implementation body: the controller path acquires via a try_lock +
// yield spin the analysis cannot follow, so checking is disabled here; the
// PM_ACQUIRE on the declaration still gives callers balance checking.
void TracedMutex::lock() PM_NO_THREAD_SAFETY_ANALYSIS {
  TraceRuntime::ThreadState& ts = runtime_.current_thread();
  const ThreadId tid = tls.tid;
  // The collection preceding the acquire must not absorb the lock's clock.
  runtime_.flush_pending(ts, tid);
  ScheduleController* controller = runtime_.options_.controller;
  if (controller != nullptr) {
    // Never sleep on the OS mutex while holding the execution token: the
    // holder could be token-starved, deadlocking the schedule. The acquire
    // itself is a schedule point.
    controller->yield_point(tid);
    while (!mutex_.try_lock()) controller->yield_point(tid);
  } else {
    mutex_.lock();
  }
  // Lock-atomicity rule (Algorithm 3): join the releasing thread's clock.
  ts.clock.join(clock_);
  runtime_.record_sync(ts, tid, OpKind::kAcquire, id_);
}

void TracedMutex::unlock() PM_NO_THREAD_SAFETY_ANALYSIS {
  TraceRuntime::ThreadState& ts = runtime_.current_thread();
  const ThreadId tid = tls.tid;
  // Everything done inside the critical section must be published (and
  // therefore inserted into the poset) before the next acquirer can proceed:
  // flush while still holding the lock so the sink's insertion order extends
  // happened-before (Property 1).
  runtime_.flush_pending(ts, tid);
  runtime_.record_sync(ts, tid, OpKind::kRelease, id_);
  clock_ = ts.clock;
  mutex_.unlock();
  // Give contenders a chance to win the lock next (schedule diversity).
  if (ScheduleController* controller = runtime_.options_.controller;
      controller != nullptr) {
    controller->yield_point(tid);
  }
}

// ---- TracedThread ----

TracedThread::TracedThread(TraceRuntime& runtime, std::function<void()> body)
    : runtime_(runtime) {
  VectorClock child_clock;
  tid_ = runtime_.fork_thread(child_clock);
  thread_ = std::thread(
      [this, body = std::move(body), clock = std::move(child_clock)]() mutable {
        runtime_.bind_current_thread(tid_, std::move(clock));
        body();
        // Published to the parent by the join() synchronization.
        final_clock_ = runtime_.unbind_current_thread();
      });
}

TracedThread::~TracedThread() {
  if (!joined_) join();
}

void TracedThread::join() {
  PM_CHECK_MSG(!joined_, "TracedThread joined twice");
  ScheduleController* controller = runtime_.options_.controller;
  if (controller != nullptr) {
    // Cooperative join: rotate the token until the child has left the
    // schedule, then the OS join returns promptly. Pausing around the OS
    // join instead would re-admit the parent at an OS-timing-dependent
    // instant and break schedule determinism.
    while (!controller->is_done(tid_)) controller->yield_point(tls.tid);
    thread_.join();
  } else {
    thread_.join();
  }
  joined_ = true;
  runtime_.join_thread(tid_, final_clock_);
}

}  // namespace paramount
