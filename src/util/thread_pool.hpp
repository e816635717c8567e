// Fixed-size worker pool over one FIFO task queue.
//
// Used by OnlineParamount's async mode. Every pool belongs to one
// OnlineParamount, whose submits come from one thread (the session reactor,
// a replay loop, a bench's reader), so there is no submit contention for
// per-worker queues to spread. Nor would they save this lock: a submit must
// take it anyway to wake a sleeping worker, so a queue per worker would add
// a second lock per task and up to n-1 probe locks per idle worker. One
// mutex guards the queue, the in-flight count and shutdown: a submit is one
// push under it plus a notify_one, and a worker reports its last task
// finished, pops its next one or goes to sleep in one critical section.
// Tasks start in submission order.
//
// When a Telemetry bundle is attached, each worker records how long every
// task sat in the queue (pool.queue_wait_ns histogram, sharded by worker
// index), counts executed tasks (pool.tasks) and emits a "task" span per
// execution. Every push and pop also refreshes the pool.queue_depth gauge on
// the pool's first shard, so a poll of the metrics snapshot sees the live
// backlog.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "obs/telemetry.hpp"
#include "util/sync.hpp"

namespace paramount {

class ThreadPool {
 public:
  // `telemetry` (optional) must outlive the pool and have at least
  // `shard_base + num_threads` shards; pool worker w writes only shard
  // `shard_base + w`, and the queue-depth gauge lives on `shard_base`. A
  // non-zero base lets an owner that also reports on its own threads (e.g.
  // OnlineParamount's submitters) keep shard writers disjoint.
  explicit ThreadPool(std::size_t num_threads,
                      obs::Telemetry* telemetry = nullptr,
                      std::size_t shard_base = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Appends a task to the queue. Thread-safe from any thread, including pool
  // workers. Tasks must not throw; an escaping exception terminates.
  void submit(std::function<void()> task);

  // Blocks until every submitted task has finished.
  void wait_idle();

  // Index of the pool worker running the calling thread, or `npos` when the
  // caller is not a pool worker. Lets pooled tasks pick their telemetry
  // shard without threading the index through std::function.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  static std::size_t current_worker_index();

 private:
  struct Task {
    std::function<void()> fn;
    std::uint64_t enqueue_ns = 0;  // tracer timestamp; 0 if untracked
  };

  void worker_loop(std::size_t worker_index);
  // Retires the caller's previous task (if `finished_one`), then pops the
  // next one, sleeping while the queue is empty. False once the pool shuts
  // down with nothing left to run.
  bool next_task(Task& out, bool finished_one) PM_EXCLUDES(mutex_);
  void run_task(Task& task, std::size_t worker_index);
  void sample_queue_depth() PM_REQUIRES(mutex_);

  obs::Telemetry* telemetry_;
  std::size_t shard_base_ = 0;
  Mutex mutex_;
  CondVar work_available_;
  CondVar all_idle_;
  std::deque<Task> queue_ PM_GUARDED_BY(mutex_);
  std::size_t in_flight_ PM_GUARDED_BY(mutex_) = 0;  // queued or running
  bool shutting_down_ PM_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace paramount
