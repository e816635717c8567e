#include "util/thread_pool.hpp"

#include "util/check.hpp"

namespace paramount {

namespace {
thread_local std::size_t tls_pool_worker_index = ThreadPool::npos;
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads, obs::Telemetry* telemetry,
                       std::size_t shard_base)
    : telemetry_(telemetry), shard_base_(shard_base) {
  PM_CHECK(num_threads > 0);
  PM_CHECK_MSG(telemetry == nullptr ||
                   telemetry->num_shards() >= shard_base + num_threads,
               "telemetry needs one shard per pool worker");
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock guard(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::size_t ThreadPool::current_worker_index() {
  return tls_pool_worker_index;
}

void ThreadPool::sample_queue_depth() {
  // Written under mutex_, so the gauge's one cell has one writer at a time
  // and always holds the depth after the latest push or pop.
  if (telemetry_ != nullptr) {
    telemetry_->metrics().set(telemetry_->queue_depth, shard_base_,
                              queue_.size());
  }
}

void ThreadPool::submit(std::function<void()> task) {
  Task entry{std::move(task), 0};
  if (telemetry_ != nullptr) {
    entry.enqueue_ns = telemetry_->tracer().now_ns();
  }
  {
    MutexLock guard(mutex_);
    PM_CHECK_MSG(!shutting_down_, "submit after shutdown");
    queue_.push_back(std::move(entry));
    ++in_flight_;
    sample_queue_depth();
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  MutexLock lock(mutex_);
  while (in_flight_ != 0) all_idle_.wait(mutex_);
}

bool ThreadPool::next_task(Task& out, bool finished_one) {
  MutexLock lock(mutex_);
  // Under the lock, so a wait_idle caller is either before its predicate
  // check (it will see zero) or inside its wait (it will get the notify).
  if (finished_one && --in_flight_ == 0) all_idle_.notify_all();
  while (queue_.empty()) {
    if (shutting_down_) return false;
    work_available_.wait(mutex_);
  }
  out = std::move(queue_.front());
  queue_.pop_front();
  sample_queue_depth();
  return true;
}

void ThreadPool::run_task(Task& task, std::size_t worker_index) {
  if (telemetry_ != nullptr) {
    const std::size_t shard = shard_base_ + worker_index;
    const std::uint64_t start = telemetry_->tracer().now_ns();
    telemetry_->metrics().observe(telemetry_->queue_wait_ns, shard,
                                  start - task.enqueue_ns);
    telemetry_->metrics().add(telemetry_->pool_tasks, shard);
    task.fn();
    telemetry_->tracer().record(shard, "task", "pool", start,
                                telemetry_->tracer().now_ns() - start);
  } else {
    task.fn();
  }
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  tls_pool_worker_index = worker_index;
  bool finished_one = false;
  while (true) {
    // Scoped to one iteration: a task's captures are destroyed before the
    // next next_task() counts it finished, so wait_idle() never returns
    // while they are still alive.
    Task task;
    if (!next_task(task, finished_one)) return;
    run_task(task, worker_index);
    finished_one = true;
  }
}

}  // namespace paramount
