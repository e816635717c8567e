#include "core/paramount.hpp"

#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "util/check.hpp"
#include "util/sync.hpp"

namespace paramount {

namespace {

// Per-interval instrumentation: an "interval" span plus the states/intervals counters and both interval histograms.
void record_interval(obs::Telemetry* tel, std::size_t worker,
                     std::uint64_t start_ns, std::uint64_t states) {
  if (tel == nullptr) return;
  const std::uint64_t end_ns = tel->tracer().now_ns();
  tel->tracer().record(worker, "interval", "enumerate", start_ns,
                       end_ns - start_ns, "states", states);
  tel->metrics().add(tel->states, worker, states);
  tel->metrics().add(tel->intervals, worker);
  tel->metrics().observe(tel->interval_states, worker, states);
  tel->metrics().observe(tel->interval_ns, worker, end_ns - start_ns);
}

// One cursor claim: the Gbnd snapshot taken under the lock (a
// "gbnd_snapshot" span and the paramount.gbnd_ns histogram), then the claims
// counter, the queue-wait histogram and a "claim" span. `seek_ns` is when
// the worker went to the cursor, so the wait covers the lock latency.
void record_claim(obs::Telemetry* tel, std::size_t worker,
                  std::uint64_t seek_ns, std::uint64_t acquired_ns,
                  std::uint64_t snapshot_done_ns, std::size_t index) {
  if (tel == nullptr) return;
  tel->metrics().observe(tel->gbnd_ns, worker, snapshot_done_ns - acquired_ns);
  tel->tracer().record(worker, "gbnd_snapshot", "queue", acquired_ns,
                       snapshot_done_ns - acquired_ns, "events", 1);
  const std::uint64_t got_ns = tel->tracer().now_ns();
  tel->metrics().add(tel->claims, worker);
  tel->metrics().observe(tel->queue_wait_ns, worker, got_ns - seek_ns);
  tel->tracer().record(worker, "claim", "queue", seek_ns, got_ns - seek_ns,
                       "event", index);
}

// Runs `worker(index)` on num_workers threads, index 0 on the caller.
template <typename Worker>
void run_workers(std::size_t num_workers, const Worker& worker) {
  if (num_workers == 1) {
    worker(0);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(num_workers - 1);
  for (std::size_t w = 1; w < num_workers; ++w) threads.emplace_back(worker, w);
  worker(0);
  for (std::thread& t : threads) t.join();
}

}  // namespace

namespace detail {

ParamountResult run_paramount(const Poset& poset,
                              const std::vector<EventId>& order,
                              const ParamountOptions& options,
                              BoxEnumerator enumerate) {
  PM_CHECK(options.num_workers > 0);
  PM_CHECK_MSG(is_linear_extension(poset, order),
               "ParaMount requires a linear extension");
  obs::Telemetry* const tel = options.telemetry;
  PM_CHECK_MSG(tel == nullptr || tel->num_shards() >= options.num_workers,
               "telemetry needs one shard per ParaMount worker");
  ParamountResult result;
  const Frontier empty = poset.empty_frontier();

  if (order.empty()) {
    // An empty poset has exactly one consistent state: the empty frontier.
    result.states = enumerate(empty, empty).states;
    return result;
  }
  std::atomic<std::uint64_t> total_states{0};
  std::atomic<bool> abort_flag{false};
  Mutex error_mutex;
  std::exception_ptr first_error;

  // The cursor walks →p from its end. `running` is the frontier of the
  // events before the cursor, so it starts full, and claiming event k
  // snapshots Gbnd(k) = running and then retreats past k. →p is a linear
  // extension, so k is the last event of its thread in that prefix and the
  // retreat is running[tid] = index - 1. Gbnd grows along →p, so the
  // largest boxes tend to come first.
  Mutex cursor_mutex;
  // Guarded by cursor_mutex:
  std::size_t cursor = order.size();
  Frontier running = poset.full_frontier();

  auto fail = [&](std::exception_ptr error) {
    MutexLock guard(error_mutex);
    if (!first_error) first_error = std::move(error);
    // relaxed: advisory stop flag — a worker that misses it only processes
    // one more interval; the error itself is published under error_mutex.
    abort_flag.store(true, std::memory_order_relaxed);
  };

  // Algorithm 1's worker: the atomic block (take the next event of →p and
  // snapshot Gbnd) under the cursor lock, then that one event's interval.
  auto worker = [&](std::size_t worker_index) {
    try {
      // This worker's Gbnd. Each snapshot is copied into the same frontier,
      // which keeps its capacity, so a claim allocates nothing.
      Frontier gbnd;
      // relaxed: advisory stop flag, see fail().
      while (!abort_flag.load(std::memory_order_relaxed)) {
        const std::uint64_t seek_ns =
            tel != nullptr ? tel->tracer().now_ns() : 0;
        std::uint64_t acquired_ns = 0;
        std::uint64_t snapshot_done_ns = 0;
        std::size_t index = 0;
        {
          MutexLock guard(cursor_mutex);
          if (cursor == 0) return;
          acquired_ns = tel != nullptr ? tel->tracer().now_ns() : 0;
          index = --cursor;
          gbnd = running;
          running[order[index].tid] = order[index].index - 1;
          snapshot_done_ns = tel != nullptr ? tel->tracer().now_ns() : 0;
        }
        record_claim(tel, worker_index, seek_ns, acquired_ns,
                     snapshot_done_ns, index);

        const EventId id = order[index];
        const std::uint64_t start_ns =
            tel != nullptr ? tel->tracer().now_ns() : 0;
        std::uint64_t states = 0;
        // The empty state {0,…,0} belongs to no interval; the paper assigns
        // it to the first event of →p (Figure 6a).
        if (index == 0) states += enumerate(empty, empty).states;
        states += enumerate(poset.vc(id.tid, id.index), gbnd).states;
        // relaxed: monotone counter; the final load happens after the
        // workers join, which orders every contribution.
        total_states.fetch_add(states, std::memory_order_relaxed);
        record_interval(tel, worker_index, start_ns, states);
      }
    } catch (...) {
      fail(std::current_exception());
    }
  };
  run_workers(options.num_workers, worker);

  if (first_error) std::rethrow_exception(first_error);
  // relaxed: read after run_workers' joins, which order all contributions.
  result.states = total_states.load(std::memory_order_relaxed);
  if (options.meter != nullptr) {
    result.peak_bytes = options.meter->peak_bytes();
  }
  return result;
}

}  // namespace detail
}  // namespace paramount
