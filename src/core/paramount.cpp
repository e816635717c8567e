#include "core/paramount.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "util/sync.hpp"
#include "util/timer.hpp"
#include "util/work_stealing.hpp"

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

// One work acquisition (deque pop or steal): the claims counter plus the
// queue-wait histogram. `seek_ns` is when the work was first sought or
// became claimable, so the wait covers both lock latency and any time the
// item spent parked in a deque.
void record_claim(obs::Telemetry* tel, std::size_t worker,
                  std::uint64_t seek_ns, const char* arg_name,
                  std::uint64_t arg_value) {
  if (tel == nullptr) return;
  const std::uint64_t got_ns = tel->tracer().now_ns();
  tel->metrics().add(tel->claims, worker);
  tel->metrics().observe(tel->queue_wait_ns, worker, got_ns - seek_ns);
  tel->tracer().record(worker, "claim", "queue", seek_ns, got_ns - seek_ns,
                       arg_name, arg_value);
}

// Outcome of one steal sweep: failed probes always count toward
// pool.steal_fail; a successful sweep also bumps pool.steals and emits a
// "steal" span covering the whole sweep.
void record_steal(obs::Telemetry* tel, std::size_t worker,
                  std::uint64_t sweep_start_ns, bool success,
                  std::uint64_t failed_probes) {
  if (tel == nullptr) return;
  if (failed_probes > 0) {
    tel->metrics().add(tel->steal_fail, worker, failed_probes);
  }
  if (success) {
    tel->metrics().add(tel->steals, worker);
    tel->tracer().record(worker, "steal", "queue", sweep_start_ns,
                         tel->tracer().now_ns() - sweep_start_ns,
                         "failed_probes", failed_probes);
  }
}

// Refreshes the live pool.queue_depth gauge for one worker's deque after a
// claim or a refill (the ThreadPool samples its queues the same way).
template <typename Scheduler>
void sample_queue_depth(obs::Telemetry* tel, const Scheduler& scheduler,
                        std::size_t worker) {
  if (tel == nullptr) return;
  tel->metrics().set(tel->queue_depth, worker, scheduler.size_approx(worker));
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
  if (options.collect_interval_stats) {
    result.interval_stats.resize(order.size());
  }

  struct Claimed {
    std::size_t index = 0;
    EventId id;
    Frontier gbnd;
    // Tracer timestamp of the seek that claimed this event from the cursor
    // (0 when telemetry is off). queue_wait_ns measures from here to the
    // start of processing, so work that sits in a deque shows up as wait.
    std::uint64_t ready_ns = 0;
  };

  std::atomic<std::uint64_t> total_states{0};
  std::atomic<bool> abort_flag{false};
  Mutex error_mutex;
  std::exception_ptr first_error;

  // The cursor walks →p from its end. `running` is the frontier of the
  // events before the cursor, so it starts full, and claiming event k
  // snapshots Gbnd(k) = running and then retreats past k. →p is a linear
  // extension, so k is the last event of its thread in that prefix and the
  // retreat is running[tid] = index - 1. Gbnd grows along →p, so the
  // largest boxes tend to come first. Every Claimed lives in `pool`;
  // processed claims come back through `spare`, and a recycled claim's gbnd
  // keeps its capacity.
  Mutex cursor_mutex;
  // Guarded by cursor_mutex:
  std::size_t cursor = order.size();
  Frontier running = poset.full_frontier();
  std::vector<std::unique_ptr<Claimed>> pool;
  std::vector<Claimed*> spare;

  const std::size_t chunk = std::max<std::size_t>(options.chunk_size, 1);

  auto process_item = [&](const Claimed& claimed, std::size_t worker_index) {
    const Frontier& gmin = poset.vc(claimed.id.tid, claimed.id.index);
    WallTimer timer;
    const std::uint64_t start_ns = tel != nullptr ? tel->tracer().now_ns() : 0;
    std::uint64_t states = 0;
    // The empty state {0,…,0} belongs to no interval; the paper assigns it
    // to the first event of →p (Figure 6a).
    if (claimed.index == 0) states += enumerate(empty, empty).states;
    states += enumerate(gmin, claimed.gbnd).states;
    // relaxed: monotone counter; the final load happens after the workers
    // join, which orders every contribution.
    total_states.fetch_add(states, std::memory_order_relaxed);
    record_interval(tel, worker_index, start_ns, states);
    if (options.collect_interval_stats) {
      result.interval_stats[claimed.index] =
          IntervalStat{claimed.id, states, timer.elapsed_ns()};
    }
  };

  auto fail = [&](std::exception_ptr error) {
    MutexLock guard(error_mutex);
    if (!first_error) first_error = std::move(error);
    // relaxed: advisory stop flag — a worker that misses it only processes
    // one more interval; the error itself is published under error_mutex.
    abort_flag.store(true, std::memory_order_relaxed);
  };

  // The paper's atomic block (advance the cursor, snapshot the running Gbnd
  // frontier) runs under the cursor lock, which also queues the claimed
  // batch in the claimer's own deque; a worker revisits the lock once per
  // `chunk` events and idle workers pull from their siblings instead of
  // convoying on the mutex.
  WorkStealingScheduler<Claimed*> scheduler(options.num_workers, options.seed);
  auto worker = [&](std::size_t worker_index) {
    try {
      std::vector<Claimed*> batch;
      batch.reserve(chunk);
      // Processed claims, returned to `spare` at the next cursor visit or
      // once `chunk` of them wait.
      std::vector<Claimed*> done;
      done.reserve(chunk);
      auto give_back = [&] {
        spare.insert(spare.end(), done.begin(), done.end());
        done.clear();
      };
      bool cursor_exhausted = false;
      // relaxed: advisory stop flag, see fail().
      while (!abort_flag.load(std::memory_order_relaxed)) {
        const std::uint64_t seek_ns =
            tel != nullptr ? tel->tracer().now_ns() : 0;
        Claimed* item = nullptr;
        if (!scheduler.pop(worker_index, item)) {
          // Own deque dry: rescue a sibling's stranded claim before
          // admitting fresh events. A claimed event ages in a deque
          // behind a slow batch-mate, while an unclaimed event waits in
          // the cursor for free — so stealing first is what caps the
          // claim-to-start tail under skew.
          std::uint64_t failed_probes = 0;
          const bool stole =
              scheduler.steal(worker_index, item, &failed_probes);
          record_steal(tel, worker_index, seek_ns, stole, failed_probes);
          if (!stole) {
            // Nothing to steal: refill from the shared cursor.
            batch.clear();
            std::uint64_t acquired_ns = 0;
            std::uint64_t snapshot_done_ns = 0;
            {
              MutexLock guard(cursor_mutex);
              acquired_ns = tel != nullptr ? tel->tracer().now_ns() : 0;
              give_back();
              while (cursor > 0 && batch.size() < chunk) {
                if (spare.empty()) {
                  pool.push_back(std::make_unique<Claimed>());
                  spare.push_back(pool.back().get());
                }
                Claimed* const claimed = spare.back();
                spare.pop_back();
                claimed->index = --cursor;
                claimed->id = order[claimed->index];
                claimed->gbnd = running;
                claimed->ready_ns = seek_ns;
                running[claimed->id.tid] = claimed->id.index - 1;
                batch.push_back(claimed);
              }
              snapshot_done_ns = tel != nullptr ? tel->tracer().now_ns() : 0;
              // Queue the batch tail before the lock drops, so a sibling
              // that finds the cursor exhausted can no longer miss it.
              for (std::size_t k = 1; k < batch.size(); ++k) {
                scheduler.push(worker_index, batch[k]);
              }
            }
            if (batch.empty()) {
              // Cursor exhausted: every claimed tail is queued by now, and
              // nothing is pushed any more. Sweep once more before retiring
              // — the failed sweep above may predate the last claimer's
              // pushes — so no tail is left to its claimer alone. Zero
              // this worker's gauge so the exit doesn't leave a stale depth.
              if (!cursor_exhausted) {
                cursor_exhausted = true;
                continue;
              }
              sample_queue_depth(tel, scheduler, worker_index);
              return;
            }
            if (tel != nullptr) {
              tel->metrics().observe(tel->gbnd_ns, worker_index,
                                     snapshot_done_ns - acquired_ns);
              tel->tracer().record(worker_index, "gbnd_snapshot", "queue",
                                   acquired_ns, snapshot_done_ns - acquired_ns,
                                   "events", batch.size());
            }
            item = batch.front();
          }
        }
        sample_queue_depth(tel, scheduler, worker_index);
        // Waits are measured from the claiming seek, not this worker's:
        // a popped or stolen event has been sitting in a deque since its
        // batch was claimed, and that queueing delay is the point.
        record_claim(tel, worker_index, item->ready_ns, "event", item->index);
        process_item(*item, worker_index);
        if (done.size() == chunk) {
          MutexLock guard(cursor_mutex);
          give_back();
        }
        done.push_back(item);
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
