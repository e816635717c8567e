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

// Per-interval instrumentation shared by the offline drivers: an "interval"
// span plus the states/intervals counters and both interval histograms.
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
                              const std::vector<Interval>& intervals,
                              const ParamountOptions& options,
                              BoxEnumerator enumerate) {
  PM_CHECK(options.num_workers > 0);
  obs::Telemetry* const tel = options.telemetry;
  PM_CHECK_MSG(tel == nullptr || tel->num_shards() >= options.num_workers,
               "telemetry needs one shard per ParaMount worker");
  ParamountResult result;
  const Frontier empty = poset.empty_frontier();

  if (intervals.empty()) {
    // An empty poset has exactly one consistent state: the empty frontier.
    result.states = enumerate(empty, empty).states;
    return result;
  }
  if (options.collect_interval_stats) {
    result.interval_stats.resize(intervals.size());
  }

  std::atomic<std::uint64_t> total_states{0};
  std::atomic<bool> abort_flag{false};
  Mutex error_mutex;
  std::exception_ptr first_error;

  const std::size_t chunk = std::max<std::size_t>(options.chunk_size, 1);

  auto process_interval = [&](std::size_t i, std::size_t worker_index) {
    const Interval& iv = intervals[i];
    WallTimer timer;
    const std::uint64_t start_ns = tel != nullptr ? tel->tracer().now_ns() : 0;
    std::uint64_t states = 0;
    // The empty state {0,…,0} belongs to no interval; the paper assigns it
    // to the first event of →p (Figure 6a).
    if (i == 0) states += enumerate(empty, empty).states;
    states += enumerate(iv.gmin, iv.gbnd).states;
    // relaxed: monotone counter; the final load happens after the workers
    // join, which orders every contribution.
    total_states.fetch_add(states, std::memory_order_relaxed);
    record_interval(tel, worker_index, start_ns, states);
    if (options.collect_interval_stats) {
      result.interval_stats[i] = IntervalStat{iv.event, states,
                                              timer.elapsed_ns()};
    }
  };

  auto fail = [&](std::exception_ptr error) {
    MutexLock guard(error_mutex);
    if (!first_error) first_error = std::move(error);
    // relaxed: advisory stop flag — a worker that misses it only processes
    // one more interval; the error itself is published under error_mutex.
    abort_flag.store(true, std::memory_order_relaxed);
  };

  // The chunks are dealt round-robin into per-worker deques up front; each
  // worker drains its own deque and steals once empty. No shared claim
  // point — the deque owner's pop is uncontended.
  const std::size_t num_chunks = (intervals.size() + chunk - 1) / chunk;
  WorkStealingScheduler<std::size_t> scheduler(
      options.num_workers, options.seed,
      /*initial_capacity=*/num_chunks / options.num_workers + 1);
  for (std::size_t c = 0; c < num_chunks; ++c) {
    scheduler.push(c % options.num_workers, c * chunk);
  }

  auto worker = [&](std::size_t worker_index) {
    try {
      // relaxed: abort_flag is an advisory stop flag, see fail().
      while (!abort_flag.load(std::memory_order_relaxed)) {
        const std::uint64_t seek_ns =
            tel != nullptr ? tel->tracer().now_ns() : 0;
        std::size_t begin;
        if (!scheduler.pop(worker_index, begin)) {
          std::uint64_t failed_probes = 0;
          const bool stole =
              scheduler.steal(worker_index, begin, &failed_probes);
          record_steal(tel, worker_index, seek_ns, stole, failed_probes);
          // A failed sweep is definitive here: nothing is pushed after
          // the initial deal, and every deque's residue is drained by
          // its owner. Refresh the gauge on the way out so a deque that
          // thieves drained doesn't leave a stale depth behind.
          if (!stole) {
            sample_queue_depth(tel, scheduler, worker_index);
            return;
          }
        }
        record_claim(tel, worker_index, seek_ns, "first_interval", begin);
        sample_queue_depth(tel, scheduler, worker_index);
        const std::size_t end = std::min(begin + chunk, intervals.size());
        for (std::size_t i = begin; i < end; ++i) {
          // A sibling may have failed mid-chunk; don't run the rest of a
          // large chunk to completion against a doomed result.
          // relaxed: advisory stop flag, see fail().
          if (abort_flag.load(std::memory_order_relaxed)) return;
          process_interval(i, worker_index);
        }
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

ParamountResult run_paramount_streaming(const Poset& poset,
                                        const std::vector<EventId>& order,
                                        const ParamountOptions& options,
                                        BoxEnumerator enumerate) {
  PM_CHECK(options.num_workers > 0);
  PM_CHECK_MSG(is_linear_extension(poset, order),
               "streaming ParaMount requires a linear extension");
  obs::Telemetry* const tel = options.telemetry;
  PM_CHECK_MSG(tel == nullptr || tel->num_shards() >= options.num_workers,
               "telemetry needs one shard per ParaMount worker");
  ParamountResult result;
  const Frontier empty = poset.empty_frontier();

  if (order.empty()) {
    result.states = enumerate(empty, empty).states;
    return result;
  }
  if (options.collect_interval_stats) {
    result.interval_stats.resize(order.size());
  }

  std::atomic<std::uint64_t> total_states{0};
  Mutex cursor_mutex;
  std::size_t cursor = 0;
  Frontier running = empty;  // guarded by cursor_mutex
  std::atomic<bool> abort_flag{false};
  Mutex error_mutex;
  std::exception_ptr first_error;

  const std::size_t chunk = std::max<std::size_t>(options.chunk_size, 1);
  struct Claimed {
    std::size_t index;
    EventId id;
    Frontier gbnd;
    // Tracer timestamp of the seek that claimed this event from the cursor
    // (0 when telemetry is off). queue_wait_ns measures from here to the
    // start of processing, so work that sits in a deque shows up as wait.
    std::uint64_t ready_ns;
  };

  auto process_item = [&](const Claimed& claimed, std::size_t worker_index) {
    const Frontier gmin = poset.vc(claimed.id.tid, claimed.id.index);
    WallTimer timer;
    const std::uint64_t start_ns = tel != nullptr ? tel->tracer().now_ns() : 0;
    std::uint64_t states = 0;
    if (claimed.index == 0) states += enumerate(empty, empty).states;
    states += enumerate(gmin, claimed.gbnd).states;
    // relaxed: monotone counter, read after the joins; see the offline driver.
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
    // relaxed: advisory stop flag; the error is published under error_mutex.
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
              while (cursor < order.size() && batch.size() < chunk) {
                const std::size_t i = cursor++;
                const EventId id = order[i];
                running[id.tid] = id.index;
                batch.push_back(new Claimed{i, id, running, seek_ns});
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
        std::unique_ptr<Claimed> owned(item);
        // Waits are measured from the claiming seek, not this worker's:
        // a popped or stolen event has been sitting in a deque since its
        // batch was claimed, and that queueing delay is the point.
        record_claim(tel, worker_index, owned->ready_ns, "event", owned->index);
        process_item(*owned, worker_index);
      }
    } catch (...) {
      fail(std::current_exception());
    }
  };
  run_workers(options.num_workers, worker);

  // On an aborted run, unprocessed claims may still sit in the deques;
  // the workers have joined, so draining them single-threaded is safe.
  for (std::size_t w = 0; w < options.num_workers; ++w) {
    Claimed* leftover = nullptr;
    while (scheduler.pop(w, leftover)) delete leftover;
  }

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
