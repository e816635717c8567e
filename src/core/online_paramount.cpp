#include "core/online_paramount.hpp"

#include <deque>

namespace paramount {

namespace {

// The Inserted scratch of submit(), one per nesting depth on a thread: a
// visitor running inside submit() may submit to another driver, and that
// inner insert must not overwrite the Inserted the outer interval is still
// enumerating. A deque keeps outer slots in place while a deeper one is
// added, and each slot, once used, is reused with no allocation.
struct SubmitScratch {
  std::deque<OnlinePoset::Inserted> slots;
  std::size_t depth = 0;
};

thread_local SubmitScratch submit_scratch;

// Claims the calling thread's slot at the current depth for one submit().
class ScratchSlot {
 public:
  ScratchSlot() {
    if (submit_scratch.slots.size() == submit_scratch.depth) {
      submit_scratch.slots.emplace_back();
    }
    ins_ = &submit_scratch.slots[submit_scratch.depth++];
  }
  ~ScratchSlot() { --submit_scratch.depth; }
  ScratchSlot(const ScratchSlot&) = delete;
  ScratchSlot& operator=(const ScratchSlot&) = delete;

  OnlinePoset::Inserted& get() const { return *ins_; }

 private:
  OnlinePoset::Inserted* ins_ = nullptr;
};

}  // namespace

OnlineParamount::OnlineParamount(std::size_t num_threads, Options options,
                                 IntervalStateVisitor visit)
    : poset_(num_threads),
      options_(options),
      pool_shard_base_(options_.single_submitter ? 1 : num_threads),
      visit_(std::move(visit)) {
  PM_CHECK(visit_ != nullptr);
  obs::Telemetry* const tel = options_.telemetry;
  PM_CHECK_MSG(tel == nullptr || tel->num_shards() >=
                                     pool_shard_base_ + options_.async_workers,
               "online telemetry needs a shard per program thread (one with "
               "single_submitter) plus one per async worker");
  if (options_.async_workers > 0) {
    // Pool workers report on shards above the submitting side's so every
    // shard keeps a single writer (see Options::telemetry).
    pool_ = std::make_unique<ThreadPool>(options_.async_workers, tel,
                                         pool_shard_base_);
  }
}

OnlineParamount::~OnlineParamount() {
  if (pool_ != nullptr) pool_->wait_idle();
}

EventId OnlineParamount::submit(ThreadId tid, OpKind kind,
                                std::uint32_t object,
                                const VectorClock& clock) {
  EventId id;
  poset_.check_insert(try_submit(tid, kind, object, clock, &id), tid, clock);
  return id;
}

ClockVerdict OnlineParamount::try_submit(ThreadId tid, OpKind kind,
                                         std::uint32_t object,
                                         const VectorClock& clock,
                                         EventId* id) {
  obs::Telemetry* const tel = options_.telemetry;
  const std::size_t shard = options_.single_submitter ? 0 : tid;
  // Decided before the insert, whose first clock read starts a timed
  // event's gbnd_ns and event_to_done_ns. An untimed event reads no clock.
  const bool timed = tel != nullptr && tel->time_next_event(shard);
  const std::uint64_t insert_ns = timed ? tel->tracer().now_ns() : 0;
  // Reused by every submit at this depth on this thread: the insert core
  // copies a multi-state box's Gbnd into its buffer, which stops allocating
  // after the first, and leaves its Gmin alone (Gmin is `clock`). Only its
  // contents between this insert and the hand-off below matter.
  const ScratchSlot slot;
  OnlinePoset::Inserted& ins = slot.get();
  const ClockVerdict verdict =
      poset_.try_append(tid, kind, object, clock, &ins);
  if (verdict != ClockVerdict::kOk) return verdict;
  if (id != nullptr) *id = ins.id;
  Stamps stamps{insert_ns, 0};
  if (tel != nullptr) tel->metrics().add(tel->claims, shard);
  if (timed) {
    // The insert is Algorithm 4's atomic block: it appends to →p and
    // snapshots the maximal frontier (Gbnd).
    stamps.start_ns = tel->tracer().now_ns();
    tel->metrics().observe(tel->gbnd_ns, shard, stamps.start_ns - insert_ns,
                           obs::Telemetry::kTimedEventEvery);
    tel->tracer().record(shard, "gbnd_snapshot", "online", insert_ns,
                         stamps.start_ns - insert_ns);
  }
  // Gmin == Gbnd: the event causally follows every event inserted before it,
  // so its box holds the single state Gmin. Visiting that one state costs
  // less than the hand-off (a task allocation, two queue locks and a wake on
  // another CPU), so only multi-state boxes go to the pool.
  if (pool_ != nullptr && !ins.one_state) {
    // The task outlives this submit, so it takes its own copies of both
    // bounds and, under a window policy, pins its Gmin while its event is
    // still its thread's newest. The pin slot travels with the task.
    const std::uint32_t pin = options_.window_policy.enabled()
                                  ? poset_.pin_newest(ins.id)
                                  : OnlinePoset::kNoPin;
    pool_->submit([this, tel, ins = ins, gmin = clock, pin, timed,
                   stamps]() mutable {
      // While this guard lives, collect() cannot advance the watermark
      // past gmin, so every index inside [Gmin, Gbnd] stays resident.
      OnlinePoset::EnumGuard guard(&poset_, pin);
      // A timed interval's own timing starts here, after its queue wait,
      // which the pool times for every task.
      if (timed) stamps.start_ns = tel->tracer().now_ns();
      enumerate_interval(
          ins, gmin, pool_shard_base_ + ThreadPool::current_worker_index(),
          timed ? &stamps : nullptr);
      // Release the pin before announcing completion: once the callback
      // fires, the interval no longer holds any storage against
      // reclamation, so a collect() triggered by the listener sees the
      // watermark it expects.
      guard.release();
      if (options_.interval_done) options_.interval_done(ins.id);
    });
  } else {
    // A timed interval enumerated here is timed from the moment its Gbnd
    // snapshot ended: one clock read closes the one span and opens the
    // other. Its box is [clock, Gbnd], and it takes no pin: its event is
    // its thread's newest until this submit returns, so the clock floor
    // alone keeps the box resident. That rests on the one-at-a-time rule,
    // so check that no other submit of this thread slipped in.
    enumerate_interval(ins, clock, shard, timed ? &stamps : nullptr);
    PM_CHECK_MSG(poset_.num_events(tid) == ins.id.index,
                 "events of one program thread must be submitted one at a "
                 "time");
    if (options_.interval_done) options_.interval_done(ins.id);
  }
  maybe_collect();
  return ClockVerdict::kOk;
}

void OnlineParamount::drain() {
  if (pool_ != nullptr) pool_->wait_idle();
}

OnlinePoset::CollectStats OnlineParamount::collect() {
  const OnlinePoset::CollectStats stats = poset_.collect();
  obs::Telemetry* const tel = options_.telemetry;
  if (tel != nullptr) {
    // Poset-wide gauges: gauge totals sum over shards, so write shard 0 only.
    // Concurrent collectors race on the same cell; the store is a relaxed
    // atomic and both values are fresh, so last-writer-wins is fine.
    tel->metrics().set(tel->poset_resident_bytes, 0, stats.resident_bytes);
    tel->metrics().set(tel->poset_reclaimed_events, 0,
                       poset_.reclaimed_events());
  }
  return stats;
}

void OnlineParamount::maybe_collect() {
  const WindowPolicy& wp = options_.window_policy;
  if (!wp.enabled()) return;
  bool due = false;
  if (wp.gc_every > 0) {
    // relaxed: GC cadence heuristic — racing submitters may slightly over-
    // or under-shoot gc_every, which shifts *when* a pass runs, never
    // whether reclamation is correct (collect() re-derives the watermark).
    const std::uint64_t n =
        inserts_since_gc_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n >= wp.gc_every) {
      inserts_since_gc_.store(0, std::memory_order_relaxed);
      due = true;
    }
  }
  if (!due && wp.window_bytes > 0 && poset_.heap_bytes() > wp.window_bytes) {
    due = true;
  }
  if (due) collect();
}

void OnlineParamount::enumerate_interval(const OnlinePoset::Inserted& ins,
                                         const Frontier& gmin,
                                         std::size_t shard,
                                         const Stamps* stamps) {
  obs::Telemetry* const tel = options_.telemetry;
  std::uint64_t states = 0;
  // The empty state {0,…,0} belongs to the interval of the first event in
  // the insertion order →p (Figure 6a).
  if (ins.first) {
    visit_(poset_, ins.id, poset_.empty_frontier());
    ++states;
  }
  if (ins.one_state) {
    // The box [Gmin, Gmin]: every subroutine would visit Gmin alone.
    visit_(poset_, ins.id, gmin);
    ++states;
  } else {
    // The lambda is compiled into the subroutine; visit_ remains one
    // std::function call per state.
    states += enumerate_box(options_.subroutine, poset_, gmin, ins.gbnd,
                            [&](const Frontier& state) {
                              visit_(poset_, ins.id, state);
                            })
                  .states;
  }
  // relaxed: monotone statistics counters; the final reads happen after
  // drain()/destruction, which order all contributions.
  states_.fetch_add(states, std::memory_order_relaxed);
  intervals_.fetch_add(1, std::memory_order_relaxed);
  if (tel != nullptr) {
    tel->metrics().add(tel->states, shard, states);
    tel->metrics().add(tel->intervals, shard);
    tel->metrics().observe(tel->interval_states, shard, states);
  }
  if (stamps != nullptr) {
    // The interval's end read also ends its event's event_to_done_ns.
    constexpr std::uint64_t kWeight = obs::Telemetry::kTimedEventEvery;
    const std::uint64_t end_ns = tel->tracer().now_ns();
    tel->tracer().record(shard, "interval", "enumerate", stamps->start_ns,
                         end_ns - stamps->start_ns, "states", states);
    tel->metrics().observe(tel->interval_ns, shard, end_ns - stamps->start_ns,
                           kWeight);
    tel->metrics().observe(tel->event_to_done_ns, shard,
                           end_ns - stamps->insert_ns, kWeight);
  }
}

}  // namespace paramount
