// pmbench — the measuring program of the ParaMount pipeline benchmark.
//
// perfbench/run.py drives it. Every measured run is one fresh pmbench
// process, so the peak RSS and set-up time a run reports belong to it alone.
//
//   pmbench gen --input=NAME --seed=S --dir=D
//       NAME is hot-var, hot-var-paced, hot-var-sample or convoy.
//       Generates the seed's event stream, computes the reference verdict
//       with a different driver than any measured run (inline online
//       ParaMount with the race predicate: one thread, no pool; the
//       offline hot-var input counts states only), cross-checks its state
//       count against the offline driver, and writes D/input.pmt and
//       D/ref.json. Nothing here is timed; run.py caches the directory per
//       seed.
//   pmbench run --workload=W --dir=D --spawn-ns=T [--socket=P]
//       One end-to-end run with tracing off. Prints one JSON object.
//   pmbench layers --workload=W --dir=D --trace-out=F [--socket=P]
//       The traced run: the real pipeline with spans around its top-level
//       calls (against untraced runs of the same pipeline), then
//       layer-isolation passes that feed the same input through one layer's
//       public functions at a time. Prints one JSON object of per-layer
//       metrics and writes every span to F.
//   pmbench selftest
//       Checks the reference path on small seeds against count_ideals and
//       detect_races_offline_bfs, which share no code with the ParaMount
//       drivers, and checks the measured drivers against the reference.
//
// Each layer is timed from outside, around calls to its public functions;
// the program under test carries no benchmark instrumentation.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/interval.hpp"
#include "core/online_paramount.hpp"
#include "core/paramount.hpp"
#include "detect/offline_bfs_detector.hpp"
#include "detect/online_detector.hpp"
#include "detect/race_predicate.hpp"
#include "obs/json_writer.hpp"
#include "obs/telemetry.hpp"
#include "poset/clock_validator.hpp"
#include "poset/lattice.hpp"
#include "poset/online_poset.hpp"
#include "poset/poset_builder.hpp"
#include "service/channel.hpp"
#include "service/epoll_server.hpp"
#include "service/frame.hpp"
#include "trace/replay.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"
#include "util/cli.hpp"
#include "workloads/scenarios/scenarios.hpp"

using namespace paramount;
using namespace paramount::service;

namespace {

// ---------------------------------------------------------------------------
// Inputs and workloads
// ---------------------------------------------------------------------------

// One generated input: the first max_events events of a scenario stream,
// or, with target_states set, the shortest prefix whose lattice holds that
// many states; or, with segments > 1, that many streams of
// max_events / segments events joined by all-thread barriers.
//
// One long hot-var stream is a poor sample: the lattice is dominated by a
// few huge intervals, so at 20k events it ranges over 9.2e7-1.26e8 states
// between seeds, and at a fixed state count the event count (hence memory)
// swings by ±20%. A sum of 64 short segments still spans 8.2e7-9.7e7 states
// over eight seeds. offline-hotvar therefore draws each segment from the
// hot-var scenario until its lattice is of typical size, which holds both
// counts steady.
struct InputSpec {
  const char* name;
  const char* scenario;
  std::size_t threads;
  std::uint64_t max_events;
  std::uint64_t target_states;  // 0 = keep all max_events events
  bool races;                   // the reference also runs the race predicate
  std::size_t segments = 1;
  std::uint64_t segment_lo = 0;  // accepted segment lattice sizes
  std::uint64_t segment_hi = 0;
};

// 64 segments of 312 events, each drawn until its lattice lies within
// about 15% of the median 312-event hot-var lattice (1.17e6 states; the
// quartiles are 8.4e5 and 1.56e6, the largest of 300 draws 7.2e6).
constexpr InputSpec kHotVar{"hot-var", "hot-var", 6, 20000, 0, false,
                            64, 1'000'000, 1'400'000};
// The paced workload replays one hot-var stream cut at 1.25e6 states: with
// the race predicate on, the pooled detector enumerates only about 2.5e6
// states/s on 4 cores, so the ~8e7-state offline input would not fit a run
// at half capacity.
constexpr InputSpec kHotVarPaced{"hot-var-paced", "hot-var", 6, 40000,
                                 1'250'000, true};
// offline-hotvar's traced run feeds its layer-isolation passes the first
// 8 of its 64 segments: the pooled passes with the predicate would take
// minutes on the full ~8e7-state input.
constexpr InputSpec kHotVarSample{"hot-var-sample", "hot-var", 6, 8 * 312, 0,
                                  true, 8, 1'000'000, 1'400'000};
constexpr InputSpec kConvoy{"convoy", "lock-convoy-64", 64, 60000, 0, true};

// Online runs reclaim the settled poset prefix every kGcEvery inserts.
constexpr std::uint64_t kGcEvery = 4096;
// online-hotvar-paced spreads its events evenly over this window. Every
// seed's paced input holds the same number of states, so the offered load
// is the same 1.25e6 states/s for every seed: about half the closed-loop
// capacity of the pooled detector with the race predicate on a 4-core host
// (1.25e6 states take 0.40-0.53 s closed loop).
constexpr double kPacedSeconds = 1.0;
// service-convoy polls once per kPollEvery events.
constexpr std::uint64_t kPollEvery = 500;
// Per-session submit budget of the in-process daemon.
constexpr std::size_t kSubmitBudgetBytes = std::size_t{1} << 20;

enum class Workload { kOfflineHotvar, kOnlinePaced, kIngestConvoy,
                      kServiceConvoy };

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "offline-hotvar") return Workload::kOfflineHotvar;
  if (name == "online-hotvar-paced") return Workload::kOnlinePaced;
  if (name == "ingest-convoy") return Workload::kIngestConvoy;
  if (name == "service-convoy") return Workload::kServiceConvoy;
  return std::nullopt;
}

const InputSpec* parse_input(const std::string& name) {
  if (name == kHotVar.name) return &kHotVar;
  if (name == kHotVarPaced.name) return &kHotVarPaced;
  if (name == kHotVarSample.name) return &kHotVarSample;
  if (name == kConvoy.name) return &kConvoy;
  return nullptr;
}

// CPUs this process may run on: the thread budget of every workload.
std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

// Worker counts that keep each workload's process within nproc() threads:
// offline uses the caller as worker 0; online adds one generator (or
// reader) thread; the service adds the client thread and the reactor.
// Zero pool workers means inline enumeration.
std::size_t offline_workers() { return nproc(); }
std::size_t online_workers() { return nproc() > 1 ? nproc() - 1 : 0; }
std::size_t service_workers() { return nproc() > 2 ? nproc() - 2 : 0; }

// ---------------------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------------------

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "pmbench: %s\n", message.c_str());
  std::exit(1);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

// One numeric field of /proc/self/status ("Threads:", "VmHWM:").
std::uint64_t proc_status(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtoull(line.c_str() + field.size(), nullptr, 10);
    }
  }
  return 0;
}

// Peak RSS of this process image. Not getrusage's ru_maxrss: that keeps the
// high-water mark of the process before exec, i.e. of whatever forked us.
double peak_rss_mb() {
  return static_cast<double>(proc_status("VmHWM:")) / 1024.0;
}

std::uint64_t thread_count() { return proc_status("Threads:"); }

// q-quantile by nearest rank of an unsorted sample; 0 when empty.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

AccessSet to_access_set(const std::vector<trace::TraceAccess>& accesses) {
  AccessSet set;
  for (const trace::TraceAccess& a : accesses) {
    set.merge(a.var, a.is_write, a.is_init);
  }
  return set;
}

std::vector<VarId> racy_vars(const RaceReport& report) {
  std::vector<VarId> vars;
  for (const RaceFinding& f : report.findings()) vars.push_back(f.var);
  return vars;  // findings() is sorted by variable
}

// ---------------------------------------------------------------------------
// Spans: the traced run's in-memory record of the benchmark's own calls
// ---------------------------------------------------------------------------

class Spans {
 public:
  struct Span {
    const char* name;
    std::int64_t parent;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };

  std::size_t begin(const char* name) {
    spans_.push_back(Span{name, open_, now_ns(), 0});
    open_ = static_cast<std::int64_t>(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void end(std::size_t id) {
    spans_[id].end_ns = now_ns();
    open_ = spans_[id].parent;
  }

  double seconds(std::size_t id) const {
    return static_cast<double>(spans_[id].end_ns - spans_[id].start_ns) * 1e-9;
  }

  // Duration minus the part covered by direct children.
  std::vector<double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = seconds(i);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        self[static_cast<std::size_t>(spans_[i].parent)] -= seconds(i);
      }
    }
    return self;
  }

  // One JSON object per line: id, parent, name, start, duration, self time.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<double> self = self_seconds();
    const std::uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"parent\":%" PRId64 ",\"name\":\"%s\","
                   "\"start_ns\":%" PRIu64 ",\"dur_ns\":%" PRIu64
                   ",\"self_ns\":%.0f}\n",
                   i, s.parent, s.name, s.start_ns - base,
                   s.end_ns - s.start_ns, self[i] * 1e9);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::int64_t open_ = -1;
};

// Scoped span; a no-op without a recorder (the untraced runs).
class Scope {
 public:
  Scope(Spans* spans, const char* name)
      : spans_(spans), id_(spans != nullptr ? spans->begin(name) : 0) {}
  ~Scope() {
    if (spans_ != nullptr) spans_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
  std::size_t id_;
};

// ---------------------------------------------------------------------------
// Loaded input
// ---------------------------------------------------------------------------

struct Reference {
  std::uint64_t events = 0;
  std::uint64_t states = 0;
  std::vector<VarId> racy_vars;
};

// Minimal reader for the ref.json this program writes itself.
Reference read_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot read " + path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto number_after = [&text, &path](const std::string& key) {
    const std::size_t at = text.find("\"" + key + "\":");
    if (at == std::string::npos) die(path + ": missing " + key);
    return std::strtoull(text.c_str() + at + key.size() + 3, nullptr, 10);
  };
  Reference ref;
  ref.events = number_after("events");
  ref.states = number_after("states");
  const std::size_t key = text.find("\"racy_vars\":");
  if (key == std::string::npos) return ref;  // computed without the predicate
  const std::size_t open = text.find('[', key);
  const std::size_t close = text.find(']', open);
  for (std::size_t p = open + 1; p < close;) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str() + p, &end, 10);
    if (end == text.c_str() + p) {
      ++p;
      continue;
    }
    ref.racy_vars.push_back(static_cast<VarId>(v));
    p = static_cast<std::size_t>(end - text.c_str());
  }
  return ref;
}

// Every event of a trace, decoded up front (untimed), plus the collection
// access table the detectors read.
struct Decoded {
  std::size_t threads = 0;
  std::vector<trace::TraceEvent> events;
  std::unique_ptr<AccessTable> table;
};

Decoded decode_all(const trace::TraceReader& reader) {
  Decoded d;
  d.threads = reader.num_threads();
  d.table = std::make_unique<AccessTable>(d.threads);
  d.events.reserve(reader.total_events());
  trace::TraceCursor cursor = reader.cursor();
  trace::TraceError error;
  trace::TraceEvent ev;
  while (true) {
    const trace::TraceCursor::Status status = cursor.next(&ev, &error);
    if (status == trace::TraceCursor::Status::kError) die(error.to_string());
    if (status == trace::TraceCursor::Status::kEnd) break;
    if (ev.kind == OpKind::kCollection) {
      const std::uint32_t index =
          d.table->append(ev.tid, to_access_set(ev.accesses));
      if (index != ev.object) {
        die("collection object is not its access-set index");
      }
    }
    d.events.push_back(std::move(ev));
  }
  return d;
}

// Per-thread event index -> position in the trace.
std::vector<std::vector<std::uint32_t>> sequence_map(const Decoded& d) {
  std::vector<std::vector<std::uint32_t>> seq(d.threads);
  for (std::size_t i = 0; i < d.events.size(); ++i) {
    seq[d.events[i].tid].push_back(static_cast<std::uint32_t>(i));
  }
  return seq;
}

// v2 Event frame payloads of a decoded trace, delta-encoded per thread the
// way paramount-client sends them.
std::vector<std::vector<std::uint8_t>> encode_frames(const Decoded& d) {
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(d.events.size());
  std::vector<VectorClock> prev(d.threads, VectorClock(d.threads));
  for (const trace::TraceEvent& ev : d.events) {
    EventBody body;
    body.tid = ev.tid;
    body.kind = ev.kind;
    body.object = ev.object;
    for (std::size_t j = 0; j < ev.clock.size(); ++j) {
      if (ev.clock[j] != prev[ev.tid][j]) {
        body.delta.push_back({static_cast<std::uint32_t>(j), ev.clock[j]});
      }
    }
    prev[ev.tid] = ev.clock;
    for (const trace::TraceAccess& a : ev.accesses) {
      body.accesses.push_back(AccessRecord{a.var, a.is_write, a.is_init});
    }
    frames.push_back(encode_event(body));
  }
  return frames;
}

trace::TraceReader open_trace(const std::string& path) {
  trace::TraceReader reader;
  trace::TraceError error;
  if (!reader.open(path, &error)) die(path + ": " + error.to_string());
  return reader;
}

// ---------------------------------------------------------------------------
// Reference (gen) and selftest
// ---------------------------------------------------------------------------

struct Generated {
  std::vector<trace::TraceEvent> events;  // the kept prefix
  Reference ref;
};

Poset build_poset(const std::vector<trace::TraceEvent>& events,
                  std::size_t threads) {
  PosetBuilder builder(threads);
  for (const trace::TraceEvent& ev : events) {
    builder.add_event_with_clock(ev.tid, ev.kind, ev.object, ev.clock);
  }
  return std::move(builder).build();
}

std::uint64_t offline_count(const Poset& poset, std::size_t workers) {
  ParamountOptions options;
  options.num_workers = workers;
  return enumerate_paramount(poset, options, [](const Frontier&) {}).states;
}

std::vector<trace::TraceEvent> scenario_events(const InputSpec& spec,
                                               std::uint64_t seed,
                                               std::uint64_t events) {
  std::unique_ptr<ScenarioStream> stream =
      make_scenario(spec.scenario, ScenarioParams{spec.threads, events, seed});
  if (stream == nullptr) die(std::string("unknown scenario ") + spec.scenario);
  std::vector<trace::TraceEvent> out;
  trace::TraceEvent ev;
  while (stream->next(&ev)) out.push_back(std::move(ev));
  return out;
}

// Segment k of a segmented input: the first draw, in a seeded sequence of
// streams, whose own lattice size lies in the spec's window.
std::vector<trace::TraceEvent> draw_segment(const InputSpec& spec,
                                            std::uint64_t seed, std::size_t k) {
  for (std::uint64_t draw = 0; draw < 10'000; ++draw) {
    const std::uint64_t s =
        (seed * 0x9E3779B97F4A7C15ULL + k) * 0xBF58476D1CE4E5B9ULL + draw;
    std::vector<trace::TraceEvent> events =
        scenario_events(spec, s, spec.max_events / spec.segments);
    const std::uint64_t states =
        offline_count(build_poset(events, spec.threads), offline_workers());
    if (states >= spec.segment_lo && states <= spec.segment_hi) return events;
  }
  die("no segment lattice fell in the window");
}

// Builds the input and its reference with inline online ParaMount (see
// InputSpec): one stream cut at max_events events or at the first event
// whose prefix lattice reaches target_states, or segments joined by
// barriers.
Generated generate(const InputSpec& spec, std::uint64_t seed,
                   std::uint64_t max_events, std::uint64_t target_states) {
  const std::size_t threads = spec.threads;
  // Inline: the submitting thread enumerates each interval before submit()
  // returns, so states_enumerated() is the lattice size of the prefix.
  AccessTable table(threads);
  RaceReport report;
  OnlineParamount driver(
      threads, OnlineParamount::Options{},
      [&spec, &table, &report](const OnlinePoset& poset, EventId owner,
                               const Frontier& state) {
        if (spec.races) check_races(poset, table, owner, state, report);
      });
  Generated out;
  std::vector<EventIndex> published(threads, 0);
  std::vector<std::uint32_t> collections(threads, 0);
  const auto emit = [&](trace::TraceEvent ev) {
    if (ev.kind == OpKind::kCollection) {
      ev.object = collections[ev.tid]++;
      table.append(ev.tid, to_access_set(ev.accesses));
    }
    driver.submit(ev.tid, ev.kind, ev.object, ev.clock);
    ++published[ev.tid];
    out.events.push_back(std::move(ev));
  };

  if (spec.segments == 1) {
    std::unique_ptr<ScenarioStream> stream = make_scenario(
        spec.scenario, ScenarioParams{threads, max_events, seed});
    if (stream == nullptr) {
      die(std::string("unknown scenario ") + spec.scenario);
    }
    trace::TraceEvent ev;
    bool reached = target_states == 0;
    while (stream->next(&ev)) {
      emit(std::move(ev));
      if (target_states != 0 && driver.states_enumerated() >= target_states) {
        reached = true;
        break;
      }
    }
    if (!reached) die("the stream ended before reaching the state target");
  } else {
    for (std::size_t k = 0; k < spec.segments; ++k) {
      // Each thread's barrier event follows every event published so far.
      const std::vector<EventIndex> before = published;
      if (k > 0) {
        for (ThreadId t = 0; t < threads; ++t) {
          trace::TraceEvent barrier;
          barrier.tid = t;
          barrier.kind = OpKind::kReceive;
          barrier.object = static_cast<std::uint32_t>(k);
          barrier.clock = VectorClock(threads);
          for (ThreadId j = 0; j < threads; ++j) barrier.clock[j] = before[j];
          barrier.clock[t] = before[t] + 1;
          emit(std::move(barrier));
        }
      }
      // A segment event's clock is its stream clock shifted past the
      // barrier; components it has not heard of stay at the barrier's.
      const std::vector<EventIndex> after = published;
      for (trace::TraceEvent& ev : draw_segment(spec, seed, k)) {
        for (ThreadId j = 0; j < threads; ++j) {
          ev.clock[j] = ev.clock[j] == 0 ? before[j] : after[j] + ev.clock[j];
        }
        emit(std::move(ev));
      }
    }
  }
  out.ref.events = out.events.size();
  out.ref.states = driver.states_enumerated();
  out.ref.racy_vars = racy_vars(report);
  return out;
}

int cmd_gen(int argc, char** argv) {
  CliFlags flags("pmbench gen — generate one seed's input and reference");
  flags.add_string("input", "hot-var",
                   "hot-var | hot-var-paced | hot-var-sample | convoy");
  flags.add_int("seed", 1, "scenario seed");
  flags.add_string("dir", "", "output directory (must exist)");
  if (!flags.parse(argc, argv)) return 0;
  const InputSpec* spec = parse_input(flags.get_string("input"));
  if (spec == nullptr) die("unknown --input " + flags.get_string("input"));
  const auto seed = static_cast<std::uint64_t>(flags.get_int_in_range(
      "seed", 0, std::numeric_limits<std::int64_t>::max()));
  const std::string dir = flags.get_string("dir");

  const Generated gen =
      generate(*spec, seed, spec->max_events, spec->target_states);
  const std::size_t threads = gen.events.front().clock.size();

  // The offline driver is the reference for the online one: both must see
  // the same lattice before any run is checked against it.
  const std::uint64_t offline =
      offline_count(build_poset(gen.events, threads), offline_workers());
  if (offline != gen.ref.states) {
    die("reference mismatch: inline online " + std::to_string(gen.ref.states) +
        " states, offline " + std::to_string(offline));
  }

  const std::string trace_path = dir + "/input.pmt";
  trace::TraceWriter writer;
  trace::TraceError error;
  if (!writer.open(trace_path, threads, {}, &error)) die(error.to_string());
  for (const trace::TraceEvent& ev : gen.events) writer.append(ev);
  if (!writer.finish(&error)) die(error.to_string());

  obs::JsonWriter w;
  w.begin_object();
  w.key("input").value(spec->name);
  w.key("scenario").value(spec->scenario);
  w.key("seed").value(seed);
  w.key("threads").value(static_cast<std::uint64_t>(threads));
  w.key("target_states").value(spec->target_states);
  w.key("events").value(gen.ref.events);
  w.key("states").value(gen.ref.states);
  w.key("trace_bytes").value(writer.bytes_written());
  if (spec->races) {
    w.key("racy_vars").begin_array();
    for (const VarId v : gen.ref.racy_vars) {
      w.value(static_cast<std::uint64_t>(v));
    }
    w.end_array();
  }
  w.end_object();
  std::ofstream out(dir + "/ref.json");
  out << std::move(w).take() << "\n";
  if (!out) die("cannot write " + dir + "/ref.json");
  return 0;
}

int cmd_selftest(int argc, char** argv) {
  CliFlags flags(
      "pmbench selftest — check the reference path on small seeds");
  if (!flags.parse(argc, argv)) return 0;
  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
      ++failures;
    }
  };
  struct Case {
    const InputSpec* spec;
    std::uint64_t events;
  };
  // Four 16-event hot-var segments joined by barriers, any lattice size.
  constexpr InputSpec kSegmented{
      "segmented", "hot-var", 6, 4 * 16, 0, true,
      4,           1,         std::numeric_limits<std::uint64_t>::max()};
  for (const Case c : {Case{&kHotVarPaced, 70}, Case{&kConvoy, 400},
                       Case{&kSegmented, kSegmented.max_events}}) {
    for (std::uint64_t seed : {3, 11, 29}) {
      const std::string tag =
          std::string(c.spec->name) + " seed " + std::to_string(seed);
      const Generated gen = generate(*c.spec, seed, c.events, 0);
      const std::size_t threads = gen.events.front().clock.size();
      const Poset poset = build_poset(gen.events, threads);
      AccessTable table(threads);
      for (const trace::TraceEvent& ev : gen.events) {
        if (ev.kind == OpKind::kCollection) {
          table.append(ev.tid, to_access_set(ev.accesses));
        }
      }
      // Independent oracles: level-set BFS counting, and the offline BFS
      // detector with the all-pairs predicate.
      const std::optional<std::uint64_t> ideals = count_ideals(poset);
      check(ideals.has_value() && *ideals == gen.ref.states,
            tag + ": count_ideals vs inline reference");
      RaceReport offline_report;
      detect_races_offline_bfs(poset, table, offline_report);
      check(racy_vars(offline_report) == gen.ref.racy_vars,
            tag + ": detect_races_offline_bfs vs inline reference");
      // The measured drivers against the reference.
      check(offline_count(poset, offline_workers()) == gen.ref.states,
            tag + ": offline driver vs reference");
      OnlineRaceDetector::Options options;
      options.async_workers = online_workers();
      options.window_policy.gc_every = 64;
      OnlineRaceDetector pooled(threads, options);
      pooled.attach(table);
      for (const trace::TraceEvent& ev : gen.events) {
        pooled.on_event(ev.tid, ev.kind, ev.object, ev.clock);
      }
      pooled.drain();
      check(pooled.states_enumerated() == gen.ref.states,
            tag + ": pooled online driver vs reference");
      check(racy_vars(pooled.report()) == gen.ref.racy_vars,
            tag + ": pooled online race set vs reference");
      check(pooled.poset().outstanding_pins() == 0,
            tag + ": pooled online driver leaked pins");
    }
  }
  // The hot-var cut: a prefix's inline count is the lattice of that prefix.
  const Generated cut = generate(kHotVarPaced, 5, 2000, 5000);
  check(count_ideals(build_poset(cut.events, kHotVarPaced.threads)) ==
            cut.ref.states,
        "hot-var prefix cut: count_ideals vs inline count at the cut");
  check(cut.ref.states >= 5000, "hot-var prefix cut reaches its target");
  if (failures == 0) std::printf("selftest: ok\n");
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// End-to-end pipelines
// ---------------------------------------------------------------------------

struct RunResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t setup_end_ns = 0;   // pipeline ready for its first event
  std::uint64_t prep_ns = 0;        // untimed input preparation inside setup
  std::uint64_t threads = 0;        // live threads under load
  std::uint64_t attempted = 0;      // events offered
  std::uint64_t errors = 0;         // typed / protocol / transport errors
  std::uint64_t states = 0;
  bool has_racy = false;
  std::vector<VarId> racy;
  std::uint64_t outstanding_pins = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t submit_stalls = 0;
  std::vector<double> verdict_us;   // paced: scheduled send -> interval_done
  std::uint64_t verdict_missing = 0;
  std::vector<double> gen_late_us;  // paced: how late each send started
  std::vector<double> poll_rtt_us;  // service: Poll -> Stats
  double rate_events_per_s = 0.0;   // paced: the arrival rate
};

void finish_run(RunResult* r, std::uint64_t wall_start_ns) {
  r->wall_s = seconds_since(wall_start_ns);
  r->cpu_s = cpu_seconds();
  r->peak_rss_mb = peak_rss_mb();
}

RunResult run_offline(const std::string& trace_path, Spans* spans) {
  RunResult r;
  trace::TraceReader reader;
  {
    Scope s(spans, "trace.open");
    reader = open_trace(trace_path);
  }
  ParamountOptions options;
  options.num_workers = offline_workers();
  r.threads = options.num_workers;  // the caller is worker 0
  r.attempted = reader.total_events();
  const std::uint64_t start = now_ns();
  r.setup_end_ns = start;
  Poset poset{0};
  trace::TraceError error;
  bool ok = false;
  {
    Scope s(spans, "trace+poset.replay_to_poset");
    ok = trace::replay_to_poset(reader, &poset, nullptr, &error);
  }
  if (!ok) {
    r.errors = r.attempted;
    finish_run(&r, start);
    return r;
  }
  ParamountResult result;
  {
    Scope s(spans, "core.enumerate_paramount");
    result = enumerate_paramount(poset, options, [](const Frontier&) {});
  }
  finish_run(&r, start);
  r.states = result.states;
  return r;
}

RunResult run_paced(const std::string& trace_path, Spans* spans) {
  RunResult r;
  trace::TraceReader reader;
  {
    Scope s(spans, "trace.open");
    reader = open_trace(trace_path);
  }
  const std::uint64_t prep_start = now_ns();
  const Decoded d = decode_all(reader);
  const std::vector<std::vector<std::uint32_t>> seq = sequence_map(d);
  const std::size_t n = d.events.size();
  std::vector<std::atomic<std::uint64_t>> done(n);
  for (auto& slot : done) slot.store(0, std::memory_order_relaxed);
  r.prep_ns = now_ns() - prep_start;

  OnlineRaceDetector::Options options;
  options.async_workers = online_workers();
  options.window_policy.gc_every = kGcEvery;
  options.interval_done = [&done, &seq](EventId id) {
    // relaxed: read only after drain(), which orders every completion.
    done[seq[id.tid][id.index - 1]].store(now_ns(), std::memory_order_relaxed);
  };
  OnlineRaceDetector detector(d.threads, std::move(options));
  detector.attach(*d.table);
  r.attempted = n;

  const double period_ns = kPacedSeconds * 1e9 / static_cast<double>(n);
  r.rate_events_per_s = static_cast<double>(n) / kPacedSeconds;
  const std::uint64_t start = now_ns();
  r.setup_end_ns = start;
  std::vector<std::uint64_t> due(n);
  r.gen_late_us.reserve(n);
  {
    Scope s(spans, "generator");
    for (std::size_t i = 0; i < n; ++i) {
      due[i] = start + static_cast<std::uint64_t>(
                           static_cast<double>(i) * period_ns);
      std::uint64_t t = now_ns();
      while (t < due[i]) {
        std::this_thread::yield();
        t = now_ns();
      }
      r.gen_late_us.push_back(static_cast<double>(t - due[i]) * 1e-3);
      const trace::TraceEvent& ev = d.events[i];
      Scope e(spans, "detect.on_event");
      detector.on_event(ev.tid, ev.kind, ev.object, ev.clock);
    }
  }
  r.threads = thread_count();
  {
    Scope s(spans, "core.drain");
    detector.drain();
  }
  finish_run(&r, start);
  r.verdict_us.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t t = done[i].load(std::memory_order_relaxed);
    if (t == 0) {
      ++r.verdict_missing;
      r.verdict_us.push_back(std::numeric_limits<double>::infinity());
    } else {
      r.verdict_us.push_back(static_cast<double>(t - due[i]) * 1e-3);
    }
  }
  r.states = detector.states_enumerated();
  r.has_racy = true;
  r.racy = racy_vars(detector.report());
  r.outstanding_pins = detector.poset().outstanding_pins();
  return r;
}

RunResult run_ingest(const std::string& trace_path, Spans* spans) {
  RunResult r;
  trace::TraceReader reader;
  {
    Scope s(spans, "trace.open");
    reader = open_trace(trace_path);
  }
  const std::size_t threads = reader.num_threads();
  AccessTable table(threads);
  OnlineRaceDetector::Options options;
  options.async_workers = online_workers();
  options.window_policy.gc_every = kGcEvery;
  OnlineRaceDetector detector(threads, std::move(options));
  detector.attach(table);

  const std::uint64_t start = now_ns();
  r.setup_end_ns = start;
  trace::TraceCursor cursor = reader.cursor();
  trace::TraceError error;
  trace::TraceEvent ev;
  {
    Scope s(spans, "stream");
    while (true) {
      trace::TraceCursor::Status status;
      {
        Scope e(spans, "trace.cursor_next");
        status = cursor.next(&ev, &error);
      }
      if (status == trace::TraceCursor::Status::kEnd) break;
      if (status == trace::TraceCursor::Status::kError) {
        ++r.errors;
        break;
      }
      ++r.attempted;
      if (ev.kind == OpKind::kCollection) {
        table.append(ev.tid, to_access_set(ev.accesses));
      }
      Scope e(spans, "detect.on_event");
      detector.on_event(ev.tid, ev.kind, ev.object, ev.clock);
    }
  }
  r.threads = thread_count();
  {
    Scope s(spans, "core.drain");
    detector.drain();
  }
  finish_run(&r, start);
  if (r.errors != 0) r.attempted = reader.total_events();
  r.states = detector.states_enumerated();
  r.has_racy = true;
  r.racy = racy_vars(detector.report());
  r.outstanding_pins = detector.poset().outstanding_pins();
  return r;
}

// Reads one reply frame on stream 0; nullopt on any transport or decode
// failure, or an Error frame.
std::optional<DecodedFrame> read_reply(FrameChannel& channel) {
  std::vector<std::uint8_t> payload;
  std::uint32_t stream = 0;
  if (channel.read_frame(&payload, &stream) != ReadStatus::kFrame ||
      stream != 0) {
    return std::nullopt;
  }
  DecodedFrame frame;
  if (decode_frame(payload, &frame).has_value() || frame.op == Op::kError) {
    return std::nullopt;
  }
  return frame;
}

struct ServiceConfig {
  std::string socket_path;
  std::uint32_t async_workers = 1;
  std::uint64_t poll_every = 0;  // 0 = no Polls
};

// Streams pre-encoded frames through an in-process EpollServer. The wall
// clock runs from the first event frame to the Drained reply.
RunResult run_service_frames(
    const Decoded& d, const std::vector<std::vector<std::uint8_t>>& frames,
    const ServiceConfig& config, Spans* spans) {
  RunResult r;
  r.attempted = frames.size();
  const auto fail = [&r](std::uint64_t start) {
    r.errors = r.attempted;
    finish_run(&r, start);
    return r;
  };
  EpollServer::Options options;
  options.endpoint.kind = Endpoint::Kind::kUnix;
  options.endpoint.path = config.socket_path;
  options.max_sessions = 4;
  options.submit_budget_bytes = kSubmitBudgetBytes;
  EpollServer server(std::move(options));
  std::string error;
  {
    Scope s(spans, "service.listen");
    if (!server.start(&error)) die("service start: " + error);
  }
  std::optional<FrameChannel> channel;
  {
    Scope s(spans, "service.connect_hello");
    channel.emplace(connect_unix(config.socket_path, &error));
    if (channel->fd() < 0) die("service connect: " + error);
    HelloBody hello;
    hello.num_threads = static_cast<std::uint32_t>(d.threads);
    hello.async_workers = config.async_workers;
    hello.gc_every = kGcEvery;
    if (!channel->write_frame(encode_hello(hello))) return fail(now_ns());
    const std::optional<DecodedFrame> ack = read_reply(*channel);
    if (!ack || ack->op != Op::kHelloAck) return fail(now_ns());
  }
  const std::uint64_t start = now_ns();
  r.setup_end_ns = start;
  CountsBody counts;
  {
    Scope s(spans, "client.stream");
    for (std::size_t i = 0; i < frames.size(); ++i) {
      {
        Scope e(spans, "client.write_event");
        if (!channel->write_frame(frames[i])) return fail(start);
      }
      if (config.poll_every != 0 && (i + 1) % config.poll_every == 0) {
        Scope p(spans, "client.poll");
        const std::uint64_t t0 = now_ns();
        if (!channel->write_frame(encode_poll())) return fail(start);
        const std::optional<DecodedFrame> stats = read_reply(*channel);
        if (!stats || stats->op != Op::kStats) return fail(start);
        r.poll_rtt_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      }
    }
    r.threads = thread_count();
    Scope e(spans, "client.drain");
    if (!channel->write_frame(encode_drain())) return fail(start);
    const std::optional<DecodedFrame> drained = read_reply(*channel);
    if (!drained || drained->op != Op::kDrained) return fail(start);
    counts = drained->counts;
  }
  finish_run(&r, start);
  {
    Scope s(spans, "service.shutdown");
    if (!channel->write_frame(encode_shutdown())) return fail(start);
    const std::optional<DecodedFrame> goodbye = read_reply(*channel);
    if (!goodbye || goodbye->op != Op::kGoodbye) r.errors = r.attempted;
    server.stop();
  }
  const ServerStats stats = server.stats();
  if (counts.events != r.attempted) r.errors = r.attempted;
  r.states = counts.states;
  r.has_racy = true;
  r.racy = stats.last_racy_vars;
  r.outstanding_pins = counts.outstanding_pins + stats.leaked_pins;
  r.protocol_errors = stats.protocol_errors;
  r.errors += stats.protocol_errors;
  r.submit_stalls = stats.submit_stalls;
  return r;
}

RunResult run_service(const std::string& trace_path,
                      const std::string& socket_path, Spans* spans) {
  trace::TraceReader reader;
  {
    Scope s(spans, "trace.open");
    reader = open_trace(trace_path);
  }
  const std::uint64_t prep_start = now_ns();
  const Decoded d = decode_all(reader);
  const std::vector<std::vector<std::uint8_t>> frames = encode_frames(d);
  const std::uint64_t prep_ns = now_ns() - prep_start;
  ServiceConfig config;
  config.socket_path = socket_path;
  config.async_workers = static_cast<std::uint32_t>(service_workers());
  config.poll_every = kPollEvery;
  RunResult r = run_service_frames(d, frames, config, spans);
  r.prep_ns = prep_ns;
  return r;
}

RunResult run_workload(Workload w, const std::string& trace_path,
                       const std::string& socket_path, Spans* spans) {
  switch (w) {
    case Workload::kOfflineHotvar:
      return run_offline(trace_path, spans);
    case Workload::kOnlinePaced:
      return run_paced(trace_path, spans);
    case Workload::kIngestConvoy:
      return run_ingest(trace_path, spans);
    case Workload::kServiceConvoy:
      return run_service(trace_path, socket_path, spans);
  }
  die("unknown workload");
}

void write_samples(obs::JsonWriter& w, const char* key,
                   const std::vector<double>& values) {
  w.key(key).begin_array();
  for (const double v : values) w.value(std::isfinite(v) ? v : -1.0);
  w.end_array();
}

int cmd_run(int argc, char** argv) {
  CliFlags flags("pmbench run — one end-to-end run, tracing off");
  flags.add_string("workload", "", "workload name");
  flags.add_string("dir", "", "input directory written by gen");
  flags.add_int("spawn-ns", 0,
                "steady-clock ns at which the caller spawned this process");
  flags.add_string("socket", ".bench_build/pmbench.sock",
                   "Unix socket path (service)");
  if (!flags.parse(argc, argv)) return 0;
  const std::optional<Workload> w =
      parse_workload(flags.get_string("workload"));
  if (!w) die("unknown --workload " + flags.get_string("workload"));
  const auto spawn_ns = static_cast<std::uint64_t>(flags.get_int_in_range(
      "spawn-ns", 0, std::numeric_limits<std::int64_t>::max()));

  const RunResult r = run_workload(*w, flags.get_string("dir") + "/input.pmt",
                                   flags.get_string("socket"), nullptr);
  const double setup_s =
      spawn_ns == 0 ? 0.0
                    : static_cast<double>(r.setup_end_ns - spawn_ns -
                                          r.prep_ns) *
                          1e-9;

  obs::JsonWriter out;
  out.begin_object();
  out.key("setup_s").value(setup_s);
  out.key("wall_s").value(r.wall_s);
  out.key("cpu_s").value(r.cpu_s);
  out.key("peak_rss_mb").value(r.peak_rss_mb);
  out.key("threads").value(r.threads);
  out.key("attempted").value(r.attempted);
  out.key("errors").value(r.errors);
  out.key("states").value(r.states);
  if (r.has_racy) {
    out.key("racy_vars").begin_array();
    for (const VarId v : r.racy) out.value(static_cast<std::uint64_t>(v));
    out.end_array();
  }
  out.key("outstanding_pins").value(r.outstanding_pins);
  out.key("protocol_errors").value(r.protocol_errors);
  out.key("submit_stalls").value(r.submit_stalls);
  out.key("verdict_missing").value(r.verdict_missing);
  out.key("rate_events_per_s").value(r.rate_events_per_s);
  write_samples(out, "verdict_us", r.verdict_us);
  write_samples(out, "gen_late_us", r.gen_late_us);
  write_samples(out, "poll_rtt_us", r.poll_rtt_us);
  out.end_object();
  std::printf("%s\n", std::move(out).take().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Traced run: pipeline spans plus layer-isolation passes
// ---------------------------------------------------------------------------

// Times fn() once, then again while the repetitions stay under a second in
// total and under max_reps; returns the median. Passes that keep state
// across calls use max_reps = 1.
double time_median(int max_reps, const std::function<void()>& fn) {
  std::vector<double> t;
  double total = 0.0;
  while (t.empty() || (static_cast<int>(t.size()) < max_reps && total < 1.0)) {
    const std::uint64_t start = now_ns();
    fn();
    t.push_back(seconds_since(start));
    total += t.back();
  }
  return median(std::move(t));
}

struct Box {
  EventId owner;
  Frontier lo;
  Frontier hi;
  bool first;
};

int cmd_layers(int argc, char** argv) {
  CliFlags flags(
      "pmbench layers — traced run: pipeline spans and per-layer passes");
  flags.add_string("workload", "", "workload name");
  flags.add_string("dir", "", "input directory written by gen");
  flags.add_string("sample-dir", "",
                   "input of the layer-isolation passes (default: --dir)");
  flags.add_string("trace-out", "",
                   "where to write the spans (one JSON per line)");
  flags.add_string("socket", ".bench_build/pmbench.sock",
                   "Unix socket path (service)");
  if (!flags.parse(argc, argv)) return 0;
  const std::optional<Workload> w =
      parse_workload(flags.get_string("workload"));
  if (!w) die("unknown --workload " + flags.get_string("workload"));
  const std::string dir = flags.get_string("dir");
  const std::string sample_dir = flags.get_string("sample-dir").empty()
                                     ? dir
                                     : flags.get_string("sample-dir");
  const std::string trace_path = dir + "/input.pmt";
  const std::string socket_path = flags.get_string("socket");

  Spans spans;
  std::vector<std::pair<std::string, double>> metrics;
  const auto put = [&metrics](const char* name, double value) {
    metrics.emplace_back(name, value);
  };
  std::uint64_t failed = 0;
  const auto expect = [&failed](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "pmbench layers: verdict mismatch: %s\n", what);
      ++failed;
    }
  };

  // 1. The real pipeline, untraced and traced in alternation.
  {
    const Reference ref = read_reference(dir + "/ref.json");
    std::vector<double> untraced;
    std::vector<double> traced;
    std::vector<double> cpu;
    for (int rep = 0; rep < 2; ++rep) {
      const double cpu_before = cpu_seconds();
      const RunResult plain =
          run_workload(*w, trace_path, socket_path, nullptr);
      cpu.push_back(cpu_seconds() - cpu_before);
      untraced.push_back(plain.wall_s);
      const std::size_t top = spans.begin("pipeline");
      const RunResult r = run_workload(*w, trace_path, socket_path, &spans);
      spans.end(top);
      traced.push_back(r.wall_s);
      expect(plain.states == ref.states && r.states == ref.states,
             "pipeline state count");
      expect(plain.errors == 0 && r.errors == 0, "pipeline errors");
    }
    put("obs.trace_overhead_frac", median(traced) / median(untraced) - 1.0);
    put("run.cpu_s", median(cpu));
  }

  // 2. Layer-isolation passes over the sample input, one stage at a time.
  const auto layer = [&spans](const char* name, int max_reps,
                              const std::function<void()>& fn) {
    const std::size_t id = spans.begin(name);
    const double t = time_median(max_reps, fn);
    spans.end(id);
    return t;
  };
  const std::string sample_path = sample_dir + "/input.pmt";
  const Reference ref = read_reference(sample_dir + "/ref.json");
  trace::TraceReader reader = open_trace(sample_path);
  const Decoded d = decode_all(reader);
  const std::size_t threads = d.threads;
  const auto events = static_cast<double>(d.events.size());

  // trace
  const double t_open =
      layer("trace.open", 21, [&] { open_trace(sample_path); });
  const double t_decode = layer("trace.decode", 5, [&] {
    trace::TraceCursor cursor = reader.cursor();
    trace::TraceError error;
    trace::TraceEvent ev;
    while (cursor.next(&ev, &error) == trace::TraceCursor::Status::kOk) {
    }
  });
  put("trace.open_us", t_open * 1e6);
  put("trace.decode_ns_per_event", t_decode * 1e9 / events);
  put("trace.bytes_per_event",
      static_cast<double>(reader.file_size()) / events);

  // poset. Each repetition's result is kept until the pass ends, so no
  // destructor runs inside a timed repetition.
  std::uint64_t invalid = 0;
  const double t_validate = layer("poset.validate", 5, [&] {
    ClockValidator validator(threads);
    for (const trace::TraceEvent& ev : d.events) {
      if (validator.validate_and_commit(ev.tid, ev.clock) !=
          ClockValidator::Verdict::kOk) {
        ++invalid;
      }
    }
  });
  expect(invalid == 0, "clock validation");
  std::vector<Poset> built;
  const double t_build = layer("poset.build", 5, [&] {
    built.push_back(build_poset(d.events, threads));
  });
  const Poset& poset = built.front();
  std::vector<std::unique_ptr<OnlinePoset>> inserted;
  const double t_insert = layer("poset.insert", 5, [&] {
    auto p = std::make_unique<OnlinePoset>(threads);
    for (const trace::TraceEvent& ev : d.events) {
      p->insert(ev.tid, ev.kind, ev.object, ev.clock);
    }
    inserted.push_back(std::move(p));
  });
  inserted.clear();
  put("poset.insert_ns_per_event", t_insert * 1e9 / events);
  put("poset.validate_ns_per_event", t_validate * 1e9 / events);
  put("poset.build_ns_per_event", t_build * 1e9 / events);
  {
    // At least eight collections even on short inputs.
    const std::uint64_t every = std::clamp<std::uint64_t>(
        d.events.size() / 8, 1, kGcEvery);
    OnlinePoset windowed(threads);
    std::vector<double> collect_us;
    std::size_t resident_peak = 0;
    layer("poset.collect", 1, [&] {
      std::uint64_t n = 0;
      for (const trace::TraceEvent& ev : d.events) {
        windowed.insert(ev.tid, ev.kind, ev.object, ev.clock);
        if (++n % every == 0) {
          resident_peak = std::max(resident_peak, windowed.heap_bytes());
          const std::uint64_t t0 = now_ns();
          windowed.collect();
          collect_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
        }
      }
      resident_peak = std::max(resident_peak, windowed.heap_bytes());
    });
    put("poset.collect_us_per_call", median(collect_us));
    put("poset.collect_calls", static_cast<double>(collect_us.size()));
    put("poset.resident_bytes_peak", static_cast<double>(resident_peak));
  }

  // core: the offline interval partition and its drivers
  std::vector<std::vector<Interval>> partitions;
  const double t_intervals = layer("core.compute_intervals", 5, [&] {
    partitions.push_back(compute_intervals(poset, TopoPolicy::kInterleave, 0));
  });
  const std::vector<Interval>& intervals = partitions.front();
  put("core.intervals_ns_per_event", t_intervals * 1e9 / events);

  std::uint64_t states_direct = 0;
  const double t_direct = layer("enumeration.offline_boxes", 5, [&] {
    states_direct = 0;
    for (const Interval& iv : intervals) {
      states_direct += enumerate_box(EnumAlgorithm::kLexical, poset, iv.gmin,
                                     iv.gbnd, [](const Frontier&) {})
                           .states;
    }
  });
  // The first event of →p also owns the empty state.
  expect(states_direct + 1 == ref.states, "direct offline boxes");
  put("enumeration.successor_ns_per_state",
      t_direct * 1e9 / static_cast<double>(states_direct));

  const auto offline_run = [&](std::size_t workers, obs::Telemetry* tel) {
    ParamountOptions options;
    options.num_workers = workers;
    options.telemetry = tel;
    const std::uint64_t states =
        enumerate_paramount(poset, intervals, options, [](const Frontier&) {})
            .states;
    expect(states == ref.states, "offline driver");
  };
  const std::size_t workers = offline_workers();
  const double t_off1 = layer("core.offline_1_worker", 5,
                              [&] { offline_run(1, nullptr); });
  const double t_offw = layer("core.offline_n_workers", 5,
                              [&] { offline_run(workers, nullptr); });
  put("core.offline_overhead_frac", 1.0 - t_direct / t_off1);
  put("core.scaling_eff", t_off1 / (static_cast<double>(workers) * t_offw));

  // enumeration on the online boxes: Poset, OnlinePoset, + the predicate
  OnlinePoset online(threads);
  std::vector<Box> boxes;
  boxes.reserve(d.events.size());
  for (const trace::TraceEvent& ev : d.events) {
    OnlinePoset::Inserted ins =
        online.insert(ev.tid, ev.kind, ev.object, ev.clock);
    boxes.push_back(
        Box{ins.id, std::move(ins.gmin), std::move(ins.gbnd), ins.first});
  }
  std::vector<std::uint64_t> box_states(boxes.size());
  const double t_boxes_poset = layer("enumeration.online_boxes_poset", 5, [&] {
    for (std::size_t i = 0; i < boxes.size(); ++i) {
      box_states[i] = enumerate_box(EnumAlgorithm::kLexical, poset, boxes[i].lo,
                                    boxes[i].hi, [](const Frontier&) {})
                          .states;
    }
  });
  const double t_boxes_online =
      layer("enumeration.online_boxes_online_poset", 5, [&] {
        for (const Box& b : boxes) {
          enumerate_box(EnumAlgorithm::kLexical, online, b.lo, b.hi,
                        [](const Frontier&) {});
        }
      });
  RaceReport report;
  const double t_predicate = layer("detect.check_races", 5, [&] {
    for (const Box& b : boxes) {
      if (b.first) {
        check_races(online, *d.table, b.owner, online.empty_frontier(),
                    report);
      }
      enumerate_box(EnumAlgorithm::kLexical, online, b.lo, b.hi,
                    [&](const Frontier& state) {
                      check_races(online, *d.table, b.owner, state, report);
                    });
    }
  });
  double states_online = 1.0;  // the empty state
  double useful = 0.0;
  std::vector<double> interval_states;
  interval_states.reserve(boxes.size());
  double max_interval = 0.0;
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    const auto s =
        static_cast<double>(box_states[i] + (boxes[i].first ? 1 : 0));
    states_online += static_cast<double>(box_states[i]);
    interval_states.push_back(s);
    max_interval = std::max(max_interval, s);
    if (poset.event(boxes[i].owner).kind == OpKind::kCollection) {
      useful += static_cast<double>(box_states[i]);
    }
  }
  expect(static_cast<std::uint64_t>(states_online) == ref.states,
         "online boxes");
  expect(racy_vars(report) == ref.racy_vars, "predicate race set");
  put("enumeration.online_read_ns_per_state",
      (t_boxes_online - t_boxes_poset) * 1e9 / states_online);
  put("enumeration.states", states_online);
  put("detect.predicate_ns_per_state",
      (t_predicate - t_boxes_online) * 1e9 / states_online);
  put("detect.useful_frac", useful / states_online);
  put("detect.racy_vars", static_cast<double>(report.num_racy_vars()));
  put("core.max_interval_share", max_interval / states_online);
  put("core.interval_states_p99", quantile(interval_states, 0.99));

  // core: the online drivers
  const double t_inline = layer("core.online_inline", 5, [&] {
    OnlineRaceDetector detector(threads, OnlineRaceDetector::Options{});
    detector.attach(*d.table);
    for (const trace::TraceEvent& ev : d.events) {
      detector.on_event(ev.tid, ev.kind, ev.object, ev.clock);
    }
    expect(detector.states_enumerated() == ref.states, "inline online");
  });
  put("core.online_overhead_frac", 1.0 - (t_insert + t_predicate) / t_inline);

  const auto pooled_run = [&](std::size_t pool_workers, obs::Telemetry* tel,
                              std::vector<double>* submit_ns,
                              std::uint64_t* inflight_peak) {
    std::atomic<std::uint64_t> completed{0};
    OnlineRaceDetector::Options options;
    options.async_workers = pool_workers;
    options.window_policy.gc_every = kGcEvery;
    options.telemetry = tel;
    options.interval_done = [&completed](EventId) {
      completed.fetch_add(1, std::memory_order_relaxed);
    };
    OnlineRaceDetector detector(threads, std::move(options));
    detector.attach(*d.table);
    std::uint64_t submitted = 0;
    for (const trace::TraceEvent& ev : d.events) {
      const std::uint64_t t0 = now_ns();
      detector.on_event(ev.tid, ev.kind, ev.object, ev.clock);
      if (submit_ns != nullptr) {
        submit_ns->push_back(static_cast<double>(now_ns() - t0));
        ++submitted;
        *inflight_peak = std::max(
            *inflight_peak,
            submitted - completed.load(std::memory_order_relaxed));
      }
    }
    detector.drain();
    expect(detector.states_enumerated() == ref.states, "pooled online");
    expect(racy_vars(detector.report()) == ref.racy_vars, "pooled race set");
    expect(detector.poset().outstanding_pins() == 0, "pooled pins");
  };
  const std::size_t pool = online_workers();
  std::vector<double> submit_ns;
  std::uint64_t inflight_peak = 0;
  obs::Telemetry online_tel(threads + pool,
                            /*trace_capacity_per_shard=*/1 << 10);
  const double t_pooled = layer("core.online_pooled", 1, [&] {
    pooled_run(pool, &online_tel, &submit_ns, &inflight_peak);
  });
  put("core.submit_ns_p50", quantile(submit_ns, 0.5));
  put("core.submit_ns_p99", quantile(submit_ns, 0.99));
  put("core.inflight_peak", static_cast<double>(inflight_peak));

  // util: the telemetry of the driver this workload runs, passed through
  // the public Options in this traced run only.
  {
    obs::Telemetry offline_tel(workers, /*trace_capacity_per_shard=*/1 << 10);
    double driver_wall = t_pooled;
    std::size_t driver_workers = pool;
    const obs::Telemetry* tel = &online_tel;
    if (*w == Workload::kOfflineHotvar) {
      driver_wall = layer("core.offline_n_workers_telemetry", 1,
                          [&] { offline_run(workers, &offline_tel); });
      driver_workers = workers;
      tel = &offline_tel;
    }
    const obs::MetricsSnapshot snap = tel->snapshot();
    const auto counter = [&snap](const char* name) {
      const obs::CounterSnapshot* c = snap.find_counter(name);
      return c == nullptr ? 0.0 : static_cast<double>(c->total);
    };
    const obs::HistogramSnapshot* wait =
        snap.find_histogram("pool.queue_wait_ns");
    const obs::HistogramSnapshot* busy =
        snap.find_histogram("paramount.interval_ns");
    put("util.pool_queue_wait_p99_us", wait == nullptr || wait->count == 0
                                           ? 0.0
                                           : wait->quantile(0.99) * 1e-3);
    put("util.steals", counter("pool.steals"));
    put("util.steal_fail", counter("pool.steal_fail"));
    const auto busy_workers =
        static_cast<double>(std::max<std::size_t>(1, driver_workers));
    put("util.worker_busy_frac",
        busy == nullptr ? 0.0
                        : static_cast<double>(busy->sum) * 1e-9 /
                              (driver_wall * busy_workers));
  }

  // service: frames, and the daemon against the same driver called directly
  const std::vector<std::vector<std::uint8_t>> frames = encode_frames(d);
  double frame_bytes = 0.0;
  for (const auto& f : frames) frame_bytes += static_cast<double>(f.size() + 8);
  std::uint64_t undecodable = 0;
  const double t_frame_decode = layer("service.decode_frame", 5, [&] {
    DecodedFrame frame;
    for (const auto& f : frames) {
      if (decode_frame(f, &frame).has_value()) ++undecodable;
    }
  });
  expect(undecodable == 0, "frame decode");
  put("service.frame_decode_ns_per_event", t_frame_decode * 1e9 / events);
  put("service.frame_bytes_per_event", frame_bytes / events);
  ServiceConfig service;
  service.socket_path = socket_path;
  service.async_workers = static_cast<std::uint32_t>(service_workers());
  std::uint64_t submit_stalls = 0;
  const double t_served = layer("service.stream_pooled", 5, [&] {
    const RunResult r = run_service_frames(d, frames, service, nullptr);
    expect(r.errors == 0 && r.states == ref.states && r.racy == ref.racy_vars &&
               r.outstanding_pins == 0,
           "service verdict");
    submit_stalls += r.submit_stalls;
  });
  const double t_direct_pooled = layer("core.online_pooled_direct", 5, [&] {
    pooled_run(service_workers(), nullptr, nullptr, nullptr);
  });
  put("service.submit_stalls", static_cast<double>(submit_stalls));
  put("service.overhead_frac", t_served / t_direct_pooled - 1.0);

  // Whole run: how much of the serial pipeline the layer sum leaves out.
  double explained = 0.0;
  double serial = 0.0;
  switch (*w) {
    case Workload::kOfflineHotvar:
      explained = t_decode + t_build + t_intervals + t_direct;
      serial = t_decode + t_build + t_intervals + t_off1;
      break;
    case Workload::kOnlinePaced:
      explained = t_insert + t_predicate;
      serial = t_inline;
      break;
    case Workload::kIngestConvoy:
      explained = t_decode + t_insert + t_predicate;
      serial = t_decode + t_inline;
      break;
    case Workload::kServiceConvoy: {
      ServiceConfig inline_service = service;
      inline_service.async_workers = 0;
      const double t_served_inline = layer("service.stream_inline", 5, [&] {
        const RunResult r =
            run_service_frames(d, frames, inline_service, nullptr);
        expect(r.errors == 0 && r.states == ref.states,
               "inline service verdict");
      });
      explained = t_frame_decode + t_validate + t_insert + t_predicate;
      serial = t_served_inline;
      break;
    }
  }
  put("layers.unattributed_frac", 1.0 - explained / serial);

  const std::string trace_out = flags.get_string("trace-out");
  if (!trace_out.empty() && !spans.write(trace_out)) {
    die("cannot write " + trace_out);
  }

  obs::JsonWriter out;
  out.begin_object();
  out.key("failed").value(failed);
  out.key("metrics").begin_object();
  for (const auto& [name, value] : metrics) out.key(name.c_str()).value(value);
  out.end_object();
  out.end_object();
  std::printf("%s\n", std::move(out).take().c_str());
  return 0;
}

int cmd_info(int argc, char** argv) {
  CliFlags flags("pmbench info — build provenance and the thread budget");
  if (!flags.parse(argc, argv)) return 0;
  obs::JsonWriter out;
  out.begin_object();
  out.key("compiler").value(PMBENCH_COMPILER);
  out.key("build_type").value(PMBENCH_BUILD_TYPE);
  out.key("nproc").value(static_cast<std::uint64_t>(nproc()));
  const auto u64 = [](std::size_t v) { return static_cast<std::uint64_t>(v); };
  out.key("offline_workers").value(u64(offline_workers()));
  out.key("online_workers").value(u64(online_workers()));
  out.key("service_workers").value(u64(service_workers()));
  out.key("paced_seconds").value(kPacedSeconds);
  out.key("gc_every").value(kGcEvery);
  out.key("poll_every").value(kPollEvery);
  out.key("submit_budget_bytes").value(u64(kSubmitBudgetBytes));
  for (const InputSpec* spec :
       {&kHotVar, &kHotVarPaced, &kHotVarSample, &kConvoy}) {
    out.key(spec->name).begin_object();
    out.key("scenario").value(spec->scenario);
    out.key("threads").value(u64(spec->threads));
    out.key("max_events").value(spec->max_events);
    out.key("target_states").value(spec->target_states);
    out.key("segments").value(u64(spec->segments));
    out.key("segment_states_lo").value(spec->segment_lo);
    out.key("segment_states_hi").value(spec->segment_hi);
    out.end_object();
  }
  out.end_object();
  std::printf("%s\n", std::move(out).take().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: pmbench gen|run|layers|selftest|info [--flags]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  // CliFlags treats its argv[0] as the program name: hand it the subcommand.
  if (cmd == "gen") return cmd_gen(argc - 1, argv + 1);
  if (cmd == "run") return cmd_run(argc - 1, argv + 1);
  if (cmd == "layers") return cmd_layers(argc - 1, argv + 1);
  if (cmd == "selftest") return cmd_selftest(argc - 1, argv + 1);
  if (cmd == "info") return cmd_info(argc - 1, argv + 1);
  std::fprintf(stderr, "pmbench: unknown subcommand '%s'\n", cmd.c_str());
  return 2;
}
