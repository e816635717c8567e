#include "workloads/harness.hpp"

#include "util/timer.hpp"

namespace paramount {

std::string field_of(const std::string& var_name) {
  if (const auto dot = var_name.rfind('.'); dot != std::string::npos) {
    return var_name.substr(dot + 1);
  }
  if (const auto bracket = var_name.find('['); bracket != std::string::npos) {
    return var_name.substr(0, bracket);
  }
  return var_name;
}

std::set<std::string> racy_fields(const RaceReport& report,
                                  const TraceRuntime& runtime) {
  std::set<std::string> fields;
  for (const RaceFinding& finding : report.findings()) {
    fields.insert(field_of(runtime.var_name(finding.var)));
  }
  return fields;
}

RecordedTrace record_program(const TracedProgramSpec& spec, std::size_t scale,
                             bool record_sync_events) {
  RecordedTrace trace;
  RecordingSink sink(spec.num_threads);
  TraceRuntime::Options options;
  options.num_threads = spec.num_threads;
  options.record_sync_events = record_sync_events;

  WallTimer timer;
  trace.runtime = std::make_unique<TraceRuntime>(options, sink);
  spec.run(*trace.runtime, scale);
  trace.runtime->finish();
  trace.run_seconds = timer.elapsed_seconds();

  trace.order = sink.recorded_order();
  trace.poset = std::move(sink).build();
  return trace;
}

BaseRunResult run_base(const TracedProgramSpec& spec, std::size_t scale) {
  NullSink sink;
  TraceRuntime::Options options;
  options.num_threads = spec.num_threads;

  WallTimer timer;
  {
    TraceRuntime runtime(options, sink);
    spec.run(runtime, scale);
    runtime.finish();
  }
  return BaseRunResult{timer.elapsed_seconds()};
}

ParamountRunResult run_paramount_detector(
    const TracedProgramSpec& spec, std::size_t scale,
    OnlineRaceDetector::Options detector_options) {
  OnlineRaceDetector detector(spec.num_threads, detector_options);
  TraceRuntime::Options options;
  options.num_threads = spec.num_threads;

  ParamountRunResult result;
  WallTimer timer;
  {
    TraceRuntime runtime(options, detector);
    detector.attach(runtime.access_table());
    spec.run(runtime, scale);
    runtime.finish();
    detector.drain();
    result.seconds = timer.elapsed_seconds();
    result.racy_fields = racy_fields(detector.report(), runtime);
  }
  result.states_enumerated = detector.states_enumerated();
  result.events = detector.poset().total_events();
  return result;
}

FastTrackRunResult run_fasttrack_detector(const TracedProgramSpec& spec,
                                          std::size_t scale) {
  FastTrackDetector detector(spec.num_threads);
  TraceRuntime::Options options;
  options.num_threads = spec.num_threads;

  FastTrackRunResult result;
  WallTimer timer;
  {
    TraceRuntime runtime(options, detector);
    spec.run(runtime, scale);
    runtime.finish();
    result.seconds = timer.elapsed_seconds();
    result.racy_fields = racy_fields(detector.report(), runtime);
  }
  return result;
}

RecordedTrace record_program_scheduled(const TracedProgramSpec& spec,
                                       std::size_t scale,
                                       bool record_sync_events,
                                       ScheduleController::Policy policy,
                                       std::uint64_t seed) {
  RecordedTrace trace;
  RecordingSink sink(spec.num_threads);
  ScheduleController controller(spec.num_threads, policy, seed);
  TraceRuntime::Options options;
  options.num_threads = spec.num_threads;
  options.record_sync_events = record_sync_events;
  options.controller = &controller;

  WallTimer timer;
  trace.runtime = std::make_unique<TraceRuntime>(options, sink);
  spec.run(*trace.runtime, scale);
  trace.runtime->finish();
  trace.run_seconds = timer.elapsed_seconds();

  trace.order = sink.recorded_order();
  trace.poset = std::move(sink).build();
  return trace;
}

namespace {

// Observable fingerprint of a run: every event with its clock.
std::uint64_t poset_fingerprint(const OnlinePoset& poset) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (ThreadId t = 0; t < poset.num_threads(); ++t) {
    for (EventIndex i = 1; i <= poset.num_events(t); ++i) {
      const EventView e = poset.event(t, i);
      h ^= (e.id.packed() * 0xbf58476d1ce4e5b9ULL) ^ e.vc.hash();
      h *= 0x94d049bb133111ebULL;
    }
  }
  return h;
}

}  // namespace

ExplorationResult explore_schedules(const TracedProgramSpec& spec,
                                    std::size_t scale,
                                    std::size_t num_schedules,
                                    ScheduleController::Policy policy,
                                    std::uint64_t base_seed) {
  ExplorationResult result;
  std::set<std::uint64_t> fingerprints;
  for (std::size_t s = 0; s < num_schedules; ++s) {
    ScheduleController controller(spec.num_threads, policy, base_seed + s);
    OnlineRaceDetector detector(spec.num_threads, {});
    TraceRuntime::Options options;
    options.num_threads = spec.num_threads;
    options.controller = &controller;
    {
      TraceRuntime runtime(options, detector);
      detector.attach(runtime.access_table());
      spec.run(runtime, scale);
      runtime.finish();
      detector.drain();
      const auto fields = racy_fields(detector.report(), runtime);
      result.racy_fields.insert(fields.begin(), fields.end());
    }
    fingerprints.insert(poset_fingerprint(detector.poset()));
    result.total_states += detector.states_enumerated();
    ++result.schedules_run;
  }
  result.distinct_posets = fingerprints.size();
  return result;
}

OfflineBfsRunResult run_offline_bfs_detector(const TracedProgramSpec& spec,
                                             std::size_t scale,
                                             std::uint64_t budget_bytes) {
  OfflineBfsRunResult result;
  WallTimer timer;
  RecordedTrace trace = record_program(spec, scale,
                                       /*record_sync_events=*/false);
  RaceReport report;
  const OfflineDetectionStats stats = detect_races_offline_bfs(
      trace.poset, trace.runtime->access_table(), report, budget_bytes);
  result.seconds = timer.elapsed_seconds();
  result.racy_fields = racy_fields(report, *trace.runtime);
  result.out_of_memory = stats.out_of_memory;
  result.states_enumerated = stats.states_enumerated;
  return result;
}

}  // namespace paramount
