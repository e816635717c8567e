// paramount-trace — produce, inspect, and replay .pmt trace files.
//
//   paramount-trace gen --scenario=lock-convoy --threads=8 --events=20000
//       --seed=42 --out=convoy.pmt
//   paramount-trace gen --scenario=all --out-dir=corpus/
//   paramount-trace record --program=banking --out=banking.pmt
//   paramount-trace info --input=convoy.pmt
//   paramount-trace verify --input=convoy.pmt
//   paramount-trace replay --input=convoy.pmt --mode=offline --workers=8
//
// `info` reads only the header and footer index (O(1) in the trace length)
// and prints a deterministic byte-for-byte stable description — CI diffs it
// against a committed golden file for a fixed-seed scenario. `verify`
// decodes every chunk, re-checking CRCs and clock invariants. `replay`
// counts consistent global states through the offline, streaming, or online
// enumeration driver; all three must agree on any valid trace.
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "runtime/trace_file_sink.hpp"
#include "trace/replay.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "workloads/harness.hpp"
#include "workloads/scenarios/scenarios.hpp"
#include "workloads/traced_programs.hpp"

using namespace paramount;

namespace {

int usage() {
  std::fputs(
      "paramount-trace — produce, inspect, and replay .pmt trace files.\n"
      "\n"
      "Subcommands:\n"
      "  gen      materialize a scenario (or --scenario=all) to .pmt\n"
      "  record   run a traced workload program into a .pmt\n"
      "  info     print header/footer summary (O(1), no chunk decode)\n"
      "  verify   decode the full trace, checking CRCs and clocks\n"
      "  replay   count global states via offline|streaming|online\n"
      "\n"
      "Run `paramount-trace <subcommand> --help` for flags.\n",
      stderr);
  return 2;
}

bool open_or_complain(trace::TraceReader* reader, const std::string& path) {
  if (path.empty()) {
    std::fprintf(stderr, "error: --input is required\n");
    return false;
  }
  trace::TraceError error;
  if (!reader->open(path, &error)) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                 error.to_string().c_str());
    return false;
  }
  return true;
}

// Streams one scenario into `path`. Returns false on I/O failure.
bool write_scenario(const std::string& name, const ScenarioParams& params,
                    const trace::TraceWriter::Options& options,
                    const std::string& path) {
  std::unique_ptr<ScenarioStream> scenario = make_scenario(name, params);
  if (scenario == nullptr) {
    std::fprintf(stderr, "error: unknown scenario '%s' (have:", name.c_str());
    for (const std::string& known : scenario_names()) {
      std::fprintf(stderr, " %s", known.c_str());
    }
    std::fprintf(stderr, ")\n");
    return false;
  }
  trace::TraceWriter writer;
  trace::TraceError error;
  // Wide variants ("fanin-queue-256") override the width inside
  // make_scenario, so size the header from the scenario, not the params.
  if (!writer.open(path, scenario->num_threads(), options, &error)) {
    std::fprintf(stderr, "error: %s\n", error.to_string().c_str());
    return false;
  }
  trace::TraceEvent event;
  while (scenario->next(&event)) writer.append(event);
  if (!writer.finish(&error)) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                 error.to_string().c_str());
    return false;
  }
  std::printf("%s: %s events, %llu chunks, %llu bytes (%s)\n", path.c_str(),
              format_count(writer.events_written()).c_str(),
              static_cast<unsigned long long>(writer.chunks_written()),
              static_cast<unsigned long long>(writer.bytes_written()),
              name.c_str());
  return true;
}

int run_gen(int argc, char** argv) {
  CliFlags flags("paramount-trace gen — materialize a scenario to a .pmt.");
  flags.add_string("scenario", "lock-convoy",
                   "scenario name (wide variants like lock-convoy-256 "
                   "accepted), 'all' for the base corpus, or 'all-wide' for "
                   "the 64/128/256-thread variants");
  flags.add_int("threads", 8, "scenario threads");
  flags.add_int("events", 20000, "events to generate");
  flags.add_int("seed", 42, "scenario seed");
  flags.add_string("out", "", "output .pmt path (single scenario)");
  flags.add_string("out-dir", "",
                   "output directory (required for --scenario=all; files "
                   "are named <scenario>.pmt)");
  flags.add_int("events-per-chunk", 4096, "chunk granularity");
  if (!flags.parse(argc, argv)) return 0;

  ScenarioParams params;
  params.num_threads = static_cast<std::size_t>(
      flags.get_int_in_range("threads", 1, trace::kMaxThreads));
  params.num_events = static_cast<std::uint64_t>(
      flags.get_int_in_range("events", 1, std::int64_t{1} << 40));
  params.seed = static_cast<std::uint64_t>(flags.get_int_in_range(
      "seed", 0, std::numeric_limits<std::int64_t>::max()));
  trace::TraceWriter::Options options;
  options.events_per_chunk = static_cast<std::uint32_t>(
      flags.get_int_in_range("events-per-chunk", 1, 1 << 22));

  const std::string scenario = flags.get_string("scenario");
  if (scenario == "all" || scenario == "all-wide") {
    const std::string dir = flags.get_string("out-dir");
    if (dir.empty()) {
      std::fprintf(stderr, "error: --scenario=%s requires --out-dir\n",
                   scenario.c_str());
      return 2;
    }
    const std::vector<std::string>& names =
        scenario == "all" ? scenario_names() : wide_scenario_names();
    for (const std::string& name : names) {
      if (!write_scenario(name, params, options, dir + "/" + name + ".pmt")) {
        return 1;
      }
    }
    return 0;
  }
  const std::string out = flags.get_string("out");
  if (out.empty()) {
    std::fprintf(stderr, "error: --out is required\n");
    return 2;
  }
  return write_scenario(scenario, params, options, out) ? 0 : 1;
}

int run_record(int argc, char** argv) {
  CliFlags flags(
      "paramount-trace record — run a traced workload program into a .pmt.");
  std::string known;
  for (const TracedProgramSpec& spec : traced_programs()) {
    known += known.empty() ? spec.name : " | " + spec.name;
  }
  flags.add_string("program", "banking", known);
  flags.add_int("scale", 1, "program scale factor");
  flags.add_string("out", "", "output .pmt path");
  flags.add_bool("record-sync", true,
                 "record acquire/release/fork/join as poset events");
  flags.add_int("events-per-chunk", 4096, "chunk granularity");
  if (!flags.parse(argc, argv)) return 0;

  const std::string out = flags.get_string("out");
  if (out.empty()) {
    std::fprintf(stderr, "error: --out is required\n");
    return 2;
  }
  const TracedProgramSpec& spec = traced_program(flags.get_string("program"));
  const auto scale = static_cast<std::size_t>(
      flags.get_int_in_range("scale", 1, 1 << 20));
  trace::TraceWriter::Options options;
  options.events_per_chunk = static_cast<std::uint32_t>(
      flags.get_int_in_range("events-per-chunk", 1, 1 << 22));

  TraceFileSink sink(out, spec.num_threads, nullptr, options);
  if (!sink.ok()) {
    std::fprintf(stderr, "error: %s\n", sink.error().to_string().c_str());
    return 1;
  }
  TraceRuntime::Options rt_options;
  rt_options.num_threads = spec.num_threads;
  rt_options.record_sync_events = flags.get_bool("record-sync");
  TraceRuntime runtime(rt_options, sink);
  sink.set_access_table(&runtime.access_table());
  spec.run(runtime, scale);
  runtime.finish();
  if (!sink.finish()) {
    std::fprintf(stderr, "error: %s: %s\n", out.c_str(),
                 sink.error().to_string().c_str());
    return 1;
  }
  std::printf("%s: %s events (%s, scale %zu)\n", out.c_str(),
              format_count(sink.events_written()).c_str(), spec.name.c_str(),
              scale);
  return 0;
}

int run_info(int argc, char** argv) {
  CliFlags flags(
      "paramount-trace info — print the header/footer summary of a .pmt.");
  flags.add_string("input", "", ".pmt file to describe");
  flags.add_bool("chunks", true, "list the per-chunk footer index");
  if (!flags.parse(argc, argv)) return 0;

  trace::TraceReader reader;
  if (!open_or_complain(&reader, flags.get_string("input"))) return 1;

  // Deterministic output: no paths, no timestamps — CI diffs this against a
  // committed golden file for a fixed-seed scenario.
  std::printf("format: pmt v%u\n", trace::kFormatVersion);
  std::printf("num_threads: %zu\n", reader.num_threads());
  std::printf("total_events: %llu\n",
              static_cast<unsigned long long>(reader.total_events()));
  std::printf("num_chunks: %zu\n", reader.num_chunks());
  std::printf("file_bytes: %llu\n",
              static_cast<unsigned long long>(reader.file_size()));
  if (flags.get_bool("chunks")) {
    std::printf("chunks:\n");
    std::printf("idx offset first_event events\n");
    for (std::size_t i = 0; i < reader.num_chunks(); ++i) {
      const trace::TraceReader::ChunkInfo& info = reader.chunk(i);
      std::printf("%zu %llu %llu %u\n", i,
                  static_cast<unsigned long long>(info.offset),
                  static_cast<unsigned long long>(info.first_event),
                  info.event_count);
    }
  }
  return 0;
}

int run_verify(int argc, char** argv) {
  CliFlags flags(
      "paramount-trace verify — decode the whole trace, checking every CRC "
      "and clock invariant.");
  flags.add_string("input", "", ".pmt file to verify");
  if (!flags.parse(argc, argv)) return 0;

  trace::TraceReader reader;
  if (!open_or_complain(&reader, flags.get_string("input"))) return 1;

  trace::TraceCursor cursor = reader.cursor();
  trace::TraceEvent event;
  trace::TraceError error;
  std::uint64_t events = 0;
  for (;;) {
    const trace::TraceCursor::Status status = cursor.next(&event, &error);
    if (status == trace::TraceCursor::Status::kError) {
      std::fprintf(stderr, "error: %s\n", error.to_string().c_str());
      return 1;
    }
    if (status == trace::TraceCursor::Status::kEnd) break;
    ++events;
  }
  std::printf("ok: %s events, %zu chunks, %zu threads\n",
              format_count(events).c_str(), reader.num_chunks(),
              reader.num_threads());
  return 0;
}

int run_replay(int argc, char** argv) {
  CliFlags flags(
      "paramount-trace replay — count consistent global states of a trace.");
  flags.add_string("input", "", ".pmt file to replay");
  flags.add_string("mode", "offline", "offline | streaming | online");
  flags.add_int("workers", 4, "offline/streaming enumeration workers");
  flags.add_string("algorithm", "lexical", "bfs | lexical");
  flags.add_int("async-workers", 0, "online mode: pooled workers");
  if (!flags.parse(argc, argv)) return 0;

  trace::TraceReader reader;
  if (!open_or_complain(&reader, flags.get_string("input"))) return 1;

  EnumAlgorithm algorithm = EnumAlgorithm::kLexical;
  const std::string algorithm_name = flags.get_string("algorithm");
  if (algorithm_name == "bfs") {
    algorithm = EnumAlgorithm::kBfs;
  } else if (algorithm_name != "lexical") {
    std::fprintf(stderr, "error: unknown --algorithm '%s'\n",
                 algorithm_name.c_str());
    return 2;
  }

  const std::string mode = flags.get_string("mode");
  trace::TraceError error;
  std::uint64_t states = 0;
  bool ok = false;
  WallTimer timer;
  if (mode == "offline" || mode == "streaming") {
    ParamountOptions options;
    options.num_workers = static_cast<std::size_t>(
        flags.get_int_in_range("workers", 1, 1 << 14));
    options.subroutine = algorithm;
    ok = mode == "offline"
             ? trace::replay_count_offline(reader, options, &states, &error)
             : trace::replay_count_streaming(reader, options, &states,
                                             &error);
  } else if (mode == "online") {
    OnlineParamount::Options options;
    options.subroutine = algorithm;
    options.async_workers = static_cast<std::size_t>(
        flags.get_int_in_range("async-workers", 0, 1 << 10));
    ok = trace::replay_count_online(reader, options, &states, &error);
  } else {
    std::fprintf(stderr, "error: unknown --mode '%s'\n", mode.c_str());
    return 2;
  }
  if (!ok) {
    std::fprintf(stderr, "error: %s\n", error.to_string().c_str());
    return 1;
  }
  const double elapsed = timer.elapsed_seconds();
  std::printf("events: %s\n", format_count(reader.total_events()).c_str());
  std::printf("states: %llu\n", static_cast<unsigned long long>(states));
  std::printf("mode: %s, %s\n", mode.c_str(), format_seconds(elapsed).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  // Shift so each subcommand's CliFlags sees its own argv[0].
  if (command == "gen") return run_gen(argc - 1, argv + 1);
  if (command == "record") return run_record(argc - 1, argv + 1);
  if (command == "info") return run_info(argc - 1, argv + 1);
  if (command == "verify") return run_verify(argc - 1, argv + 1);
  if (command == "replay") return run_replay(argc - 1, argv + 1);
  if (command == "--help" || command == "-h") {
    usage();
    return 0;
  }
  std::fprintf(stderr, "error: unknown subcommand '%s'\n\n", command.c_str());
  return usage();
}
