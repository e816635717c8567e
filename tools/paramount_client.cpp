// paramount-client: replays event streams into a running paramountd over a
// Unix-domain or TCP socket, polling telemetry along the way, and (with
// --oracle) re-runs the identical streams through the offline driver
// in-process to check that the service produced bit-identical state counts
// — the CI service-mode smoke job's differential test.
//
// Each stream is either synthetic (--stream-* / --sync-prob / --seed) or a
// recorded .pmt trace (--trace-file); the two sources are mutually
// exclusive. With --streams=N (synthetic only) the client multiplexes N
// independent sessions over ONE connection using the v2 frame header's
// stream ids (ids 1..N, seeds seed..seed+N-1, events interleaved
// round-robin) — the client-side half of the daemon's
// many-sessions-per-socket design. --streams=1 uses stream id 0: one
// session per connection, which the session's end closes.
//
// Output is `key: value` lines so shell checks can grep exact fields.
// Exit codes: 0 success, 1 protocol/transport failure, defective trace or
// oracle mismatch (one `error:` line on stderr), 2 flag usage error.
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/paramount.hpp"
#include "poset/poset_builder.hpp"
#include "service/channel.hpp"
#include "service/frame.hpp"
#include "trace/replay.hpp"
#include "trace/trace_reader.hpp"
#include "util/cli.hpp"
#include "workloads/event_stream.hpp"

using namespace paramount;
using namespace paramount::service;

namespace {

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::exit(1);
}

// Reads one frame and decodes it; any transport or decode failure — or a
// reply on the wrong stream — is fatal.
DecodedFrame read_reply(FrameChannel& channel, std::uint32_t expect_stream) {
  std::vector<std::uint8_t> payload;
  std::uint32_t stream_id = 0;
  const ReadStatus status = channel.read_frame(&payload, &stream_id);
  if (status != ReadStatus::kFrame) {
    die(std::string("server connection ended (") + to_string(status) + ")");
  }
  if (stream_id != expect_stream) {
    die("reply on stream " + std::to_string(stream_id) + ", expected " +
        std::to_string(expect_stream));
  }
  DecodedFrame frame;
  if (const auto err = decode_frame(payload, &frame)) {
    die("undecodable server frame: " + err->message);
  }
  if (frame.op == Op::kError) {
    die(std::string("server error frame [") + to_string(frame.error.code) +
        "]: " + frame.error.message);
  }
  return frame;
}

DecodedFrame expect_reply(FrameChannel& channel, Op op,
                          std::uint32_t stream_id) {
  DecodedFrame frame = read_reply(channel, stream_id);
  if (frame.op != op) {
    die(std::string("expected ") + to_string(op) + ", got " +
        to_string(frame.op));
  }
  return frame;
}

// Delta-encodes `clock` against the thread's previous clock.
std::vector<ClockDelta> delta_encode(const VectorClock& prev,
                                     const VectorClock& clock) {
  std::vector<ClockDelta> delta;
  for (std::size_t j = 0; j < clock.size(); ++j) {
    if (clock[j] != prev[j]) {
      delta.push_back({static_cast<std::uint32_t>(j), clock[j]});
    }
  }
  return delta;
}

void print_u64(const char* key, std::uint64_t value) {
  std::printf("%s: %" PRIu64 "\n", key, value);
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(
      "paramount-client — replays synthetic event streams or a recorded "
      ".pmt trace into paramountd (optionally multiplexed over one "
      "connection with --streams) and cross-checks the final counts "
      "against the offline driver (--oracle)");
  flags.add_string("connect", "paramountd.sock",
                   "paramountd endpoint: a Unix-domain socket path, "
                   "unix:PATH, or tcp:HOST:PORT");
  flags.add_string("trace-file", "",
                   "replay a recorded .pmt trace instead of a synthetic "
                   "stream (excludes the --stream-*/--sync-prob/--seed "
                   "flags)");
  flags.add_int("streams", 1,
                "multiplex this many independent synthetic sessions over "
                "one connection via frame stream ids (seeds seed..seed+N-1; "
                "1 = plain single session on stream id 0)");
  flags.add_int("tenant", 0,
                "tenant id sent in Hello; sessions sharing it share one "
                "submit quota under the server's --tenant-budget");
  flags.add_int("stream-events", 200000, "events to replay (per stream)");
  flags.add_int("stream-threads", 4, "threads in the synthetic stream");
  flags.add_int("stream-locks", 2, "locks in the synthetic stream");
  // High sync keeps the state lattice tractable (weakly synchronized
  // threads make the number of consistent states grow multiplicatively).
  flags.add_double("sync-prob", 0.8, "per-event lock-sync probability");
  flags.add_int("seed", 1, "stream RNG seed (first stream's seed)");
  flags.add_int("async-workers", 0,
                "server-side pooled enumeration workers (0 = inline)");
  flags.add_int("gc-every", 0,
                "server-side sliding-window collect() cadence (0 = off)");
  flags.add_string("window-bytes", "",
                   "server-side byte-budget GC trigger (e.g. 4M; empty = off)");
  flags.add_int("poll-every", 0,
                "send a Poll every N events and track telemetry (0 = never)");
  flags.add_bool("oracle", false,
                 "re-run each stream through the offline driver and exit 1 "
                 "unless the state counts match the server's");
  if (!flags.parse(argc, argv)) return 0;

  // A trace fixes the stream entirely, so every synthetic-stream knob is
  // meaningless alongside it — reject the combination rather than silently
  // ignoring half the command line.
  const std::string trace_file = flags.get_string("trace-file");
  const bool from_trace = !trace_file.empty();
  if (from_trace) {
    for (const char* name :
         {"stream-events", "stream-threads", "stream-locks", "sync-prob",
          "seed", "streams"}) {
      if (flags.provided(name)) {
        std::fprintf(stderr,
                     "error: --trace-file and --%s are mutually exclusive "
                     "(the trace already fixes the stream)\n",
                     name);
        return 2;
      }
    }
  }
  const std::uint32_t num_streams = static_cast<std::uint32_t>(
      flags.get_int_in_range("streams", 1, 1 << 10));

  trace::TraceReader reader;
  if (from_trace) {
    trace::TraceError trace_error;
    if (!reader.open(trace_file, &trace_error)) {
      die(trace_file + ": " + trace_error.to_string());
    }
  }

  SyntheticEventStream::Params params;
  params.num_threads = static_cast<std::size_t>(
      flags.get_int_in_range("stream-threads", 1, 512));
  params.num_locks =
      static_cast<std::size_t>(flags.get_int_in_range("stream-locks", 1, 1 << 20));
  params.sync_probability = flags.get_double("sync-prob");
  params.seed = static_cast<std::uint64_t>(
      flags.get_int_in_range("seed", 0, std::numeric_limits<std::int64_t>::max()));
  const std::uint64_t total_events =
      from_trace ? reader.total_events()
                 : static_cast<std::uint64_t>(flags.get_int_in_range(
                       "stream-events", 0, std::int64_t{1} << 40));
  const std::uint64_t poll_every = static_cast<std::uint64_t>(
      flags.get_int_in_range("poll-every", 0, std::int64_t{1} << 40));
  const std::size_t num_threads =
      from_trace ? reader.num_threads() : params.num_threads;

  HelloBody hello;
  hello.num_threads = static_cast<std::uint32_t>(num_threads);
  hello.async_workers = static_cast<std::uint32_t>(
      flags.get_int_in_range("async-workers", 0, 64));
  hello.gc_every = static_cast<std::uint64_t>(flags.get_int_in_range(
      "gc-every", 0, std::numeric_limits<std::int64_t>::max()));
  hello.tenant_id = static_cast<std::uint32_t>(
      flags.get_int_in_range("tenant", 0, std::numeric_limits<std::int32_t>::max()));
  const std::string window_bytes = flags.get_string("window-bytes");
  if (!window_bytes.empty()) {
    std::uint64_t bytes = 0;
    if (!parse_byte_size(window_bytes, &bytes)) {
      std::fprintf(stderr,
                   "error: --window-bytes expects e.g. 4M / 512K / 1G, got "
                   "'%s'\n",
                   window_bytes.c_str());
      return 2;
    }
    hello.window_bytes = bytes;
  }

  Endpoint endpoint;
  std::string error;
  if (!parse_endpoint(flags.get_string("connect"), &endpoint, &error)) {
    std::fprintf(stderr, "error: --connect: %s\n", error.c_str());
    return 2;
  }
  FrameChannel channel(connect_endpoint(endpoint, &error));
  if (channel.fd() < 0) die(error);

  // One logical session per stream. --streams=1 keeps the original wire
  // shape (everything on stream id 0); N>1 uses ids 1..N so the server
  // demultiplexes them into independent sessions.
  struct ClientStream {
    std::uint32_t wire_id = 0;
    SyntheticEventStream::Params params;
    std::unique_ptr<SyntheticEventStream> source;
    std::vector<VectorClock> prev;
    CountsBody final_counts;
  };
  std::vector<ClientStream> streams(num_streams);
  for (std::uint32_t s = 0; s < num_streams; ++s) {
    ClientStream& cs = streams[s];
    cs.wire_id = num_streams == 1 ? 0 : s + 1;
    cs.params = params;
    cs.params.seed = params.seed + s;
    if (!from_trace) {
      cs.source = std::make_unique<SyntheticEventStream>(cs.params);
    }
    cs.prev.assign(num_threads, VectorClock(num_threads));
    if (!channel.write_frame(encode_hello(hello), cs.wire_id)) {
      die("Hello send failed");
    }
    const DecodedFrame ack = expect_reply(channel, Op::kHelloAck, cs.wire_id);
    print_u64("session_id", ack.hello_ack.session_id);
  }

  std::uint64_t resident_max = 0;
  std::uint64_t stats_polls = 0;
  std::uint64_t eviction_alert_threshold = 0;
  bool eviction_alert = false;
  const auto pump = [&](ClientStream& cs, const EventBody& body,
                        std::uint64_t i) {
    if (!channel.write_frame(encode_event(body), cs.wire_id)) {
      die("Event send failed");
    }
    if (poll_every > 0 && (i + 1) % poll_every == 0) {
      if (!channel.write_frame(encode_poll(), cs.wire_id)) {
        die("Poll send failed");
      }
      const DecodedFrame stats = expect_reply(channel, Op::kStats, cs.wire_id);
      resident_max = std::max(resident_max, stats.stats.counts.resident_bytes);
      eviction_alert_threshold = stats.stats.eviction_alert_threshold;
      eviction_alert = eviction_alert || stats.stats.eviction_alert;
      ++stats_polls;
    }
  };
  if (from_trace) {
    trace::TraceCursor cursor = reader.cursor();
    trace::TraceEvent ev;
    trace::TraceError trace_error;
    ClientStream& cs = streams[0];
    for (std::uint64_t i = 0; i < total_events; ++i) {
      const trace::TraceCursor::Status status = cursor.next(&ev, &trace_error);
      if (status != trace::TraceCursor::Status::kOk) {
        die(trace_file + ": " + trace_error.to_string());
      }
      EventBody body;
      body.tid = ev.tid;
      body.kind = ev.kind;
      body.object = ev.object;
      body.delta = delta_encode(cs.prev[ev.tid], ev.clock);
      cs.prev[ev.tid] = ev.clock;
      body.accesses.reserve(ev.accesses.size());
      for (const trace::TraceAccess& a : ev.accesses) {
        body.accesses.push_back(AccessRecord{a.var, a.is_write, a.is_init});
      }
      pump(cs, body, i);
    }
  } else {
    // Round-robin interleave: event i of every stream before event i+1 of
    // any — the shape a fleet collector funnelling many processes through
    // one socket produces.
    for (std::uint64_t i = 0; i < total_events; ++i) {
      for (ClientStream& cs : streams) {
        const SyntheticEventStream::StreamEvent ev = cs.source->next();
        EventBody body;
        body.tid = ev.tid;
        body.kind = ev.kind;
        body.object = ev.object;
        body.delta = delta_encode(cs.prev[ev.tid], ev.clock);
        cs.prev[ev.tid] = ev.clock;
        pump(cs, body, i);
      }
    }
  }

  CountsBody totals;
  for (ClientStream& cs : streams) {
    if (!channel.write_frame(encode_shutdown(), cs.wire_id)) {
      die("Shutdown send failed");
    }
    const DecodedFrame goodbye = expect_reply(channel, Op::kGoodbye,
                                              cs.wire_id);
    cs.final_counts = goodbye.counts;
    totals.events += goodbye.counts.events;
    totals.states += goodbye.counts.states;
    totals.intervals += goodbye.counts.intervals;
    totals.racy_vars += goodbye.counts.racy_vars;
    totals.resident_bytes += goodbye.counts.resident_bytes;
    totals.reclaimed_events += goodbye.counts.reclaimed_events;
    totals.window_evictions += goodbye.counts.window_evictions;
    totals.outstanding_pins += goodbye.counts.outstanding_pins;
  }
  resident_max = std::max(resident_max, totals.resident_bytes);

  print_u64("events", totals.events);
  print_u64("states", totals.states);
  print_u64("intervals", totals.intervals);
  print_u64("racy_vars", totals.racy_vars);
  print_u64("resident_bytes_final", totals.resident_bytes);
  print_u64("resident_bytes_max", resident_max);
  print_u64("reclaimed_events", totals.reclaimed_events);
  print_u64("window_evictions", totals.window_evictions);
  print_u64("outstanding_pins", totals.outstanding_pins);
  print_u64("stats_polls", stats_polls);
  print_u64("frames_sent", channel.io_counts().frames_sent);
  print_u64("send_calls", channel.io_counts().send_calls);
  if (poll_every > 0) {
    print_u64("eviction_alert_threshold", eviction_alert_threshold);
    print_u64("eviction_alert", eviction_alert ? 1 : 0);
  }

  if (totals.events != total_events * num_streams) {
    die("server accepted " + std::to_string(totals.events) + " of " +
        std::to_string(total_events * num_streams) + " events");
  }
  if (totals.outstanding_pins != 0) die("server leaked EnumGuard pins");

  if (flags.get_bool("oracle")) {
    // Identical streams, offline. Synthetic: the same seed regenerates the
    // same clocks, checked per stream. Trace: a second decode of the same
    // file. Either way each recorded poset is the one the server built
    // event by event for that session.
    ParamountOptions options;
    options.num_workers = 2;
    std::uint64_t oracle_total = 0;
    if (from_trace) {
      trace::TraceError trace_error;
      std::uint64_t oracle_states = 0;
      if (!trace::replay_count_offline(reader, options, &oracle_states,
                                       &trace_error)) {
        die(trace_file + ": " + trace_error.to_string());
      }
      oracle_total = oracle_states;
      if (oracle_states != streams[0].final_counts.states) {
        die("oracle mismatch: offline " + std::to_string(oracle_states) +
            " states vs service " +
            std::to_string(streams[0].final_counts.states));
      }
    } else {
      for (const ClientStream& cs : streams) {
        SyntheticEventStream replay(cs.params);
        PosetBuilder builder(cs.params.num_threads);
        for (std::uint64_t i = 0; i < total_events; ++i) {
          const SyntheticEventStream::StreamEvent ev = replay.next();
          builder.add_event_with_clock(ev.tid, ev.kind, ev.object, ev.clock);
        }
        const Poset poset = std::move(builder).build();
        const std::uint64_t oracle_states =
            enumerate_paramount(poset, options, [](const Frontier&) {}).states;
        oracle_total += oracle_states;
        if (oracle_states != cs.final_counts.states) {
          die("oracle mismatch on stream " + std::to_string(cs.wire_id) +
              ": offline " + std::to_string(oracle_states) +
              " states vs service " +
              std::to_string(cs.final_counts.states));
        }
      }
    }
    print_u64("oracle_states", oracle_total);
    std::printf("oracle: match\n");
  }
  return 0;
}
