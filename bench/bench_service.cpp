// bench_service — scale curve for the epoll front end (service mode).
//
// Ramps an in-process EpollServer to N concurrent sessions (N swept
// 100 → 10k by default), all multiplexed over a handful of connections via
// v2 stream ids, and at each plateau measures the Poll round-trip latency
// of a dedicated probe session from a client thread: p50/p99/max over
// --polls lock-step request/replies, plus the process RSS. The claim under
// test is the front end's fairness design (read quanta + one reactor
// thread): p99 Poll latency must stay flat — within 2x — as the idle
// session count grows 100x, and --check enforces exactly that (the CI
// service-scale job runs with --check).
//
// Output: one JSON object (--out=BENCH_service.json) in the same shape as
// the other BENCH_*.json trajectories, with the host and build it ran on
// (--commit names the commit; CI passes its checkout's):
//   {"bench":"service","quick":false,
//    "provenance":{"usable_cpus":4,"cpu_model":"...","compiler":"GNU 12.2.0",
//                  "build_type":"Release","commit":"..."},
//    "runs":[{"sessions":100,"poll_p50_ns":...,"poll_p99_ns":...,
//             "poll_max_ns":...,"rss_bytes":...,"polls":2000}, ...]}
//
// The probe session carries a real (small) event stream before polling so
// Stats replies exercise the full telemetry path, not an empty session.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "service/epoll_server.hpp"
#include "service/frame.hpp"
#include "util/cli.hpp"
#include "workloads/event_stream.hpp"

using namespace paramount;
using namespace paramount::service;

namespace {

// Resident set size from /proc/self/status (kB line), in bytes.
std::uint64_t rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

std::string unique_socket_path() {
  return "/tmp/pm_bench_svc_" + std::to_string(::getpid()) + ".sock";
}

DecodedFrame read_reply(FrameChannel& channel, std::uint32_t expect_stream) {
  std::vector<std::uint8_t> payload;
  std::uint32_t stream = 0;
  const ReadStatus status = channel.read_frame(&payload, &stream);
  if (status != ReadStatus::kFrame || stream != expect_stream) {
    std::fprintf(stderr, "bench_service: transport failure (%s, stream %u)\n",
                 to_string(status), stream);
    std::exit(1);
  }
  DecodedFrame frame;
  if (const auto err = decode_frame(payload, &frame)) {
    std::fprintf(stderr, "bench_service: decode failure: %s\n",
                 err->message.c_str());
    std::exit(1);
  }
  return frame;
}

void hello_stream(FrameChannel& channel, std::uint32_t stream,
                  std::uint32_t num_threads) {
  HelloBody h;
  h.num_threads = num_threads;
  if (!channel.write_frame(encode_hello(h), stream)) {
    std::fprintf(stderr, "bench_service: hello write failed\n");
    std::exit(1);
  }
  if (read_reply(channel, stream).op != Op::kHelloAck) {
    std::fprintf(stderr, "bench_service: expected HelloAck\n");
    std::exit(1);
  }
}

struct Run {
  std::uint64_t sessions;
  std::uint64_t p50_ns;
  std::uint64_t p99_ns;
  std::uint64_t max_ns;
  std::uint64_t rss;
  std::uint64_t polls;
};

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(
      "bench_service — Poll-latency scale curve for the paramountd epoll "
      "front end: p99 round-trip vs concurrent multiplexed session count");
  flags.add_string("scales", "100,1000,4000,10000",
                   "comma-separated idle-session plateaus to measure at");
  flags.add_int("polls", 2000, "Poll round trips timed per plateau");
  flags.add_int("streams-per-conn", 512,
                "sessions multiplexed per connection in the idle fleet");
  flags.add_int("probe-events", 400,
                "events streamed on the probe session before timing");
  flags.add_string("out", "", "write the JSON trajectory here");
  flags.add_string("commit", "none",
                   "commit the binary was built from, for the JSON's "
                   "provenance");
  flags.add_bool("quick", false, "CI-sized run: scales 100,500,2000 and 500 polls");
  flags.add_bool("check", false,
                 "exit 1 unless p99 at the largest plateau stays within 2x "
                 "of p99 at the smallest (the flatness claim)");
  if (!flags.parse(argc, argv)) return 0;

  const bool quick = flags.get_bool("quick");
  std::string scales_spec =
      quick ? "100,500,2000" : flags.get_string("scales");
  const std::uint64_t polls = static_cast<std::uint64_t>(
      quick ? 500 : flags.get_int_in_range("polls", 1, 1 << 20));
  const std::uint32_t per_conn = static_cast<std::uint32_t>(
      flags.get_int_in_range("streams-per-conn", 1, 1 << 16));
  const std::uint64_t probe_events = static_cast<std::uint64_t>(
      flags.get_int_in_range("probe-events", 0, 1 << 20));

  std::vector<std::uint64_t> scales;
  for (std::size_t pos = 0; pos < scales_spec.size();) {
    const std::size_t comma = scales_spec.find(',', pos);
    const std::string tok = scales_spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    scales.push_back(std::strtoull(tok.c_str(), nullptr, 10));
    if (scales.back() == 0) {
      std::fprintf(stderr, "bench_service: bad --scales token '%s'\n",
                   tok.c_str());
      return 1;
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  std::sort(scales.begin(), scales.end());

  EpollServer::Options options;
  options.endpoint.kind = Endpoint::Kind::kUnix;
  options.endpoint.path = unique_socket_path();
  options.max_sessions = static_cast<std::uint32_t>(scales.back() + 16);
  EpollServer server(std::move(options));
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "bench_service: %s\n", error.c_str());
    return 1;
  }
  Endpoint endpoint;
  endpoint.kind = Endpoint::Kind::kUnix;
  endpoint.path = unique_socket_path();

  const auto dial = [&endpoint]() {
    std::string err;
    UniqueFd fd = connect_endpoint(endpoint, &err);
    if (!fd.valid()) {
      std::fprintf(stderr, "bench_service: connect: %s\n", err.c_str());
      std::exit(1);
    }
    return FrameChannel(std::move(fd));
  };

  // The probe: its own connection and a real little event stream, so the
  // timed Polls snapshot live telemetry rather than an empty session.
  FrameChannel probe = dial();
  hello_stream(probe, 0, 4);
  {
    SyntheticEventStream::Params params;
    params.num_threads = 4;
    params.num_locks = 2;
    params.sync_probability = 0.8;
    params.seed = 11;
    SyntheticEventStream stream(params);
    std::vector<VectorClock> prev(4, VectorClock(4));
    for (std::uint64_t i = 0; i < probe_events; ++i) {
      const SyntheticEventStream::StreamEvent ev = stream.next();
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
      if (!probe.write_frame(encode_event(body), 0)) {
        std::fprintf(stderr, "bench_service: event write failed\n");
        return 1;
      }
    }
    // The channel holds the tail of the stream until a flush point; send
    // it now, so the first timed Poll does not carry it.
    if (probe.flush() != FrameChannel::FlushStatus::kDrained) {
      std::fprintf(stderr, "bench_service: event flush failed\n");
      return 1;
    }
  }

  // The idle fleet, ramped cumulatively: each plateau reuses the sessions
  // of the previous one and adds the difference.
  std::vector<std::unique_ptr<FrameChannel>> fleet;
  std::uint32_t fleet_streams_in_last = per_conn;  // force a new conn first
  std::uint64_t fleet_sessions = 0;

  std::vector<Run> runs;
  for (const std::uint64_t target : scales) {
    while (fleet_sessions < target) {
      if (fleet_streams_in_last == per_conn) {
        fleet.push_back(std::make_unique<FrameChannel>(dial()));
        fleet_streams_in_last = 0;
      }
      // Stream ids on fleet connections start at 1: id 0 would tie the
      // session to the connection's lifetime.
      hello_stream(*fleet.back(), ++fleet_streams_in_last, 2);
      ++fleet_sessions;
    }

    std::vector<std::uint64_t> lat;
    lat.reserve(polls);
    for (std::uint64_t i = 0; i < polls; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      if (!probe.write_frame(encode_poll(), 0)) {
        std::fprintf(stderr, "bench_service: poll write failed\n");
        return 1;
      }
      const DecodedFrame reply = read_reply(probe, 0);
      const auto t1 = std::chrono::steady_clock::now();
      if (reply.op != Op::kStats) {
        std::fprintf(stderr, "bench_service: expected Stats, got %s\n",
                     to_string(reply.op));
        return 1;
      }
      lat.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
    }
    std::sort(lat.begin(), lat.end());
    Run run;
    run.sessions = fleet_sessions + 1;  // + the probe
    run.p50_ns = lat[lat.size() / 2];
    run.p99_ns = lat[(lat.size() * 99) / 100 < lat.size()
                         ? (lat.size() * 99) / 100
                         : lat.size() - 1];
    run.max_ns = lat.back();
    run.rss = rss_bytes();
    run.polls = polls;
    runs.push_back(run);
    std::printf("sessions %8llu  poll p50 %8llu ns  p99 %8llu ns  "
                "max %9llu ns  rss %llu MiB\n",
                static_cast<unsigned long long>(run.sessions),
                static_cast<unsigned long long>(run.p50_ns),
                static_cast<unsigned long long>(run.p99_ns),
                static_cast<unsigned long long>(run.max_ns),
                static_cast<unsigned long long>(run.rss >> 20));
    std::fflush(stdout);
  }

  // Orderly teardown: end the probe, then every fleet session, and hold
  // the server to its own hygiene counters.
  if (!probe.write_frame(encode_shutdown(), 0) ||
      read_reply(probe, 0).op != Op::kGoodbye) {
    std::fprintf(stderr, "bench_service: probe shutdown failed\n");
    return 1;
  }
  {
    std::uint32_t conn_index = 0;
    std::uint64_t remaining = fleet_sessions;
    for (auto& conn : fleet) {
      const std::uint32_t streams =
          (++conn_index == fleet.size()) ? fleet_streams_in_last : per_conn;
      for (std::uint32_t s = 1; s <= streams && remaining > 0;
           ++s, --remaining) {
        if (!conn->write_frame(encode_shutdown(), s) ||
            read_reply(*conn, s).op != Op::kGoodbye) {
          std::fprintf(stderr, "bench_service: fleet shutdown failed\n");
          return 1;
        }
      }
    }
  }
  server.stop();
  const ServerStats stats = server.stats();
  if (stats.protocol_errors != 0 || stats.leaked_pins != 0) {
    std::fprintf(stderr,
                 "bench_service: hygiene failure (protocol_errors %llu, "
                 "leaked_pins %llu)\n",
                 static_cast<unsigned long long>(stats.protocol_errors),
                 static_cast<unsigned long long>(stats.leaked_pins));
    return 1;
  }

  const std::string out = flags.get_string("out");
  if (!out.empty()) {
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_service: cannot write %s\n", out.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\"bench\":\"service\",\"quick\":%s,\"provenance\":%s,"
                 "\"runs\":[",
                 quick ? "true" : "false",
                 bench::provenance_json(flags.get_string("commit")).c_str());
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const Run& r = runs[i];
      std::fprintf(f,
                   "%s{\"sessions\":%llu,\"poll_p50_ns\":%llu,"
                   "\"poll_p99_ns\":%llu,\"poll_max_ns\":%llu,"
                   "\"rss_bytes\":%llu,\"polls\":%llu}",
                   i == 0 ? "" : ",",
                   static_cast<unsigned long long>(r.sessions),
                   static_cast<unsigned long long>(r.p50_ns),
                   static_cast<unsigned long long>(r.p99_ns),
                   static_cast<unsigned long long>(r.max_ns),
                   static_cast<unsigned long long>(r.rss),
                   static_cast<unsigned long long>(r.polls));
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }

  if (flags.get_bool("check") && runs.size() >= 2) {
    const Run& first = runs.front();
    const Run& last = runs.back();
    if (last.p99_ns > 2 * first.p99_ns) {
      std::fprintf(stderr,
                   "bench_service: FLATNESS CHECK FAILED — p99 %llu ns at "
                   "%llu sessions vs %llu ns at %llu (over 2x)\n",
                   static_cast<unsigned long long>(last.p99_ns),
                   static_cast<unsigned long long>(last.sessions),
                   static_cast<unsigned long long>(first.p99_ns),
                   static_cast<unsigned long long>(first.sessions));
      return 1;
    }
    std::printf("flatness check: p99 %llu ns -> %llu ns across %llu -> %llu "
                "sessions (within 2x)\n",
                static_cast<unsigned long long>(first.p99_ns),
                static_cast<unsigned long long>(last.p99_ns),
                static_cast<unsigned long long>(first.sessions),
                static_cast<unsigned long long>(last.sessions));
  }
  return 0;
}
