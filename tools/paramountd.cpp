// paramountd: trace-driven service mode. Listens on a Unix-domain socket or
// a TCP endpoint, runs one online ParaMount session per client session
// (window GC and pooled enumeration per the client's Hello), and answers
// Poll frames with live telemetry. One epoll reactor thread (EpollServer)
// serves every connection and, via the v2 frame header's stream ids, many
// sessions per connection. See README "Service mode" for the protocol and
// tools/paramount_client.cpp for a replay client.
#include <csignal>
#include <cstdio>

#include "service/daemon_config.hpp"
#include "service/epoll_server.hpp"
#include "util/cli.hpp"

using namespace paramount;
using namespace paramount::service;

namespace {

void print_stats(const ServerStats& stats) {
  std::printf("connections_accepted: %llu\n",
              static_cast<unsigned long long>(stats.connections_accepted));
  std::printf("sessions_accepted: %llu\n",
              static_cast<unsigned long long>(stats.sessions_accepted));
  std::printf("sessions_completed: %llu\n",
              static_cast<unsigned long long>(stats.sessions_completed));
  std::printf("sessions_rejected: %llu\n",
              static_cast<unsigned long long>(stats.sessions_rejected));
  std::printf("clean_shutdowns: %llu\n",
              static_cast<unsigned long long>(stats.clean_shutdowns));
  std::printf("protocol_errors: %llu\n",
              static_cast<unsigned long long>(stats.protocol_errors));
  std::printf("leaked_pins: %llu\n",
              static_cast<unsigned long long>(stats.leaked_pins));
  std::printf("recv_calls: %llu\n",
              static_cast<unsigned long long>(stats.recv_calls));
  std::printf("bytes_received: %llu\n",
              static_cast<unsigned long long>(stats.bytes_received));
  std::printf("reactor_wakes: %llu\n",
              static_cast<unsigned long long>(stats.reactor_wakes));
}

// The bound endpoint: a TCP port of 0 resolves to the one the kernel chose.
std::string endpoint_label(const Endpoint& endpoint, const EpollServer& server) {
  if (endpoint.kind == Endpoint::Kind::kTcp) {
    return "tcp:" + endpoint.host + ":" + std::to_string(server.tcp_port());
  }
  return endpoint.path;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(
      "paramountd — online ParaMount enumeration/race-detection server over "
      "Unix-domain or TCP sockets (length-prefixed binary frames; see "
      "README \"Service mode\")");
  register_daemon_flags(flags);
  if (!flags.parse(argc, argv)) return 0;
  const DaemonConfig config = resolve_daemon_config(flags);

  // Block the termination signals before any thread spawns so every thread
  // inherits the mask and sigwait() below is the only consumer.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  EpollServer::Options options;
  options.endpoint = config.endpoint;
  options.max_sessions = config.max_sessions;
  options.submit_budget_bytes = config.submit_budget_bytes;
  options.tenant_budget_bytes = config.tenant_budget_bytes;
  options.eviction_alert_threshold = config.eviction_alert_threshold;
  EpollServer server(std::move(options));
  std::string error;
  ListenUnixError why = ListenUnixError::kNone;
  if (!server.start(&error, &why)) {
    std::fprintf(stderr, "paramountd: %s\n", error.c_str());
    // The typed refusal a second daemon instance gets instead of stealing a
    // live daemon's socket.
    return why == ListenUnixError::kLiveListener ? 3 : 1;
  }
  std::printf("paramountd: listening on %s (max-sessions %u, submit-budget "
              "%zu bytes, tenant-budget %zu bytes)\n",
              endpoint_label(config.endpoint, server).c_str(),
              config.max_sessions, config.submit_budget_bytes,
              config.tenant_budget_bytes);
  std::fflush(stdout);
  int sig = 0;
  sigwait(&signals, &sig);
  std::printf("paramountd: signal %d, draining\n", sig);
  server.stop();
  const ServerStats stats = server.stats();

  print_stats(stats);
  return stats.leaked_pins == 0 ? 0 : 1;
}
