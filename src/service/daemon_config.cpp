#include "service/daemon_config.hpp"

#include <cstdio>
#include <cstdlib>

namespace paramount::service {

void register_daemon_flags(CliFlags& flags) {
  flags.add_string("listen", "paramountd.sock",
                   "endpoint to listen on: a Unix-domain socket path, "
                   "unix:PATH, or tcp:HOST:PORT");
  flags.add_int("max-sessions", 1024,
                "concurrent client sessions; further session attempts get a "
                "session-limit error frame");
  flags.add_string("submit-budget", "",
                   "per-session submit-queue byte budget; the server stops "
                   "reading a session's socket while this much interval work "
                   "is in flight (e.g. 4M; empty = unbounded)");
  flags.add_string("tenant-budget", "",
                   "shared submit budget per Hello tenant id: sessions of "
                   "one tenant share a quota, so a flooding tenant stalls "
                   "only its own streams (e.g. 16M; empty = per-session "
                   "budgets)");
  flags.add_int("eviction-alert", 0,
                "flag eviction_alert in Stats replies once a session's "
                "window_evictions reaches this (0 = off)");
}

namespace {

std::size_t parse_budget_flag(const CliFlags& flags, const char* name) {
  const std::string value = flags.get_string(name);
  if (value.empty()) return 0;
  std::uint64_t bytes = 0;
  if (!parse_byte_size(value, &bytes)) {
    std::fprintf(stderr, "error: --%s expects e.g. 4M / 512K / 1G, got '%s'\n",
                 name, value.c_str());
    std::exit(2);
  }
  return static_cast<std::size_t>(bytes);
}

}  // namespace

DaemonConfig resolve_daemon_config(const CliFlags& flags) {
  DaemonConfig config;
  std::string error;
  if (!parse_endpoint(flags.get_string("listen"), &config.endpoint, &error)) {
    std::fprintf(stderr, "error: --listen: %s\n", error.c_str());
    std::exit(2);
  }
  // The server holds ~one fd plus a SessionCore per session, so the
  // ceiling is fd-table-scale, not thread-scale.
  config.max_sessions = static_cast<std::uint32_t>(
      flags.get_int_in_range("max-sessions", 1, 1 << 20));
  config.submit_budget_bytes = parse_budget_flag(flags, "submit-budget");
  config.tenant_budget_bytes = parse_budget_flag(flags, "tenant-budget");
  config.eviction_alert_threshold = static_cast<std::uint64_t>(
      flags.get_int_in_range("eviction-alert", 0, 1LL << 40));
  return config;
}

}  // namespace paramount::service
