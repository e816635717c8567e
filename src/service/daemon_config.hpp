// Flag plumbing shared by paramountd and its exit-2 tests:
// registration and validation live here (not in tools/) so the test binary
// can drive the exact code path the daemon runs without forking the tool.
#pragma once

#include <cstdint>
#include <string>

#include "service/channel.hpp"
#include "util/cli.hpp"

namespace paramount::service {

struct DaemonConfig {
  Endpoint endpoint;               // parsed --listen (unix path or tcp:)
  std::uint32_t max_sessions = 1024;
  std::size_t submit_budget_bytes = 0;  // 0 = unbounded
  std::size_t tenant_budget_bytes = 0;  // 0 = per-session gates
  std::uint64_t eviction_alert_threshold = 0;  // 0 = alerting off
};

// Registers --listen / --max-sessions / --submit-budget / --tenant-budget /
// --eviction-alert on `flags`.
void register_daemon_flags(CliFlags& flags);

// Validates the parsed flags and builds the config. Exits 2 with a usage
// message on an invalid value (malformed --listen spec, out-of-range
// --max-sessions, malformed byte sizes) — the same contract as the other
// tools' range checks.
DaemonConfig resolve_daemon_config(const CliFlags& flags);

}  // namespace paramount::service
