// Replay drivers: feed a .pmt trace (trace_reader.hpp) to the enumeration
// engines. One implementation shared by paramount, paramount-trace,
// paramount-client, perfbench's pmbench, and the tests, so "replay through
// mode X" means the same thing everywhere. write_poset_trace is the inverse
// of replay_to_poset: .pmt is the one file format for posets.
//
// The file order of a .pmt written by TraceFileSink or `paramount-trace gen`
// is a valid →p (delivery/generation order respects happened-before), so:
//   * offline:   materialize a Poset and run enumerate_paramount, whose →p
//                interleaves the threads;
//   * streaming: run the same driver with the file order as →p;
//   * online:    submit each event to OnlineParamount as it is decoded.
// All three enumerate the same lattice, hence must report identical state
// counts — the oracle-differential the tests and CI hold the format to.
//
// Every function returns false with a typed *error if the trace is
// defective, or if an online replay would overflow a thread's poset
// storage; a hostile file can fail a replay but never abort it. A replay
// that builds a Poset (offline, streaming) also reports a clock that is not
// transitively closed, which the cursor does not check, as kClockNotClosed;
// the online replay accepts such clocks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/online_paramount.hpp"
#include "core/paramount.hpp"
#include "poset/poset.hpp"
#include "trace/trace_reader.hpp"

namespace paramount::trace {

// Decodes the full trace into an offline Poset. `order` (optional) receives
// the file order of event ids — a valid →p for the driver.
bool replay_to_poset(const TraceReader& reader, Poset* poset,
                     std::vector<EventId>* order, TraceError* error);

// Writes `poset` to a .pmt at `path`, its events in the interleave →p, so
// that replay_to_poset reads back the same poset. False with a typed *error
// if the file cannot be written, or kBadHeader if the poset has no threads
// or more than kMaxThreads.
bool write_poset_trace(const Poset& poset, const std::string& path,
                       TraceError* error);

// Counts consistent global states via the offline driver, over the
// interleave →p.
bool replay_count_offline(const TraceReader& reader,
                          const ParamountOptions& options,
                          std::uint64_t* states, TraceError* error);

// Counts via the offline driver, using the trace's file order as →p.
bool replay_count_streaming(const TraceReader& reader,
                            const ParamountOptions& options,
                            std::uint64_t* states, TraceError* error);

// Counts via OnlineParamount, submitting events in file order.
bool replay_count_online(const TraceReader& reader,
                         const OnlineParamount::Options& options,
                         std::uint64_t* states, TraceError* error);

}  // namespace paramount::trace
