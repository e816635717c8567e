// Replay drivers: feed a .pmt trace (trace_reader.hpp) to the enumeration
// engines. One implementation shared by paramount-trace, perfbench's
// pmbench, and the tests, so "replay through mode X" means the same thing
// everywhere.
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
// storage; a hostile file can fail a replay but never abort it.
#pragma once

#include <cstdint>
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
