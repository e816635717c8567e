// Epochs (Flanagan & Freund, PLDI 2009): a single (thread, clock) pair
// standing in for a full vector clock when only one component is live.
//
// The key identity that makes epochs exact rather than approximate: for
// transitively-closed clocks, event e = (t, c) happened-before (or equals)
// an event with clock C iff c <= C[t]. Detector paths that previously asked
// `e.vc.leq(C)` for a frontier event e of thread t can therefore ask the
// O(1) epoch question instead of the O(#threads) componentwise scan — with
// bit-identical answers (see RacePredicate and FastTrackDetector).
#pragma once

#include "poset/vector_clock.hpp"

namespace paramount {

struct Epoch {
  ThreadId tid = 0;
  EventIndex clk = 0;

  bool valid() const { return clk != 0; }

  // epoch ≼ C  iff  clk ≤ C[tid]. C is a VectorClock or an OnlinePoset
  // ClockView.
  template <typename Clock>
  bool happens_before(const Clock& clock) const {
    return clk <= clock[tid];
  }
};

}  // namespace paramount
