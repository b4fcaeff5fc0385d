//===- bench/bench_scaling.cpp - Theorem 3: O(N·(T² + L)) (E3) ----------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// The paper's headline complexity claim: Algorithm 1 runs in time
// N·(T² + L) — linear in the trace length, the only parameter that is
// ever large. Three sweeps probe the three parameters independently and
// print ns/event (best of 3 walks):
//
//   * N: WCP's cost per event must stay flat as N grows (linearity), and
//     sit near HB's, the baseline the paper compares against in cols 12-13;
//   * T: per-event cost grows with T (the T² term comes from the queue
//     fan-out — visible but irrelevant at realistic T < 25);
//   * L: per-event cost is insensitive to the number of locks actually
//     used per access (the L term bounds held-lock iteration).
//
// Environment: RAPID_SCALE (default 1) scales every sweep's event count.
//
//===----------------------------------------------------------------------===//

#include "detect/DetectorRunner.h"
#include "gen/RandomTraceGen.h"
#include "hb/HbDetector.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"
#include "wcp/WcpDetector.h"

#include <algorithm>
#include <cstdlib>

using namespace rapid;

namespace {

Trace makeTrace(uint32_t Threads, uint32_t Locks, double Events) {
  RandomTraceParams P;
  P.Seed = 42;
  P.NumThreads = Threads;
  P.NumLocks = Locks;
  P.NumVars = 64;
  P.OpsPerThread = std::max(1u, static_cast<uint32_t>(Events / Threads));
  P.MaxLockNesting = 2;
  P.AcquirePercent = 15;
  return randomTrace(P);
}

template <typename D> std::string nsPerEvent(const Trace &T) {
  double Best = 1e30;
  for (int Rep = 0; Rep != 3; ++Rep) {
    Timer Clock;
    D Detector(T);
    runDetector(Detector, T);
    Best = std::min(Best, Clock.seconds());
  }
  return std::to_string(static_cast<uint64_t>(Best * 1e9 / T.size()));
}

} // namespace

int main() {
  double Scale = 1.0;
  if (const char *S = std::getenv("RAPID_SCALE"))
    Scale = std::atof(S);
  TablePrinter Table({"sweep", "threads", "locks", "events", "WCP ns/event",
                      "HB ns/event"});
  auto row = [&](const char *Sweep, uint32_t Threads, uint32_t Locks,
                 double Events) {
    Trace T = makeTrace(Threads, Locks, Events * Scale);
    Table.addRow({Sweep, std::to_string(Threads), std::to_string(Locks),
                  std::to_string(T.size()), nsPerEvent<WcpDetector>(T),
                  nsPerEvent<HbDetector>(T)});
  };
  for (double N : {1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 19})
    row("N", 4, 8, N);
  for (uint32_t Threads : {2, 4, 8, 16, 32})
    row("T", Threads, 8, 1 << 16);
  for (uint32_t Locks : {2, 4, 16, 64, 256, 512})
    row("L", 4, Locks, 1 << 16);
  Table.print();
  return 0;
}
