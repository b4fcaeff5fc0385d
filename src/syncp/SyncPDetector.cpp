//===- syncp/SyncPDetector.cpp ------------------------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// The clock here is deliberately *not* HB: it carries program order and
// fork/join edges only. A sync-preserving reordering may drop critical
// sections wholesale, so lock edges prune soundly for WCP but would lose
// races for SyncP; thread order is the largest order every correct
// reordering must respect. The AccessHistory over that clock yields the
// candidate pairs, and the SP-closure (SyncPIndex) is the exact decision
// procedure on each.
//
//===----------------------------------------------------------------------===//

#include "syncp/SyncPDetector.h"

using namespace rapid;

SyncPDetector::SyncPDetector(const Trace &T)
    : ThreadClocks(T.numThreads(), VectorClock(T.numThreads())),
      History(T.numVars(), T.numThreads()) {
  // Local time 1 so "clock 0" unambiguously means "has not seen this
  // thread" (same convention as every other lane).
  for (uint32_t I = 0; I < T.numThreads(); ++I)
    ThreadClocks[I].set(ThreadId(I), 1);
}

void SyncPDetector::incrementLocal(ThreadId T) {
  VectorClock &C = ThreadClocks[T.value()];
  C.set(T, C.get(T) + 1);
}

void SyncPDetector::ensureThread(ThreadId T) {
  if (T.value() < ThreadClocks.size())
    return;
  uint32_t Old = static_cast<uint32_t>(ThreadClocks.size());
  ThreadClocks.resize(T.value() + 1);
  for (uint32_t I = Old; I <= T.value(); ++I)
    ThreadClocks[I].set(ThreadId(I), 1);
}

void SyncPDetector::processEvent(const Event &E, EventIdx Idx) {
  ThreadId T = E.Thread;
  // Grow tables the event touches before taking references (a resize
  // mid-handler would dangle).
  ensureThread(T);
  if (E.Kind == EventKind::Fork || E.Kind == EventKind::Join)
    ensureThread(E.targetThread());
  // The index grows its own lock/var tables on first touch.
  Index.append(E, Idx);
  VectorClock &Ct = ThreadClocks[T.value()];

  switch (E.Kind) {
  case EventKind::Acquire:
  case EventKind::Release:
    // No clock effect: thread order carries no lock edges.
    break;

  case EventKind::Fork:
    ThreadClocks[E.targetThread().value()].joinWith(Ct);
    incrementLocal(T);
    break;

  case EventKind::Join:
    Ct.joinWith(ThreadClocks[E.targetThread().value()]);
    break;

  case EventKind::Read:
  case EventKind::Write: {
    const bool IsWrite = E.Kind == EventKind::Write;
    Scratch.clear();
    if (IsWrite)
      History.checkWrite(E.var(), T, Ct, E.Loc, Idx, Scratch);
    else
      History.checkRead(E.var(), T, Ct, E.Loc, Idx, Scratch);
    for (const RaceInstance &R : Scratch)
      if (Index.isSyncPreservingRace(R.EarlierIdx, R.LaterIdx, &Tel, nullptr))
        Report.addRace(R);
    if (IsWrite)
      History.recordWrite(E.var(), T, Ct.get(T), E.Loc, Idx);
    else
      History.recordRead(E.var(), T, Ct.get(T), E.Loc, Idx);
    break;
  }
  }
}

void SyncPDetector::telemetry(std::vector<MetricSample> &Out) const {
  Out.push_back({"syncp.candidate_pairs", MetricKind::Counter,
                 Tel.CandidatePairs});
  Out.push_back({"syncp.closure_iterations", MetricKind::Counter,
                 Tel.ClosureIterations});
  Out.push_back({"syncp.ideal_peak", MetricKind::HighWater, Tel.IdealPeak});
  Out.push_back({"syncp.index_bytes", MetricKind::HighWater, Index.bytes()});
}
