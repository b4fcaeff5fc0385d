//===- hb/HbDetector.cpp ------------------------------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#include "hb/HbDetector.h"

#include "detect/ShardedAccessHistory.h"

using namespace rapid;

HbDetector::HbDetector(const Trace &T)
    : ThreadClocks(T.numThreads(), VectorClock(T.numThreads())),
      ClockEpochs(T.numThreads(), 1),
      LockClocks(T.numLocks()),
      History(T.numVars(), T.numThreads()) {
  // Every thread starts at local time 1 so that "clock 0" unambiguously
  // means "has not seen this thread at all".
  for (uint32_t I = 0; I < T.numThreads(); ++I)
    ThreadClocks[I].set(ThreadId(I), 1);
}

void HbDetector::incrementLocal(ThreadId T) {
  VectorClock &C = ThreadClocks[T.value()];
  C.set(T, C.get(T) + 1);
}

void HbDetector::ensureThread(ThreadId T) {
  if (T.value() < ThreadClocks.size())
    return;
  uint32_t Old = static_cast<uint32_t>(ThreadClocks.size());
  ThreadClocks.resize(T.value() + 1);
  ClockEpochs.resize(T.value() + 1, 1);
  for (uint32_t I = Old; I <= T.value(); ++I)
    ThreadClocks[I].set(ThreadId(I), 1);
}

void HbDetector::ensureLock(LockId L) {
  if (L.value() >= LockClocks.size())
    LockClocks.resize(L.value() + 1);
}

void HbDetector::processEvent(const Event &E, EventIdx Index) {
  ThreadId T = E.Thread;
  // Grow every table the event touches *before* taking references into
  // them (a resize mid-handler would dangle).
  ensureThread(T);
  if (E.Kind == EventKind::Fork || E.Kind == EventKind::Join)
    ensureThread(E.targetThread());
  else if (E.Kind == EventKind::Acquire || E.Kind == EventKind::Release)
    ensureLock(E.lock());
  VectorClock &Ct = ThreadClocks[T.value()];

  switch (E.Kind) {
  case EventKind::Acquire:
    if (Ct.joinWith(LockClocks[E.lock().value()]))
      ++ClockEpochs[T.value()];
    break;

  case EventKind::Release:
    LockClocks[E.lock().value()] = Ct;
    // Later events of T must not appear ordered before events that only
    // synchronized with this release.
    incrementLocal(T);
    ++ClockEpochs[T.value()];
    break;

  case EventKind::Fork: {
    ThreadId Child = E.targetThread();
    if (ThreadClocks[Child.value()].joinWith(Ct))
      ++ClockEpochs[Child.value()];
    incrementLocal(T);
    ++ClockEpochs[T.value()];
    break;
  }

  case EventKind::Join:
    if (Ct.joinWith(ThreadClocks[E.targetThread().value()]))
      ++ClockEpochs[T.value()];
    break;

  case EventKind::Read: {
    if (Capture) {
      Capture->record(Index, E.var(), T, E.Loc, /*IsWrite=*/false, Ct.get(T),
                      Ct, ClockEpochs[T.value()], nullptr);
      break;
    }
    Scratch.clear();
    History.checkRead(E.var(), T, Ct, E.Loc, Index, Scratch);
    for (const RaceInstance &R : Scratch)
      Report.addRace(R);
    History.recordRead(E.var(), T, Ct.get(T), E.Loc, Index);
    break;
  }

  case EventKind::Write: {
    if (Capture) {
      Capture->record(Index, E.var(), T, E.Loc, /*IsWrite=*/true, Ct.get(T),
                      Ct, ClockEpochs[T.value()], nullptr);
      break;
    }
    Scratch.clear();
    History.checkWrite(E.var(), T, Ct, E.Loc, Index, Scratch);
    for (const RaceInstance &R : Scratch)
      Report.addRace(R);
    History.recordWrite(E.var(), T, Ct.get(T), E.Loc, Index);
    break;
  }
  }
}
