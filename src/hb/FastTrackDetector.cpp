//===- hb/FastTrackDetector.cpp -----------------------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#include "hb/FastTrackDetector.h"

using namespace rapid;

FastTrackDetector::FastTrackDetector(const Trace &T)
    : NumThreads(T.numThreads()),
      ThreadClocks(T.numThreads(), VectorClock(T.numThreads())),
      LockClocks(T.numLocks()),
      Vars(T.numVars()) {
  for (uint32_t I = 0; I < NumThreads; ++I)
    ThreadClocks[I].set(ThreadId(I), 1);
}

void FastTrackDetector::incrementLocal(ThreadId T) {
  VectorClock &C = ThreadClocks[T.value()];
  C.set(T, C.get(T) + 1);
}

void FastTrackDetector::ensureThread(ThreadId T) {
  if (T.value() >= NumThreads)
    NumThreads = T.value() + 1;
  if (T.value() < ThreadClocks.size())
    return;
  uint32_t Old = static_cast<uint32_t>(ThreadClocks.size());
  ThreadClocks.resize(T.value() + 1);
  for (uint32_t I = Old; I <= T.value(); ++I)
    ThreadClocks[I].set(ThreadId(I), 1);
}

void FastTrackDetector::ensureLock(LockId L) {
  if (L.value() >= LockClocks.size())
    LockClocks.resize(L.value() + 1);
}

FastTrackDetector::VarState &FastTrackDetector::varState(VarId V) {
  if (V.value() >= Vars.size())
    Vars.resize(V.value() + 1);
  return Vars[V.value()];
}

void FastTrackDetector::reportRace(EventIdx EarlierIdx, LocId EarlierLoc,
                                   EventIdx LaterIdx, LocId LaterLoc,
                                   VarId Var) {
  RaceInstance Inst;
  Inst.EarlierIdx = EarlierIdx;
  Inst.LaterIdx = LaterIdx;
  Inst.EarlierLoc = EarlierLoc;
  Inst.LaterLoc = LaterLoc;
  Inst.Var = Var;
  Report.addRace(Inst);
}

void FastTrackDetector::processEvent(const Event &E, EventIdx Index) {
  ThreadId T = E.Thread;
  // Grow every table the event touches before taking references.
  ensureThread(T);
  if (E.Kind == EventKind::Fork || E.Kind == EventKind::Join)
    ensureThread(E.targetThread());
  else if (E.Kind == EventKind::Acquire || E.Kind == EventKind::Release)
    ensureLock(E.lock());
  VectorClock &Ct = ThreadClocks[T.value()];

  switch (E.Kind) {
  case EventKind::Acquire:
    Ct.joinWith(LockClocks[E.lock().value()]);
    return;

  case EventKind::Release:
    LockClocks[E.lock().value()] = Ct;
    incrementLocal(T);
    return;

  case EventKind::Fork:
    ThreadClocks[E.targetThread().value()].joinWith(Ct);
    incrementLocal(T);
    return;

  case EventKind::Join:
    Ct.joinWith(ThreadClocks[E.targetThread().value()]);
    return;

  case EventKind::Read: {
    VarState &S = varState(E.var());
    Epoch Mine(Ct.get(T), T);
    // Same-epoch shortcut: redundant read. The stored location still
    // advances so that later race reports name the most recent
    // representative of the epoch, matching the full-history detector.
    if (!S.ReadShared && S.Read == Mine) {
      S.ReadLoc = E.Loc;
      S.ReadIdx = Index;
      return;
    }
    // Write-read check.
    if (!S.Write.lessOrEqual(Ct) && S.Write.Thread != T)
      reportRace(S.WriteIdx, S.WriteLoc, Index, E.Loc, E.var());
    if (!S.ReadShared) {
      if (S.Read.isNone() || S.Read.lessOrEqual(Ct) || S.Read.Thread == T) {
        // Exclusive read: stay in epoch mode.
        S.Read = Mine;
        S.ReadLoc = E.Loc;
        S.ReadIdx = Index;
        return;
      }
      // Concurrent reads: promote to vector mode.
      ++ReadPromotions;
      S.ReadShared = true;
      S.ReadVC = VectorClock(NumThreads);
      S.ReadInfo.assign(NumThreads, ReadLocInfo());
      S.ReadVC.set(S.Read.Thread, S.Read.Clock);
      S.ReadInfo[S.Read.Thread.value()] = {S.ReadLoc, S.ReadIdx};
    }
    if (S.ReadInfo.size() <= T.value())
      S.ReadInfo.resize(NumThreads); // Threads admitted after promotion.
    S.ReadVC.set(T, Mine.Clock);
    S.ReadInfo[T.value()] = {E.Loc, Index};
    return;
  }

  case EventKind::Write: {
    VarState &S = varState(E.var());
    Epoch Mine(Ct.get(T), T);
    if (S.Write == Mine) {
      // Same-epoch write: keep the freshest representative (see read).
      S.WriteLoc = E.Loc;
      S.WriteIdx = Index;
      return;
    }
    // Write-write check against the most recent write.
    if (!S.Write.lessOrEqual(Ct) && S.Write.Thread != T)
      reportRace(S.WriteIdx, S.WriteLoc, Index, E.Loc, E.var());
    // Read-write checks. The loop bound is the read vector's physical
    // size: components beyond it are implicitly 0 and cannot race.
    if (S.ReadShared) {
      for (uint32_t U = 0, E2 = S.ReadVC.size(); U < E2; ++U) {
        if (U == T.value())
          continue;
        ClockValue RU = S.ReadVC.get(ThreadId(U));
        if (RU != 0 && RU > Ct.get(ThreadId(U)))
          reportRace(S.ReadInfo[U].Idx, S.ReadInfo[U].Loc, Index, E.Loc,
                     E.var());
      }
    } else if (!S.Read.isNone() && !S.Read.lessOrEqual(Ct) &&
               S.Read.Thread != T) {
      reportRace(S.ReadIdx, S.ReadLoc, Index, E.Loc, E.var());
    }
    S.Write = Mine;
    S.WriteLoc = E.Loc;
    S.WriteIdx = Index;
    return;
  }
  }
}
