//===- wcp/WcpDetector.cpp - Algorithm 1 implementation -----------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#include "wcp/WcpDetector.h"

#include "detect/ShardedAccessHistory.h"

#include <algorithm>
#include <cstddef>

using namespace rapid;

WcpDetector::WcpDetector(const Trace &T)
    : NumThreads(T.numThreads()),
      Threads(T.numThreads(), WcpThreadState(T.numThreads())),
      History(T.numVars(), T.numThreads()) {
  Locks.reserve(T.numLocks());
  for (uint32_t I = 0; I < T.numLocks(); ++I)
    Locks.emplace_back(NumThreads);
  // Initialization (§3.2): N_t = 1, P_t = ⊥, H_t = K_t = ⊥[t := N_t].
  for (uint32_t I = 0; I < NumThreads; ++I) {
    Threads[I].H.set(ThreadId(I), 1);
    Threads[I].K.set(ThreadId(I), 1);
  }
}

void WcpDetector::currentC(ThreadId T, VectorClock &Out) const {
  // The *effective* time of the thread's last event: WCP predecessors
  // plus hard (fork/join) order. Two events a <tr b satisfy
  // currentC(a) ⊑ currentC(b) iff a ≤WCP b in the fork/join-extended
  // sense (Theorem 2).
  //
  // Composed in one pass over P_t/K_t's components into caller-owned
  // storage — no intermediate copy-then-join, and per-event callers
  // (the Theorem 2 harness walks every event) reuse \p Out's capacity
  // instead of allocating a clock per call.
  const WcpThreadState &TS = Threads[T.value()];
  Out.clear();
  const uint32_t N = std::max(TS.P.size(), TS.K.size());
  for (uint32_t U = 0; U != N; ++U)
    Out.set(ThreadId(U),
            std::max(TS.P.get(ThreadId(U)), TS.K.get(ThreadId(U))));
  Out.set(T, TS.N);
}

VectorClock WcpDetector::currentC(ThreadId T) const {
  VectorClock C;
  currentC(T, C);
  return C;
}

bool WcpDetector::frontLeqCt(const VectorClock &Front,
                             const WcpThreadState &TS, ThreadId T) const {
  // The guard tests "acquire ordered before this release" — hard
  // (fork/join) order counts, so the comparison is against P_t ⊔ K_t.
  // Only Front's physical components can exceed anything (the implicit
  // tail is 0), so the loop bound is Front's size, not the thread count.
  for (uint32_t U = 0, E = Front.size(); U < E; ++U) {
    ClockValue Mine =
        U == T.value()
            ? TS.N
            : std::max(TS.P.get(ThreadId(U)), TS.K.get(ThreadId(U)));
    if (Front.get(ThreadId(U)) > Mine)
      return false;
  }
  return true;
}

void WcpDetector::ensureThread(ThreadId T) {
  if (T.value() >= NumThreads) {
    // Every enqueue credited the abstract copies of the threads that
    // existed then; a thread admitted now can still pop the entries left
    // in the shared queues, so credit its share of them too — otherwise
    // its pops would debit copies that were never counted.
    const uint32_t Added = T.value() + 1 - NumThreads;
    if (QueuedCopies != 0)
      bumpAbstract(QueuedCopies * Added);
    NumThreads = T.value() + 1;
  }
  if (T.value() < Threads.size())
    return;
  uint32_t Old = static_cast<uint32_t>(Threads.size());
  Threads.resize(T.value() + 1, WcpThreadState());
  for (uint32_t I = Old; I <= T.value(); ++I) {
    // Initialization (§3.2), exactly as the constructor performs it.
    Threads[I].H.set(ThreadId(I), 1);
    Threads[I].K.set(ThreadId(I), 1);
  }
}

void WcpDetector::ensureLock(LockId L) {
  if (L.value() >= Locks.size())
    Locks.resize(L.value() + 1);
}

void WcpDetector::collectLockGarbage(WcpLockState &LS) {
  // An entry below every cursor can never be popped by a *current*
  // thread again — but a thread declared later starts with a fresh
  // cursor, and in the up-front-construction world it would have walked
  // these entries. Collection is safe for such future threads only once
  // the entry's release time is covered by its own thread's P: every
  // other thread's P covers it already (they popped it), so from that
  // point *any* release of this lock publishes a P_ℓ ⊒ ReleaseTime, and
  // a future thread must acquire (joining P_ℓ) before it can release and
  // walk the queue — its pop of the entry would be a no-op join. New
  // cursors therefore start at Base (WcpLockState::cursorOf).
  uint64_t End = LS.collectibleEnd(NumThreads);
  while (LS.Base < End && !LS.Entries.empty()) {
    const WcpQueueEntry &E = LS.Entries.front();
    if (!E.HasRelease ||
        !E.ReleaseTime.lessOrEqual(Threads[E.Thread.value()].P))
      break;
    LS.Entries.popFront();
    ++LS.Base;
    --RetainedEntries;
    QueuedCopies -= 2; // A collected entry always carries its release.
  }
}

void WcpDetector::bumpAbstract(int64_t Delta) {
  CurrentAbstract += Delta;
  assert(CurrentAbstract >= 0 && "queue accounting went negative");
  if (static_cast<uint64_t>(CurrentAbstract) > Stats.MaxAbstractQueueEntries)
    Stats.MaxAbstractQueueEntries = static_cast<uint64_t>(CurrentAbstract);
}

void WcpDetector::bumpLive(int64_t Delta) {
  CurrentLive += Delta;
  assert(CurrentLive >= 0 && "live queue accounting went negative");
  if (static_cast<uint64_t>(CurrentLive) > Stats.MaxLiveQueueEntries)
    Stats.MaxLiveQueueEntries = static_cast<uint64_t>(CurrentLive);
}

void WcpDetector::handleAcquire(ThreadId T, LockId L) {
  WcpThreadState &TS = Threads[T.value()];
  WcpLockState &LS = Locks[L.value()];

  // Lines 1-2: receive the H/P times of the last release of ℓ.
  TS.H.joinWith(LS.H);
  if (TS.P.joinWith(LS.P))
    ++TS.PEpoch;

  // First contact with ℓ: this thread's abstract queues become live, and
  // all pending entries of other threads now count against them.
  if (!LS.touched(T.value())) {
    LS.threadOf(T.value()).Touched = true;
    uint64_t Pending = 0;
    for (uint64_t I = LS.Base; I < LS.logicalEnd(); ++I) {
      const WcpQueueEntry &E = LS.entry(I);
      if (E.Thread != T)
        Pending += E.HasRelease ? 2 : 1;
    }
    LS.PerThread[T.value()].Live = Pending;
    bumpLive(static_cast<int64_t>(Pending));
  }

  // Line 3: enqueue C_t into Acq_ℓ(t') for every t' ≠ t. One shared entry
  // stands for all T-1 abstract copies.
  uint64_t LogicalIdx = LS.logicalEnd();
  WcpQueueEntry &Entry = LS.Entries.pushBack(TS.P, T);
  Entry.AcquireTime.set(T, TS.N); // Materialize C_t = P_t[t := N_t].
  ++QueuedCopies;
  Stats.MaxRetainedQueueEntries =
      std::max(Stats.MaxRetainedQueueEntries, ++RetainedEntries);
  bumpAbstract(static_cast<int64_t>(NumThreads) - 1);
  // Touchers beyond the per-thread array's physical size don't exist, so
  // its size bounds the live accounting loop.
  for (uint32_t U = 0, E = static_cast<uint32_t>(LS.PerThread.size()); U < E;
       ++U) {
    if (U != T.value() && LS.PerThread[U].Touched) {
      ++LS.PerThread[U].Live;
      bumpLive(1);
    }
  }
  Stats.MaxSharedQueueEntries = std::max(
      Stats.MaxSharedQueueEntries, static_cast<uint64_t>(LS.Entries.size()));

  if (TS.Depth == TS.CsStack.size())
    TS.CsStack.emplace_back();
  WcpCsFrame &Frame = TS.CsStack[TS.Depth++];
  Frame.Lock = L;
  Frame.EntryLogicalIdx = LogicalIdx;
  Frame.ReadVars.clear();
  Frame.WriteVars.clear();
}

void WcpDetector::handleRelease(ThreadId T, LockId L) {
  WcpThreadState &TS = Threads[T.value()];
  WcpLockState &LS = Locks[L.value()];

  // Lines 4-6: Rule (b). Pop critical sections of other threads whose
  // acquire is already ⊑ C_t; their release H-times become WCP
  // predecessors of this release. C_t changes as P_t grows, so the guard
  // is re-evaluated every iteration, exactly like the pseudocode's while.
  uint64_t &Cur = LS.cursorOf(T.value());
  uint64_t &MyLive = LS.PerThread[T.value()].Live;
  for (;;) {
    // Entries by T itself are not part of T's abstract queues (Line 3
    // enqueues only to other threads).
    while (Cur < LS.logicalEnd() && LS.entry(Cur).Thread == T)
      ++Cur;
    if (Cur >= LS.logicalEnd())
      break;
    WcpQueueEntry &Front = LS.entry(Cur);
    if (!frontLeqCt(Front.AcquireTime, TS, T))
      break;
    // Lock semantics guarantees this critical section closed before our
    // matching acquire, so its release time is present (see WcpState.h).
    assert(Front.HasRelease && "popping an open critical section");
    if (TS.P.joinWith(Front.ReleaseTime))
      ++TS.PEpoch;
    ++Cur;
    bumpAbstract(-2); // One entry leaves Acq_ℓ(T) and one leaves Rel_ℓ(T).
    assert(MyLive >= 2 && "live count out of sync");
    MyLive -= 2;
    bumpLive(-2);
  }

  // Lines 7-8: Rule (a) bookkeeping. Publish H_t into L^r/L^w for every
  // variable this critical section read (R) or wrote (W). Hand-over-hand
  // locking means the released section need not be the innermost one.
  size_t FrameIdx = TS.Depth;
  for (size_t K = TS.Depth; K-- > 0;) {
    if (TS.CsStack[K].Lock == L) {
      FrameIdx = K;
      break;
    }
  }
  assert(FrameIdx < TS.Depth && "release without open section");
  // Retire the frame: rotate it to the end of the open frames (the ones
  // above it keep their order) and shrink Depth past it.
  std::rotate(TS.CsStack.begin() + static_cast<ptrdiff_t>(FrameIdx),
              TS.CsStack.begin() + static_cast<ptrdiff_t>(FrameIdx) + 1,
              TS.CsStack.begin() + TS.Depth);
  WcpCsFrame &Frame = TS.CsStack[--TS.Depth];

  auto dedupe = [](std::vector<uint32_t> &Vars) {
    std::sort(Vars.begin(), Vars.end());
    Vars.erase(std::unique(Vars.begin(), Vars.end()), Vars.end());
  };
  dedupe(Frame.ReadVars);
  dedupe(Frame.WriteVars);
  for (uint32_t X : Frame.ReadVars)
    LS.Releases.cell(VarId(X)).Read.add(T.value(), TS.H);
  for (uint32_t X : Frame.WriteVars)
    LS.Releases.cell(VarId(X)).Write.add(T.value(), TS.H);

  // Line 9: this release becomes the last release of ℓ.
  LS.H = TS.H;
  LS.P = TS.P;

  // Line 10: enqueue H_t into Rel_ℓ(t') for t' ≠ t — i.e. complete the
  // shared entry our matching acquire created.
  WcpQueueEntry &Own = LS.entry(Frame.EntryLogicalIdx);
  assert(Own.Thread == T && !Own.HasRelease && "queue entry mismatch");
  Own.ReleaseTime = TS.H;
  Own.HasRelease = true;
  ++QueuedCopies;
  bumpAbstract(static_cast<int64_t>(NumThreads) - 1);
  for (uint32_t U = 0, E = static_cast<uint32_t>(LS.PerThread.size()); U < E;
       ++U) {
    if (U != T.value() && LS.PerThread[U].Touched) {
      ++LS.PerThread[U].Live;
      bumpLive(1);
    }
  }

  collectLockGarbage(LS);

  // Local clock increment: N_t advances before the next event of T
  // because this event is a release.
  TS.IncrementNext = true;
}

void WcpDetector::handleRead(ThreadId T, VarId X, LocId Loc, EventIdx Index) {
  WcpThreadState &TS = Threads[T.value()];
  // Line 11: Rule (a). For every enclosing critical section over ℓ,
  // releases of ℓ (by other threads) whose sections *wrote* x precede
  // this read: P_t ⊔= ⊔_{ℓ∈L} L^w_{ℓ,x}. The access belongs to the R set
  // of *every* open section (sections may overlap without nesting, so
  // bubbling on release would be wrong).
  for (uint32_t K = 0; K != TS.Depth; ++K) {
    WcpCsFrame &Frame = TS.CsStack[K];
    if (const WcpVarReleases *C = Locks[Frame.Lock.value()].Releases.find(X))
      if (C->Write.joinIntoExcluding(TS.P, T.value()))
        ++TS.PEpoch;
    Frame.ReadVars.push_back(X.value());
  }

  // Race check (§3.2): W_x ⊑ C_e, with C_e = P_t[t := N_t]. The history
  // check reads only other threads' components, so P_t stands in for C_e.
  if (Capture) {
    Capture->record(Index, X, T, Loc, /*IsWrite=*/false, TS.N, TS.P,
                    TS.PEpoch, &TS.K, TS.KEpoch);
    return;
  }
  Scratch.clear();
  History.checkRead(X, T, TS.P, Loc, Index, Scratch, &TS.K);
  for (const RaceInstance &R : Scratch)
    Report.addRace(R);
  History.recordRead(X, T, TS.N, Loc, Index);
}

void WcpDetector::handleWrite(ThreadId T, VarId X, LocId Loc,
                              EventIdx Index) {
  WcpThreadState &TS = Threads[T.value()];
  // Line 12: Rule (a). Releases of enclosing locks (by other threads)
  // whose sections read *or* wrote x precede this write:
  // P_t ⊔= ⊔_{ℓ∈L} (L^r_{ℓ,x} ⊔ L^w_{ℓ,x}).
  for (uint32_t K = 0; K != TS.Depth; ++K) {
    WcpCsFrame &Frame = TS.CsStack[K];
    if (const WcpVarReleases *C =
            Locks[Frame.Lock.value()].Releases.find(X)) {
      if (C->Read.joinIntoExcluding(TS.P, T.value()))
        ++TS.PEpoch;
      if (C->Write.joinIntoExcluding(TS.P, T.value()))
        ++TS.PEpoch;
    }
    Frame.WriteVars.push_back(X.value());
  }

  // Race check (§3.2): R_x ⊔ W_x ⊑ C_e.
  if (Capture) {
    Capture->record(Index, X, T, Loc, /*IsWrite=*/true, TS.N, TS.P,
                    TS.PEpoch, &TS.K, TS.KEpoch);
    return;
  }
  Scratch.clear();
  History.checkWrite(X, T, TS.P, Loc, Index, Scratch, &TS.K);
  for (const RaceInstance &R : Scratch)
    Report.addRace(R);
  History.recordWrite(X, T, TS.N, Loc, Index);
}

void WcpDetector::processEvent(const Event &E, EventIdx Index) {
  ++EventsProcessed;
  ThreadId T = E.Thread;
  // Grow every table the event touches before taking references into
  // them (a resize mid-handler would dangle).
  ensureThread(T);
  if (E.Kind == EventKind::Fork || E.Kind == EventKind::Join)
    ensureThread(E.targetThread());
  else if (E.Kind == EventKind::Acquire || E.Kind == EventKind::Release)
    ensureLock(E.lock());
  WcpThreadState &TS = Threads[T.value()];
  if (TS.IncrementNext) {
    ++TS.N;
    TS.H.set(T, TS.N); // Maintain H_t(t) = N_t.
    TS.K.set(T, TS.N); // ... and K_t(t) = N_t.
    ++TS.KEpoch;
    TS.IncrementNext = false;
  }

  switch (E.Kind) {
  case EventKind::Acquire:
    handleAcquire(T, E.lock());
    return;
  case EventKind::Release:
    handleRelease(T, E.lock());
    return;
  case EventKind::Read:
    handleRead(T, E.var(), E.Loc, Index);
    return;
  case EventKind::Write:
    handleWrite(T, E.var(), E.Loc, Index);
    return;

  case EventKind::Fork: {
    // fork(t, u) is an HB edge (so the child inherits H_t for rule (c)
    // composition and P_t for transitive WCP predecessors) *and* a hard
    // order edge (no correct reordering can start u before the fork),
    // which lives in K_t only — see WcpState.h. The parent's local clock
    // then advances so its later events stay unordered with the child.
    ThreadId Child = E.targetThread();
    WcpThreadState &CS = Threads[Child.value()];
    CS.H.joinWith(TS.H);
    CS.H.set(Child, CS.N); // Preserve H_u(u) = N_u.
    if (CS.P.joinWith(TS.P))
      ++CS.PEpoch;
    if (CS.K.joinWith(TS.K))
      ++CS.KEpoch;
    CS.K.set(Child, CS.N); // No-op by K_u(u) = N_u; epoch already bumped.
    TS.IncrementNext = true;
    return;
  }

  case EventKind::Join: {
    // join(t, u): symmetric.
    ThreadId Child = E.targetThread();
    WcpThreadState &CS = Threads[Child.value()];
    TS.H.joinWith(CS.H);
    TS.H.set(T, TS.N);
    if (TS.P.joinWith(CS.P))
      ++TS.PEpoch;
    if (TS.K.joinWith(CS.K))
      ++TS.KEpoch;
    TS.K.set(T, TS.N); // No-op by K_t(t) = N_t; epoch covered above.
    return;
  }
  }
}
