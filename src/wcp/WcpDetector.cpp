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
      Locks(T.numLocks()), History(T.numVars(), T.numThreads()) {
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

bool WcpDetector::joinReleaseTime(VectorClock &Into,
                                  const WcpQueueEntry &E) const {
  assert(E.hasRelease() && "joining an open critical section");
  // Into already covers H_r when it knows r's thread at r's N (the epoch
  // test, WcpQueueEntry). Otherwise joining the snapshot, whose own
  // component is at most ReleaseN, and then raising that component to
  // ReleaseN joins H_r exactly.
  if (Into.get(ThreadId(E.Thread)) >= E.ReleaseN)
    return false;
  Into.joinWith(Snapshots[E.ReleaseH]);
  Into.set(ThreadId(E.Thread), E.ReleaseN);
  return true;
}

uint32_t WcpDetector::snapshot(const VectorClock &C, uint64_t Version,
                               uint32_t &Snap, uint64_t &SnapVersion) {
  if (SnapVersion != Version) {
    Snapshots.retake(Snap, C);
    SnapVersion = Version;
  }
  return Snap;
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
    // H_r ⊑ P, by the epoch test (WcpQueueEntry).
    if (!E.hasRelease() ||
        E.ReleaseN > Threads[E.Thread].P.get(ThreadId(E.Thread)))
      break;
    Snapshots.release(E.ReleaseH);
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

  // Lines 1-2: receive the H/P times of the last release r of ℓ. When T
  // performed r itself, both are T's own earlier H_t and P_t, which its
  // clocks already cover (they only grow): nothing to join. Otherwise a
  // clock that knows r's thread at r's N covers H_r (the epoch test,
  // WcpQueueEntry), and with it P_ℓ ⊑ H_r.
  if (LS.LastThread != T.value() &&
      LS.LastThread != WcpLockState::kNoThread) {
    const ThreadId R(LS.LastThread);
    if (TS.H.get(R) < LS.LastN) {
      TS.H.joinWith(Snapshots[LS.LastH]);
      TS.H.set(R, LS.LastN);
      ++TS.HEpoch;
    }
    if (TS.P.get(R) < LS.LastN && TS.P.joinWith(Snapshots[LS.LastP]))
      ++TS.PEpoch;
  }

  // First contact with ℓ: this thread's abstract queues become live, and
  // all retained entries now count against them (none is T's own: T
  // enqueues its first below).
  if (!LS.touched(T.value())) {
    if (LS.Logging && LS.Touchers != 0)
      buildCells(LS); // The second toucher's picks need the cells.
    LS.threadOf(T.value(), LockArrayBytes).Touched = true;
    ++LS.Touchers;
    bumpLive(static_cast<int64_t>(LS.queuedCopies()));
  }

  // Line 3: enqueue C_t into Acq_ℓ(t') for every t' ≠ t, as the epoch
  // N_t@t (WcpQueueEntry). One shared entry stands for all T-1 abstract
  // copies.
  const uint64_t LogicalIdx = LS.logicalEnd();
  LS.Entries.pushBack({T.value(), TS.N}, LockArrayBytes);
  ++QueuedCopies;
  Stats.MaxRetainedQueueEntries =
      std::max(Stats.MaxRetainedQueueEntries, ++RetainedEntries);
  bumpAbstract(static_cast<int64_t>(NumThreads) - 1);
  bumpLive(static_cast<int64_t>(LS.Touchers) - 1);
  Stats.MaxSharedQueueEntries = std::max(
      Stats.MaxSharedQueueEntries, static_cast<uint64_t>(LS.Entries.size()));

  TS.CsStack.push_back({L, LogicalIdx});
}

void WcpDetector::handleRelease(ThreadId T, LockId L) {
  WcpThreadState &TS = Threads[T.value()];
  WcpLockState &LS = Locks[L.value()];

  // Lines 4-6: Rule (b). Pop critical sections of other threads whose
  // acquire is already ⊑ C_t; their release H-times become WCP
  // predecessors of this release. C_t changes as P_t grows, so the guard
  // is re-evaluated every iteration, exactly like the pseudocode's while.
  uint64_t &Cur = LS.cursorOf(T.value(), LockArrayBytes);
  for (;;) {
    // Entries by T itself are not part of T's abstract queues (Line 3
    // enqueues only to other threads).
    while (Cur < LS.logicalEnd() && LS.entry(Cur).Thread == T.value())
      ++Cur;
    if (Cur >= LS.logicalEnd())
      break;
    // Line 4's guard, Acq_ℓ(t).Front() ⊑ C_t, by the epoch test
    // (WcpQueueEntry). Hard (fork/join) order counts, so C_t is
    // P_t ⊔ K_t with N_t for t; the front is another thread's entry.
    const WcpQueueEntry &Front = LS.entry(Cur);
    const ThreadId U(Front.Thread);
    if (Front.AcquireN > std::max(TS.P.get(U), TS.K.get(U)))
      break;
    // Lock semantics guarantees this critical section closed before our
    // matching acquire, so its release time is present (see WcpState.h).
    if (joinReleaseTime(TS.P, Front))
      ++TS.PEpoch;
    ++Cur;
    bumpAbstract(-2); // One entry leaves Acq_ℓ(T) and one leaves Rel_ℓ(T).
    bumpLive(-2);
  }

  // Lines 7-8 (rule (a) bookkeeping) already ran at the section's
  // accesses: each named this section's queue entry in its L^r/L^w cell,
  // and Line 10 below stores H_t in that entry. Hand-over-hand locking
  // means the released section need not be the innermost one.
  size_t FrameIdx = TS.CsStack.size();
  for (size_t K = TS.CsStack.size(); K-- > 0;) {
    if (TS.CsStack[K].Lock == L) {
      FrameIdx = K;
      break;
    }
  }
  assert(FrameIdx < TS.CsStack.size() && "release without open section");
  const uint64_t OwnIdx = TS.CsStack[FrameIdx].EntryLogicalIdx;
  TS.CsStack.erase(TS.CsStack.begin() + static_cast<ptrdiff_t>(FrameIdx));

  // Line 9: this release becomes the last release of ℓ (P_ℓ := P_t,
  // H_ℓ := H_t, by reference).
  const uint32_t HSnap = snapshot(TS.H, TS.HEpoch, TS.HSnap, TS.HSnapEpoch);
  Snapshots.assign(LS.LastP,
                   snapshot(TS.P, TS.PEpoch, TS.PSnap, TS.PSnapEpoch));
  Snapshots.assign(LS.LastH, HSnap);
  LS.LastThread = T.value();
  LS.LastN = TS.N;

  // Line 10: enqueue H_t into Rel_ℓ(t') for t' ≠ t — i.e. complete the
  // shared entry our matching acquire created.
  WcpQueueEntry &Own = LS.entry(OwnIdx);
  assert(Own.Thread == T.value() && !Own.hasRelease() &&
         "queue entry mismatch");
  Snapshots.retain(HSnap);
  Own.ReleaseH = HSnap;
  Own.ReleaseN = TS.N;
  ++QueuedCopies;
  bumpAbstract(static_cast<int64_t>(NumThreads) - 1);
  bumpLive(static_cast<int64_t>(LS.Touchers) - 1);

  collectLockGarbage(LS);

  // Local clock increment: N_t advances before the next event of T
  // because this event is a release.
  TS.IncrementNext = true;
}

void WcpDetector::buildCells(WcpLockState &LS) {
  // Replaying the logs in queue order gives each cell the two latest
  // releases it would hold had the sections recorded there. Collected
  // entries are not replayed: every pick skips them (WcpReleaseClocks).
  for (uint64_t I = LS.Base; I != LS.logicalEnd(); ++I) {
    const WcpQueueEntry &E = LS.entry(I);
    if (E.Logged == WcpQueueEntry::kNotLogged)
      continue;
    WcpVarReleases &C =
        LS.Releases.cell(VarId(E.Logged >> 2), LockArrayBytes);
    if (E.Logged & WcpQueueEntry::kLoggedRead)
      C.Read.add(E.Thread, I);
    if (E.Logged & WcpQueueEntry::kLoggedWrite)
      C.Write.add(E.Thread, I);
  }
  LS.Logging = false;
}

void WcpDetector::applyRuleA(WcpThreadState &TS, ThreadId T, VarId X,
                             bool IsWrite) {
  // For every enclosing critical section over ℓ, releases of ℓ (by other
  // threads) whose sections wrote x precede a read (Line 11: P_t ⊔=
  // ⊔_{ℓ∈L} L^w_{ℓ,x}), and those whose sections read or wrote x precede
  // a write (Line 12: P_t ⊔= ⊔_{ℓ∈L} (L^r_{ℓ,x} ⊔ L^w_{ℓ,x})). The access
  // belongs to the R or W set of *every* open section (sections may
  // overlap without nesting, so bubbling on release would be wrong), and
  // enters it here rather than at release (Lines 7-8): the cell names
  // the section's queue entry now (see WcpReleaseClocks for why that is
  // exact).
  for (const WcpCsFrame &Frame : TS.CsStack) {
    WcpLockState &LS = Locks[Frame.Lock.value()];
    if (LS.Logging) {
      if (LS.entry(Frame.EntryLogicalIdx).log(X, IsWrite))
        continue; // T is ℓ's one toucher: no other thread's release.
      buildCells(LS);
    }
    WcpVarReleases &C = LS.Releases.cell(X, LockArrayBytes);
    const uint64_t Pick = IsWrite ? C.latestAccessExcluding(T.value())
                                  : C.Write.latestExcluding(T.value());
    if (const WcpQueueEntry *E = LS.releaseEntry(Pick))
      if (joinReleaseTime(TS.P, *E))
        ++TS.PEpoch;
    (IsWrite ? C.Write : C.Read).add(T.value(), Frame.EntryLogicalIdx);
  }
}

void WcpDetector::handleRead(ThreadId T, VarId X, LocId Loc, EventIdx Index) {
  WcpThreadState &TS = Threads[T.value()];
  applyRuleA(TS, T, X, /*IsWrite=*/false);

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
  applyRuleA(TS, T, X, /*IsWrite=*/true);

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
    if (CS.H.joinWith(TS.H))
      ++CS.HEpoch;
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
    if (TS.H.joinWith(CS.H))
      ++TS.HEpoch;
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
