//===- syncp/SyncPIndex.cpp ---------------------------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// Why the lock rule only needs the frontiers' open acquires: take two
// included acquires a1 < a2 on lock l. If a1 is not its thread's last
// included acquire of l, the thread's next acquire of l is included and
// a1's release precedes it in program order (no reentrant locking) — the
// rule is already satisfied. Otherwise a1's release is either inside the
// thread's prefix (satisfied) or past it, i.e. a1 is on the held-lock
// stack of the thread's frontier event. And a2, being later on the same
// lock, belongs to another thread, whose latest included acquire of l is
// the one to compare against. So each round checks, for every frontier,
// each held lock against one binary search per other thread.
//
// Every firing pulls a release past its thread's frontier, so the ideal
// grows strictly and the loop terminates at the least fixpoint — the same
// set the reference oracle's event-by-event walk saturates to, because
// both apply exactly the rules listed in the header and each rule is
// monotone.
//
//===----------------------------------------------------------------------===//

#include "syncp/SyncPIndex.h"

#include <algorithm>
#include <cassert>

using namespace rapid;

void SyncPIndex::append(const Event &E, EventIdx Index) {
  assert(Index == Events.size() && "events must arrive dense, in trace order");
  const uint32_t T = E.Thread.value();
  thread(T);
  if (E.Kind == EventKind::Fork || E.Kind == EventKind::Join)
    thread(E.targetThread().value());
  ThreadRec &TR = Threads[T];

  // The new row starts from the thread's previous event (program order),
  // or from its fork for a first event. The record goes in first so that
  // tsEnd() of the previous last event stops at the new row.
  const uint32_t Width = static_cast<uint32_t>(Threads.size());
  const uint64_t Off = Ts.size();
  const uint32_t Local = static_cast<uint32_t>(TR.Events.size()) + 1;
  Events.push_back(EventRec{T, Local, Off});
  Ts.resize(Off + Width, 0);
  auto JoinRow = [this, Off](EventIdx Src) { joinInto(&Ts[Off], Src); };
  if (!TR.Events.empty())
    JoinRow(TR.Events.back());
  else if (TR.Fork != kNone)
    JoinRow(TR.Fork);
  Ts[Off + T] = Local;

  switch (E.Kind) {
  case EventKind::Read: {
    const uint32_t V = E.var().value();
    if (V < LastWrite.size() && LastWrite[V] != kNone)
      JoinRow(LastWrite[V]);
    break;
  }
  case EventKind::Write: {
    const uint32_t V = E.var().value();
    if (V >= LastWrite.size())
      LastWrite.resize(V + 1, kNone);
    LastWrite[V] = Index;
    break;
  }
  case EventKind::Fork:
    Threads[E.targetThread().value()].Fork = Index;
    break;
  case EventKind::Join: {
    const ThreadRec &Child = Threads[E.targetThread().value()];
    if (!Child.Events.empty())
      JoinRow(Child.Events.back());
    break;
  }
  case EventKind::Acquire: {
    const uint32_t L = E.lock().value();
    std::vector<AcqRec> &List = acquires(L, T);
    HeldNodes.push_back(
        HeldNode{L, static_cast<uint32_t>(List.size()), TR.HeldTop});
    TR.HeldTop = static_cast<uint32_t>(HeldNodes.size() - 1);
    List.push_back(AcqRec{Local, Index});
    ++NumAcquires;
    break;
  }
  case EventKind::Release: {
    // Unlink the lock from the thread's stack. Stacks are persistent
    // (earlier events still point at their nodes), so the nodes above a
    // non-innermost release — hand-over-hand locking — are copied.
    const uint32_t L = E.lock().value();
    Above.clear();
    uint32_t N = TR.HeldTop;
    for (; N != 0 && HeldNodes[N].Lock != L; N = HeldNodes[N].Next)
      Above.push_back(N);
    if (N == 0)
      break; // Not held by this thread (unvalidated input): no section.
    acquires(L, T)[HeldNodes[N].Pos].Rel = Index;
    uint32_t Top = HeldNodes[N].Next;
    for (auto It = Above.rbegin(); It != Above.rend(); ++It) {
      HeldNode Copy = HeldNodes[*It];
      Copy.Next = Top;
      HeldNodes.push_back(Copy);
      Top = static_cast<uint32_t>(HeldNodes.size() - 1);
    }
    TR.HeldTop = Top;
    break;
  }
  }

  TR.Events.push_back(Index);
  TR.Held.push_back(TR.HeldTop);
}

void SyncPIndex::joinInto(uint32_t *Into, EventIdx I) const {
  const uint64_t From = Events[I].TsOff, To = tsEnd(I);
  for (uint64_t K = From; K != To; ++K)
    Into[K - From] = std::max(Into[K - From], Ts[K]);
}

bool SyncPIndex::laterAcquireIncluded(uint32_t Lock, uint32_t T, EventIdx Acq,
                                      const std::vector<uint32_t> &Ideal) const {
  const std::vector<std::vector<AcqRec>> &PerThread = Acquires[Lock];
  const uint32_t NumThreads = static_cast<uint32_t>(
      std::min<size_t>(PerThread.size(), Ideal.size()));
  for (uint32_t U = 0; U != NumThreads; ++U) {
    const std::vector<AcqRec> &List = PerThread[U];
    if (U == T || Ideal[U] == 0 || List.empty() || List.back().Acq < Acq)
      continue;
    // U's first acquire after Acq is its earliest candidate; it is inside
    // the ideal iff U's frontier reaches it.
    auto It = std::upper_bound(
        List.begin(), List.end(), Acq,
        [](EventIdx A, const AcqRec &R) { return A < R.Acq; });
    if (It->Local <= Ideal[U])
      return true;
  }
  return false;
}

bool SyncPIndex::isSyncPreservingRace(EventIdx E1, EventIdx E2,
                                      SyncPTelemetry *Tel,
                                      std::vector<uint32_t> *IdealOut) const {
  assert(E1 < E2 && E2 < Events.size() &&
         "candidates must arrive in trace order");
  const EventRec &A = Events[E1], &B = Events[E2];
  std::vector<uint32_t> Ideal(Threads.size(), 0);
  // Seeds: each endpoint's program-order predecessor, or its thread's
  // fork for a first event (the thread must at least be started).
  for (const EventRec *R : {&A, &B}) {
    const ThreadRec &TR = Threads[R->Thread];
    const EventIdx Seed = R->Local > 1 ? TR.Events[R->Local - 2] : TR.Fork;
    if (Seed != kNone)
      joinInto(Ideal.data(), Seed);
  }
  auto Swallowed = [&] {
    return Ideal[A.Thread] >= A.Local || Ideal[B.Thread] >= B.Local;
  };

  bool Racy = !Swallowed();
  uint64_t Rounds = 0;
  for (bool Changed = true; Changed && Racy;) {
    ++Rounds;
    Changed = false;
    for (uint32_t T = 0; T != Ideal.size() && Racy; ++T) {
      uint32_t N = Ideal[T] ? Threads[T].Held[Ideal[T] - 1] : 0;
      while (N != 0) {
        const HeldNode &H = HeldNodes[N];
        const AcqRec &Open = Acquires[H.Lock][T][H.Pos];
        // A later included acquire implies the section closed before it,
        // so Rel exists whenever the rule fires on a valid trace.
        if (Open.Rel == kNone ||
            !laterAcquireIncluded(H.Lock, T, Open.Acq, Ideal)) {
          N = H.Next;
          continue;
        }
        joinInto(Ideal.data(), Open.Rel);
        Changed = true;
        if (Swallowed()) {
          Racy = false;
          break;
        }
        // T's frontier moved past the release: rescan its new stack.
        N = Threads[T].Held[Ideal[T] - 1];
      }
    }
  }

  if (Tel) {
    uint64_t Size = 0;
    for (uint32_t F : Ideal)
      Size += F;
    ++Tel->CandidatePairs;
    Tel->ClosureIterations += std::max<uint64_t>(Rounds, 1);
    Tel->IdealPeak = std::max(Tel->IdealPeak, Size);
  }
  if (Racy && IdealOut)
    *IdealOut = std::move(Ideal);
  return Racy;
}

std::vector<EventIdx> SyncPIndex::witness(const std::vector<uint32_t> &Ideal,
                                          EventIdx E1, EventIdx E2) const {
  std::vector<EventIdx> W;
  for (uint32_t T = 0; T != Ideal.size(); ++T)
    W.insert(W.end(), Threads[T].Events.begin(),
             Threads[T].Events.begin() + Ideal[T]);
  std::sort(W.begin(), W.end());
  W.push_back(E1);
  W.push_back(E2);
  return W;
}

uint64_t SyncPIndex::bytes() const {
  uint64_t B = Events.capacity() * sizeof(EventRec) +
               Ts.capacity() * sizeof(uint32_t) +
               HeldNodes.capacity() * sizeof(HeldNode) +
               LastWrite.capacity() * sizeof(EventIdx) +
               NumAcquires * sizeof(AcqRec);
  for (const ThreadRec &TR : Threads)
    B += TR.Events.capacity() * sizeof(EventIdx) +
         TR.Held.capacity() * sizeof(uint32_t);
  return B;
}
