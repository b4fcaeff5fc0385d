//===- reference/SyncPOracle.cpp ----------------------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// The SP-closure (POPL'21, §4): an *ideal* is a union of per-thread
// program-order prefixes. Starting from the prefixes strictly below the two
// candidate events, the closure saturates four rules:
//
//   (po)    the ideal is program-order downward closed (by construction:
//           inclusion walks the Prev chain down to the old frontier);
//   (read)  a read in the ideal pulls its trace-last writer — the trace-
//           order linearization then shows every read its original writer
//           (writes between them do not exist in the trace, and later
//           writes sort after);
//   (lock)  if two acquires of the same lock are both in the ideal, the
//           trace-earlier one's release must be too. Incrementally: keep
//           the maximal included acquire per lock; a newly included
//           acquire either displaces the maximum (pulling the displaced
//           one's release) or sits below it (pulling its own release).
//           Every included acquire except the per-lock maximum therefore
//           ends with its release included — the linearization has at most
//           one trailing open section per lock, and sections on one lock
//           appear in trace order: sync-preserving by construction;
//   (thread) a thread's first event pulls its fork; a join pulls the
//           child's last event (program order then closes the child).
//
// The pair is a race iff saturation never forces an event at or past
// either endpoint into its endpoint's thread prefix ("swallowing" the
// candidate). On success the ideal, linearized in trace order with the two
// candidates appended, is a correct reordering co-enabling the pair.
//
// Rule order does not matter: inclusion is monotone and each event is
// processed exactly once, so the fixpoint is unique — the incremental
// (lock) bookkeeping preserves it because "all processed acquires except
// the current per-lock maximum have their release pulled" is invariant
// under any processing order.
//
//===----------------------------------------------------------------------===//

#include "reference/SyncPOracle.h"

#include <algorithm>
#include <cassert>

using namespace rapid;

namespace {

void ensure(std::vector<EventIdx> &V, uint32_t I) {
  if (I >= V.size())
    V.resize(I + 1, SyncPOracle::kNone);
}

} // namespace

SyncPOracle::SyncPOracle(const Trace &T) {
  std::vector<EventIdx> LastOfThread; // Per thread: last event.
  std::vector<EventIdx> ForkOf;       // Per thread: its fork event.
  std::vector<EventIdx> OpenAcq;      // Per lock: open acquire.
  std::vector<EventIdx> LastWrite;    // Per var: last write.
  Nodes.reserve(T.size());
  for (EventIdx Index = 0; Index != T.size(); ++Index) {
    const Event &E = T.event(Index);
    const uint32_t Th = E.Thread.value();
    ensure(LastOfThread, Th);
    ensure(ForkOf, Th);

    Node N;
    N.Thread = E.Thread;
    N.Kind = E.Kind;
    N.Prev = LastOfThread[Th];
    N.Fork = ForkOf[Th];

    switch (E.Kind) {
    case EventKind::Acquire:
      N.Target = E.lock().value();
      ensure(OpenAcq, N.Target);
      OpenAcq[N.Target] = Index;
      break;
    case EventKind::Release: {
      N.Target = E.lock().value();
      ensure(OpenAcq, N.Target);
      EventIdx Acq = OpenAcq[N.Target];
      if (Acq != kNone) {
        Nodes[Acq].Aux = Index;
        OpenAcq[N.Target] = kNone;
      }
      break;
    }
    case EventKind::Read:
      N.Target = E.var().value();
      ensure(LastWrite, N.Target);
      N.Aux = LastWrite[N.Target];
      break;
    case EventKind::Write:
      N.Target = E.var().value();
      ensure(LastWrite, N.Target);
      LastWrite[N.Target] = Index;
      break;
    case EventKind::Fork: {
      const uint32_t Child = E.targetThread().value();
      N.Target = Child;
      ensure(ForkOf, Child);
      ForkOf[Child] = Index;
      break;
    }
    case EventKind::Join: {
      const uint32_t Child = E.targetThread().value();
      N.Target = Child;
      ensure(LastOfThread, Child);
      N.Aux = LastOfThread[Child];
      break;
    }
    }

    LastOfThread[Th] = Index;
    Nodes.push_back(N);
  }
}

namespace {

/// One closure run's working set. Thread/lock tables grow to the ids the
/// walk actually meets.
struct ClosureState {
  static constexpr EventIdx kNone = SyncPOracle::kNone;

  std::vector<EventIdx> Frontier; ///< Per thread: highest included event.
  std::vector<EventIdx> MaxAcq;   ///< Per lock: maximal included acquire.
  std::vector<EventIdx> Pending;  ///< Included, closure rules not yet run.
  std::vector<EventIdx> Included; ///< Every ideal member, for the witness.
  EventIdx E1, E2;                ///< The candidates (the ideal's ceiling).
  ThreadId T1, T2;
  bool Swallowed = false; ///< A rule demanded an event >= its endpoint.

  EventIdx frontier(uint32_t T) const {
    return T < Frontier.size() ? Frontier[T] : kNone;
  }
};

} // namespace

bool SyncPOracle::isSyncPreservingRace(EventIdx E1, EventIdx E2,
                                       std::vector<EventIdx> *WitnessOut) const {
  assert(E1 < E2 && "candidates must arrive in trace order");
  ClosureState S;
  S.E1 = E1;
  S.E2 = E2;
  S.T1 = Nodes[E1].Thread;
  S.T2 = Nodes[E2].Thread;

  // Includes X and, transitively via the Prev chain, its whole program-
  // order prefix above the thread's current frontier. Fails the closure
  // when X reaches an endpoint's own suffix — the reordering would have to
  // *execute* the candidate, which is exactly what co-enabledness forbids.
  auto include = [this, &S](EventIdx X) {
    const uint32_t T = Nodes[X].Thread.value();
    const EventIdx Old = S.frontier(T);
    if (Old != ClosureState::kNone && Old >= X)
      return;
    if ((Nodes[X].Thread == S.T1 && X >= S.E1) ||
        (Nodes[X].Thread == S.T2 && X >= S.E2)) {
      S.Swallowed = true;
      return;
    }
    if (T >= S.Frontier.size())
      S.Frontier.resize(T + 1, ClosureState::kNone);
    S.Frontier[T] = X;
    for (EventIdx C = X; C != Old; C = Nodes[C].Prev) {
      S.Pending.push_back(C);
      if (Nodes[C].Prev == ClosureState::kNone)
        break; // Thread's first event; Old is kNone.
    }
  };

  auto seed = [this, &include](EventIdx E) {
    const Node &N = Nodes[E];
    if (N.Prev != kNone)
      include(N.Prev);
    else if (N.Fork != kNone)
      include(N.Fork); // First event: the thread must at least be started.
  };
  seed(E1);
  seed(E2);

  while (!S.Pending.empty() && !S.Swallowed) {
    const EventIdx X = S.Pending.back();
    S.Pending.pop_back();
    S.Included.push_back(X);
    const Node &N = Nodes[X];
    if (N.Prev == kNone && N.Fork != kNone)
      include(N.Fork);
    switch (N.Kind) {
    case EventKind::Read:
    case EventKind::Join:
      if (N.Aux != kNone)
        include(N.Aux);
      break;
    case EventKind::Acquire: {
      if (N.Target >= S.MaxAcq.size())
        S.MaxAcq.resize(N.Target + 1, ClosureState::kNone);
      EventIdx &Max = S.MaxAcq[N.Target];
      EventIdx NeedsRelease = kNone;
      if (Max == ClosureState::kNone) {
        Max = X;
      } else if (X > Max) {
        NeedsRelease = Max;
        Max = X;
      } else {
        NeedsRelease = X;
      }
      if (NeedsRelease != kNone) {
        // A displaced acquire sits trace-before another included acquire
        // on the same lock, so its section closed before that acquire.
        const EventIdx Rel = Nodes[NeedsRelease].Aux;
        assert(Rel != kNone && "non-maximal section must be closed");
        if (Rel != kNone)
          include(Rel);
      }
      break;
    }
    default:
      break;
    }
  }

  if (S.Swallowed)
    return false;
  if (WitnessOut) {
    std::sort(S.Included.begin(), S.Included.end());
    S.Included.push_back(E1);
    S.Included.push_back(E2);
    *WitnessOut = std::move(S.Included);
  }
  return true;
}
