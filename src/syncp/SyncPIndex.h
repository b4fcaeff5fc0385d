//===- syncp/SyncPIndex.h - Event index for SP-closure ----------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-event index the sync-preserving closure runs over (after Mathur,
/// Pavlogiannis, Viswanathan, "Optimal Prediction of Synchronization-
/// Preserving Races", POPL'21 — PAPERS.md). A *sync-preserving* correct
/// reordering may drop critical sections entirely, but any two sections on
/// the same lock that both survive must keep their trace order; a pair of
/// conflicting events is a sync-preserving race iff some such reordering
/// co-enables both. That is decidable per pair by a *closure*: the least
/// "ideal" (a union of per-thread program-order prefixes) that contains
/// both endpoints' program-order predecessors and is closed under
///
///   (po)     program order;
///   (thread) a thread's first event pulls its fork; a join pulls the
///            child's last event;
///   (read)   a read pulls its trace-last writer;
///   (lock)   of two included acquires on one lock, the trace-earlier
///            one's release is included too.
///
/// The pair races iff neither endpoint ends up inside the ideal.
///
/// The first three rules each have a single premise, so the closure of a
/// set under them is the union of its members' closures — a vector
/// timestamp. The index computes that *TRF timestamp* (thread order,
/// reads-from, fork/join; no lock edges) for every event as it is
/// appended, in O(T), and stores it flat. Deciding a candidate then starts
/// from the join of its two seeds' timestamps and applies only the lock
/// rule until a fixpoint: an acquire still open at some thread's frontier,
/// when a later acquire of the same lock lies inside the ideal, pulls its
/// release's timestamp in. A round costs a walk of the frontier events'
/// held-lock stacks plus a binary search per other thread in the per-
/// (thread, lock) acquire lists, and each firing one O(T) join — none of
/// it proportional to the trace prefix. A candidate costs a round or two
/// on the workloads measured; only one whose ideal must absorb a long
/// chain of critical sections pays a join per section.
///
/// reference/SyncPOracle.h computes the same least fixpoint by walking
/// node edges one event at a time; tests/syncp_test.cpp pins the two
/// engines decision-for-decision and ideal-for-ideal. All tables grow on
/// first touch, so threads/locks/vars declared mid-stream cost O(1).
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_SYNCP_SYNCPINDEX_H
#define RAPID_SYNCP_SYNCPINDEX_H

#include "trace/Trace.h"

#include <cstdint>
#include <vector>

namespace rapid {

/// Closure telemetry of one detector instance.
struct SyncPTelemetry {
  uint64_t CandidatePairs = 0;    ///< Candidates decided.
  uint64_t ClosureIterations = 0; ///< Fixpoint rounds (>= 1 per candidate).
  uint64_t IdealPeak = 0;         ///< Largest ideal (Σ frontier) reached.
};

/// Append-only event index + the SP-closure over TRF timestamps.
class SyncPIndex {
public:
  static constexpr EventIdx kNone = UINT64_MAX;

  /// Appends the \p Index-th event (indices must be dense from 0, i.e.
  /// trace order) and computes its TRF timestamp.
  void append(const Event &E, EventIdx Index);

  /// Decides whether the conflicting pair (\p E1, \p E2), E1 < E2, is a
  /// sync-preserving race: runs the lock-rule fixpoint from the seeds'
  /// joined timestamps and succeeds iff neither endpoint is forced into
  /// the ideal. On success, \p IdealOut (if non-null) receives the ideal
  /// as a per-thread frontier: entry t is the number of thread t's events
  /// it holds. \p Tel (if non-null) accumulates closure telemetry.
  bool isSyncPreservingRace(EventIdx E1, EventIdx E2, SyncPTelemetry *Tel,
                            std::vector<uint32_t> *IdealOut) const;

  /// The witness schedule of a racy pair's ideal: its events in trace
  /// order, then \p E1, \p E2 — the shape verify/Reordering's
  /// checkRaceWitness validates.
  std::vector<EventIdx> witness(const std::vector<uint32_t> &Ideal,
                                EventIdx E1, EventIdx E2) const;

  /// Bytes held by the index's tables (dominated by the O(N·T) timestamp
  /// table).
  uint64_t bytes() const;

private:
  struct EventRec {
    uint32_t Thread;
    uint32_t Local; ///< 1-based position in its thread.
    uint64_t TsOff; ///< Start of its timestamp in Ts.
  };
  struct ThreadRec {
    std::vector<EventIdx> Events; ///< By local time - 1.
    std::vector<uint32_t> Held;   ///< Held-lock stack after each event.
    EventIdx Fork = kNone;        ///< The fork that starts this thread.
    uint32_t HeldTop = 0;         ///< Current held-lock stack.
  };
  struct AcqRec {
    uint32_t Local; ///< The acquire's local time.
    EventIdx Acq;
    EventIdx Rel = kNone; ///< Backfilled at the matching release.
  };
  /// A persistent held-lock stack node; node 0 is the empty stack.
  struct HeldNode {
    uint32_t Lock;
    uint32_t Pos;  ///< Index of the acquire in Acquires[Lock][thread].
    uint32_t Next;
  };

  uint64_t tsEnd(EventIdx I) const {
    return I + 1 < Events.size() ? Events[I + 1].TsOff : Ts.size();
  }
  /// Joins \p I's timestamp into the row \p Into (at least as wide).
  void joinInto(uint32_t *Into, EventIdx I) const;
  /// True iff some acquire of \p Lock later than \p Acq, by a thread other
  /// than \p T, lies inside \p Ideal.
  bool laterAcquireIncluded(uint32_t Lock, uint32_t T, EventIdx Acq,
                            const std::vector<uint32_t> &Ideal) const;
  ThreadRec &thread(uint32_t T) {
    if (T >= Threads.size())
      Threads.resize(T + 1);
    return Threads[T];
  }
  std::vector<AcqRec> &acquires(uint32_t Lock, uint32_t T) {
    if (Lock >= Acquires.size())
      Acquires.resize(Lock + 1);
    if (T >= Acquires[Lock].size())
      Acquires[Lock].resize(T + 1);
    return Acquires[Lock][T];
  }

  std::vector<EventRec> Events;
  std::vector<uint32_t> Ts; ///< Flat TRF timestamps, one row per event.
  std::vector<ThreadRec> Threads;
  std::vector<std::vector<std::vector<AcqRec>>> Acquires; ///< [lock][thread]
  std::vector<HeldNode> HeldNodes{HeldNode{0, 0, 0}};
  std::vector<EventIdx> LastWrite; ///< Per var: last write.
  std::vector<uint32_t> Above;     ///< Release scratch: nodes to re-link.
  uint64_t NumAcquires = 0;
};

} // namespace rapid

#endif // RAPID_SYNCP_SYNCPINDEX_H
