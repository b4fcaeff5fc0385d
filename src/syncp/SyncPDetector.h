//===- syncp/SyncPDetector.h - Sync-preserving race detector ----*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Streaming sync-preserving race prediction (Mathur–Pavlogiannis–
/// Viswanathan, POPL'21 — PAPERS.md): a conflicting pair races iff some
/// correct reordering co-enables it while keeping every pair of surviving
/// same-lock critical sections in trace order. SyncP predicts strictly
/// more races than WCP on real traces (reorderings may *drop* sections
/// outright, which no partial-order lane can express) while every report
/// stays sound — the closure that accepts a pair also constructs the
/// witness reordering, and the soundness suite replays those witnesses
/// through verify/Reordering's checker.
///
/// The lane runs in two steps, both in one pass over the stream:
///
///   prefilter    a thread-order clock (program order + fork/join only —
///                no lock edges) prunes pairs that no reordering could
///                co-enable; candidates are the per-(thread, kind)
///                last-access records AccessHistory keeps, so the
///                enumeration policy (and its last-access-only caveat)
///                matches the HB/WCP lanes exactly;
///   decision     each surviving candidate runs the SP-closure over the
///                SyncPIndex's vector timestamps: a join of two seeds and
///                a lock-rule fixpoint of a few binary searches, not a
///                walk of the trace prefix.
///
/// Deciding a candidate costs under a microsecond, so the lane does not
/// split by variable: beginCapture keeps the base class's "no", and
/// var-sharded sessions run this sequential walk — which is the reference
/// every mode is pinned to anyway.
///
/// All state grows on first touch (implicit-zero VectorClock extension,
/// growable index tables), so threads/vars/locks declared mid-stream cost
/// O(1) and never restart the lane.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_SYNCP_SYNCPDETECTOR_H
#define RAPID_SYNCP_SYNCPDETECTOR_H

#include "detect/AccessHistory.h"
#include "detect/Detector.h"
#include "syncp/SyncPIndex.h"
#include "vc/VectorClock.h"

#include <vector>

namespace rapid {

/// Streaming sync-preserving race detector.
class SyncPDetector : public Detector {
public:
  explicit SyncPDetector(const Trace &T);

  void processEvent(const Event &E, EventIdx Index) override;
  std::string name() const override { return "SyncP"; }

  void telemetry(std::vector<MetricSample> &Out) const override;

  /// Testing hooks: the closure index and the thread-order clock (the
  /// oracle pin re-enumerates the lane's candidates from it).
  const SyncPIndex &index() const { return Index; }
  const VectorClock &threadClock(ThreadId T) const {
    return ThreadClocks[T.value()];
  }

private:
  void incrementLocal(ThreadId T);
  /// Admits threads [size, T]: local time 1, as at construction.
  void ensureThread(ThreadId T);

  /// Thread-order clocks C_t: program order plus fork/join edges only.
  /// Lock edges are deliberately absent — a reordering may drop or
  /// reorder whole critical sections, so only these "hard" edges are
  /// sound for pruning candidate pairs.
  std::vector<VectorClock> ThreadClocks;
  SyncPIndex Index;
  SyncPTelemetry Tel;
  AccessHistory History; ///< Candidate records.
  std::vector<RaceInstance> Scratch;
};

} // namespace rapid

#endif // RAPID_SYNCP_SYNCPDETECTOR_H
