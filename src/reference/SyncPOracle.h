//===- reference/SyncPOracle.h - Per-pair SP-closure oracle -----*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sync-preserving closure (POPL'21, §4) computed the obvious way: one
/// candidate pair at a time, pulling events into the ideal one by one
/// along their closure edges until nothing changes. Each decision costs
/// O(|ideal|) ⊆ O(E2), so a lane built on it is quadratic — which is fine
/// for a test oracle and is why the SyncP lane uses syncp/SyncPIndex's
/// vector-timestamp formulation instead. tests/syncp_test.cpp pins the
/// two engines against each other decision-for-decision and, for racy
/// pairs, ideal-for-ideal; the witness this oracle builds is what the
/// soundness tests replay through verify/Reordering's checkRaceWitness.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_REFERENCE_SYNCPORACLE_H
#define RAPID_REFERENCE_SYNCPORACLE_H

#include "trace/Trace.h"

#include <vector>

namespace rapid {

/// Per-pair SP-closure over a whole trace; immutable after construction.
class SyncPOracle {
public:
  static constexpr EventIdx kNone = UINT64_MAX;

  explicit SyncPOracle(const Trace &T);

  /// Decides whether the conflicting pair (\p E1, \p E2), E1 < E2, is a
  /// sync-preserving race: computes the SP-closure of the pair's program-
  /// order prefixes and succeeds iff no rule forces an event at or past
  /// either endpoint into the ideal. On success, \p WitnessOut (if
  /// non-null) receives the ideal in trace order, then E1, E2 — a correct
  /// reordering co-enabling the pair.
  bool isSyncPreservingRace(EventIdx E1, EventIdx E2,
                            std::vector<EventIdx> *WitnessOut) const;

private:
  /// One event's closure edges.
  struct Node {
    ThreadId Thread;
    EventKind Kind = EventKind::Read;
    uint32_t Target = UINT32_MAX; ///< Var, lock, or target-thread id.
    EventIdx Prev = kNone;        ///< Program-order predecessor.
    EventIdx Fork = kNone;        ///< Fork that started this thread.
    EventIdx Aux = kNone;         ///< Read: last writer; Acquire: matching
                                  ///< release; Join: child's last event.
  };

  std::vector<Node> Nodes;
};

} // namespace rapid

#endif // RAPID_REFERENCE_SYNCPORACLE_H
