//===- lockset/EraserDetector.h - Eraser lockset baseline -------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The classic Eraser lockset algorithm [36], the unsound baseline the
/// paper's taxonomy (§1) contrasts with partial-order methods: fast, low
/// overhead, but reports spurious races because consistent locking is a
/// stricter discipline than race freedom. Included as the third detector
/// family for perfbench's per-lane costs and the taxonomy tests.
///
/// Per-variable state machine: Virgin → Exclusive(t) → Shared →
/// SharedModified, with a candidate lockset refined by intersection with
/// the accessor's held locks once a variable leaves Exclusive.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_LOCKSET_ERASERDETECTOR_H
#define RAPID_LOCKSET_ERASERDETECTOR_H

#include "detect/Detector.h"

#include <vector>

namespace rapid {

/// Streaming Eraser detector.
class EraserDetector : public Detector {
public:
  explicit EraserDetector(const Trace &T);

  void processEvent(const Event &E, EventIdx Index) override;
  std::string name() const override { return "Eraser"; }

private:
  enum class VarPhase : uint8_t { Virgin, Exclusive, Shared, SharedModified };

  struct VarState {
    VarPhase Phase = VarPhase::Virgin;
    ThreadId Owner;
    bool LocksetInitialized = false;
    std::vector<uint32_t> Lockset; ///< Sorted candidate lockset C(x).
    LocId LastLoc;
    EventIdx LastIdx = 0;
    ThreadId LastThread;
    /// Most recent access by a thread other than LastThread; used to form
    /// a race *pair* when the warning access follows a same-thread run.
    LocId ForeignLoc;
    EventIdx ForeignIdx = 0;
    ThreadId ForeignThread;
    bool Reported = false; ///< Eraser warns once per variable.
  };

  void access(const Event &E, EventIdx Index, bool IsWrite);
  void refineLockset(VarState &S, ThreadId T);
  /// Growable accessors: variables/threads first seen mid-stream start in
  /// the same state construction would have given them (Virgin phase, no
  /// held locks).
  VarState &varState(VarId V);
  std::vector<uint32_t> &heldOf(ThreadId T);

  std::vector<VarState> Vars;
  std::vector<std::vector<uint32_t>> Held; ///< Sorted held locks per thread.
};

} // namespace rapid

#endif // RAPID_LOCKSET_ERASERDETECTOR_H
