//===- vc/VectorClock.h - Vector times (paper §3.1) -------------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Vector times as defined in §3.1 of the paper: a map Tid -> Nat with
/// pointwise comparison (⊑), pointwise-maximum join (⊔), component
/// assignment V[t := n], and the ⊥ time mapping every thread to 0.
///
/// The representation is a flat array with *implicit-zero extension*: a
/// clock conceptually maps every thread id to a value, and components at
/// or beyond the physical size read as 0. All operations are legal across
/// clocks of different physical sizes — join grows the receiver only as
/// far as the argument's physical size, comparison treats missing tails
/// as ⊥, assignment grows on demand (a zero assignment past the end is a
/// no-op), and equality is semantic (trailing zeros are invisible).
///
/// This is what lets detector state grow mid-stream: a detector built
/// against a trace prefix with fewer threads keeps analyzing, bit-for-bit
/// with a detector built against the final tables, because every clock it
/// owns behaves as if it had always been wide enough.
///
/// The first kInlineThreads components live inside the object; only a
/// clock physically wider than that spills to a heap buffer, which it
/// keeps (copy-assignment reuses it). So creating, copying and joining
/// clocks of traces with at most kInlineThreads threads never allocates;
/// wider traces allocate once per clock that outgrows the inline storage.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_VC_VECTORCLOCK_H
#define RAPID_VC_VECTORCLOCK_H

#include "support/Ids.h"

#include <cassert>
#include <cstdint>
#include <string>

namespace rapid {

/// A single component of a vector time: the local time of one thread.
using ClockValue = uint32_t;

/// Vector time over an open-ended set of threads (paper §3.1): components
/// beyond the physical size are implicitly 0.
class VectorClock {
public:
  /// Components stored inside the object before a clock spills to the
  /// heap.
  static constexpr uint32_t kInlineThreads = 8;

  /// The ⊥ clock, physically sized for \p NumThreads threads (all
  /// components zero; the size is a capacity hint, not a semantic bound).
  explicit VectorClock(uint32_t NumThreads = 0) { grow(NumThreads); }
  VectorClock(const VectorClock &Other);
  VectorClock(VectorClock &&Other) noexcept;
  VectorClock &operator=(const VectorClock &Other);
  VectorClock &operator=(VectorClock &&Other) noexcept;
  ~VectorClock() {
    if (onHeap())
      delete[] Values;
  }

  /// Physical size: the number of explicitly stored components.
  uint32_t size() const { return Size; }

  /// Component read: V(t). Components past the physical size are 0.
  ClockValue get(ThreadId T) const {
    return T.value() < Size ? Values[T.value()] : 0;
  }

  /// Component assignment: V[t := n]. Grows the physical representation on
  /// demand; assigning 0 past the end is the identity.
  void set(ThreadId T, ClockValue N) {
    if (T.value() >= Size) {
      if (N == 0)
        return;
      grow(T.value() + 1);
    }
    Values[T.value()] = N;
  }

  /// Pointwise maximum: *this := *this ⊔ Other. Grows to Other's physical
  /// size when Other is wider. Returns true iff any component changed —
  /// the hook detectors use to keep their clock epochs (and with them the
  /// ClockBroadcast snapshot dedup) precise without a content compare.
  bool joinWith(const VectorClock &Other) {
    // Components beyond Other's physical size are 0 in Other, so only the
    // overlap needs the max; beyond our own size we adopt Other's values.
    grow(Other.Size);
    const ClockValue *Src = Other.Values;
    ClockValue *Dst = Values;
    bool Changed = false;
    for (uint32_t I = 0, E = Other.Size; I != E; ++I) {
      if (Src[I] > Dst[I]) {
        Dst[I] = Src[I];
        Changed = true;
      }
    }
    return Changed;
  }

  /// Pointwise comparison: *this ⊑ Other, with implicit-zero tails.
  bool lessOrEqual(const VectorClock &Other) const;

  /// Resets every component to zero (⊥). Keeps the physical size.
  void clear();

  /// Semantic equality: equal on every thread id, so physical sizes may
  /// differ as long as the longer tail is all zeros.
  bool operator==(const VectorClock &Other) const;
  bool operator!=(const VectorClock &Other) const {
    return !(*this == Other);
  }

  /// Renders as "[3, 0, 1]" for diagnostics (physical components only).
  std::string str() const;

  /// Direct access for the hot loops (DetectorRunner, queues). Only the
  /// physical components are addressable.
  const ClockValue *data() const { return Values; }
  ClockValue *data() { return Values; }

private:
  bool onHeap() const { return Values != Inline; }
  /// Raises the physical size to \p NewSize (if larger), zero-filling the
  /// new components; spills to (a larger) heap buffer when they do not
  /// fit.
  void grow(uint32_t NewSize) {
    if (NewSize > Size)
      growTo(NewSize);
  }
  void growTo(uint32_t NewSize);

  ClockValue *Values = Inline; ///< Inline, or a heap buffer of Capacity.
  uint32_t Size = 0;
  uint32_t Capacity = kInlineThreads;
  /// The storage of a clock not on the heap. Only [0, Size) is ever
  /// written before it is read, so it is left uninitialized.
  ClockValue Inline[kInlineThreads];
};

/// Returns A ⊔ B as a fresh clock.
VectorClock join(const VectorClock &A, const VectorClock &B);

} // namespace rapid

#endif // RAPID_VC_VECTORCLOCK_H
