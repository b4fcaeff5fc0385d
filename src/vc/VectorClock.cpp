//===- vc/VectorClock.cpp ---------------------------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#include "vc/VectorClock.h"

#include <algorithm>

using namespace rapid;

VectorClock::VectorClock(const VectorClock &Other) {
  if (Other.Size > Capacity)
    growTo(Other.Size);
  std::copy_n(Other.Values, Other.Size, Values);
  Size = Other.Size;
}

VectorClock::VectorClock(VectorClock &&Other) noexcept {
  if (Other.onHeap()) {
    Values = Other.Values;
    Capacity = Other.Capacity;
    Other.Values = Other.Inline;
    Other.Capacity = kInlineThreads;
  } else {
    std::copy_n(Other.Inline, Other.Size, Inline);
  }
  Size = Other.Size;
  Other.Size = 0;
}

VectorClock &VectorClock::operator=(const VectorClock &Other) {
  if (this == &Other)
    return *this;
  // A buffer that fits is kept: a clock re-assigned per event (queue
  // entries, lock clocks) allocates at most once.
  if (Other.Size > Capacity) {
    Size = 0; // Nothing to carry over into the new buffer.
    growTo(Other.Size);
  }
  std::copy_n(Other.Values, Other.Size, Values);
  Size = Other.Size;
  return *this;
}

VectorClock &VectorClock::operator=(VectorClock &&Other) noexcept {
  if (this == &Other)
    return *this;
  if (Other.onHeap()) {
    if (onHeap())
      delete[] Values;
    Values = Other.Values;
    Capacity = Other.Capacity;
    Other.Values = Other.Inline;
    Other.Capacity = kInlineThreads;
  } else {
    // Other's components fit inline, so they fit in any buffer of ours.
    std::copy_n(Other.Inline, Other.Size, Values);
  }
  Size = Other.Size;
  Other.Size = 0;
  return *this;
}

void VectorClock::growTo(uint32_t NewSize) {
  if (NewSize > Capacity) {
    const uint32_t NewCapacity = std::max(NewSize, 2 * Capacity);
    ClockValue *Buffer = new ClockValue[NewCapacity];
    std::copy_n(Values, Size, Buffer);
    if (onHeap())
      delete[] Values;
    Values = Buffer;
    Capacity = NewCapacity;
  }
  std::fill(Values + Size, Values + NewSize, 0);
  Size = NewSize;
}

bool VectorClock::lessOrEqual(const VectorClock &Other) const {
  const ClockValue *A = Values;
  const ClockValue *B = Other.Values;
  const uint32_t Common = std::min(Size, Other.Size);
  for (uint32_t I = 0; I != Common; ++I)
    if (A[I] > B[I])
      return false;
  // Our tail past Other's physical size compares against implicit zeros.
  for (uint32_t I = Common; I != Size; ++I)
    if (A[I] != 0)
      return false;
  return true;
}

bool VectorClock::operator==(const VectorClock &Other) const {
  const ClockValue *A = Values;
  const ClockValue *B = Other.Values;
  const uint32_t Common = std::min(Size, Other.Size);
  for (uint32_t I = 0; I != Common; ++I)
    if (A[I] != B[I])
      return false;
  for (uint32_t I = Common; I < Size; ++I)
    if (A[I] != 0)
      return false;
  for (uint32_t I = Common; I < Other.Size; ++I)
    if (B[I] != 0)
      return false;
  return true;
}

void VectorClock::clear() { std::fill(Values, Values + Size, 0); }

std::string VectorClock::str() const {
  std::string Out = "[";
  for (uint32_t I = 0; I != Size; ++I) {
    if (I != 0)
      Out += ", ";
    Out += std::to_string(Values[I]);
  }
  Out += "]";
  return Out;
}

VectorClock rapid::join(const VectorClock &A, const VectorClock &B) {
  VectorClock Result = A;
  Result.joinWith(B);
  return Result;
}
