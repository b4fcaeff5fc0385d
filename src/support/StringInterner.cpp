//===- support/StringInterner.cpp -----------------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/StringInterner.h"

using namespace rapid;

uint64_t StringInterner::hashName(std::string_view Name) {
  // FNV-1a: names are short (a handful of bytes), so the byte loop beats
  // fancier hashes once setup costs count.
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : Name) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

size_t StringInterner::probe(std::string_view Name, uint64_t H) const {
  size_t Mask = Slots.size() - 1;
  size_t I = static_cast<size_t>(H) & Mask;
  const uint32_t Tag = tagOf(H);
  while (Slots[I].Id1) {
    if (Slots[I].Tag == Tag && Names[Slots[I].Id1 - 1] == Name)
      return I;
    I = (I + 1) & Mask;
  }
  return I;
}

void StringInterner::grow() {
  size_t NewSize = Slots.empty() ? 16 : Slots.size() * 2;
  Slots.assign(NewSize, Slot());
  for (uint32_t Id = 0; Id != Names.size(); ++Id) {
    size_t Mask = NewSize - 1;
    uint64_t H = hashName(Names[Id]);
    size_t I = static_cast<size_t>(H) & Mask;
    while (Slots[I].Id1)
      I = (I + 1) & Mask;
    Slots[I] = {Id + 1, tagOf(H)};
  }
}

uint32_t StringInterner::intern(std::string_view Name, uint64_t Hash) {
  if (Slots.empty())
    grow();
  size_t I = probe(Name, Hash);
  if (Slots[I].Id1)
    return Slots[I].Id1 - 1;
  uint32_t Id = static_cast<uint32_t>(Names.size());
  Names.emplace_back(Name);
  if ((Names.size() + 1) * 4 > Slots.size() * 3) {
    grow(); // Re-seats everything, including the new id.
    return Id;
  }
  Slots[I] = {Id + 1, tagOf(Hash)};
  return Id;
}

uint32_t StringInterner::lookup(std::string_view Name) const {
  if (Slots.empty())
    return UINT32_MAX;
  size_t I = probe(Name, hashName(Name));
  return Slots[I].Id1 ? Slots[I].Id1 - 1 : UINT32_MAX;
}
