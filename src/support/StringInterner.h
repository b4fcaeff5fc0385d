//===- support/StringInterner.h - Name <-> dense id mapping ----*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bidirectional mapping between external names ("T0", "l1", "x") and the
/// dense ids used internally. One interner instance exists per id namespace
/// (threads, locks, variables, locations) inside a Trace.
///
/// The hot path is intern() on an already-known name — text ingestion
/// calls it for every field of every line, so the index is built for that
/// case: an open-addressed probe table of ids (no nodes, no pointers, no
/// temporary std::string per lookup) over names stored in a deque (stable
/// addresses). Each slot carries a hash tag next to the id, so probing
/// past other names reads only the slot array: a hit is one hash, one
/// string comparison, and a miss usually none. Because slots hold ids
/// rather than views, copies are plain member copies.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_SUPPORT_STRINGINTERNER_H
#define RAPID_SUPPORT_STRINGINTERNER_H

#include <cassert>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace rapid {

/// Interns strings, handing out dense uint32_t ids in insertion order.
class StringInterner {
public:
  /// Returns the id for \p Name, creating one if it is new.
  uint32_t intern(std::string_view Name) {
    return intern(Name, hashName(Name));
  }
  /// The same, for a caller that already holds hashName(Name).
  uint32_t intern(std::string_view Name, uint64_t Hash);

  /// Returns the id for \p Name or UINT32_MAX if it was never interned.
  uint32_t lookup(std::string_view Name) const;

  /// Returns the name for \p Id. \p Id must be a valid interned id.
  const std::string &name(uint32_t Id) const {
    assert(Id < Names.size() && "interner id out of range");
    return Names[Id];
  }

  uint32_t size() const { return static_cast<uint32_t>(Names.size()); }
  bool empty() const { return Names.empty(); }

  /// The hash the index uses (FNV-1a; names are short).
  static uint64_t hashName(std::string_view Name);

private:
  /// An index slot: the id + 1 (0 = empty) and the high half of the
  /// name's hash, so a probe past another name compares the tag and
  /// never touches that name's string.
  struct Slot {
    uint32_t Id1 = 0;
    uint32_t Tag = 0;
  };
  static uint32_t tagOf(uint64_t H) { return static_cast<uint32_t>(H >> 32); }

  /// Probes for \p Name (hash \p H): returns the slot holding its id,
  /// or the empty slot where it would be inserted.
  size_t probe(std::string_view Name, uint64_t H) const;
  void grow(); ///< Doubles the slot table and re-seats every id.

  std::deque<std::string> Names; ///< Stable addresses; id -> name.
  /// Open-addressed index, power-of-2 sized, load factor <= 3/4.
  std::vector<Slot> Slots;
};

} // namespace rapid

#endif // RAPID_SUPPORT_STRINGINTERNER_H
