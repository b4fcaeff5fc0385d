//===- trace/Window.h - Trace windowing (fragmenting) -----------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Splits a trace into bounded windows the way windowed analyses
/// (RVPredict, windowed CP) must (§1, §4). A window is a *sub-trace*: it
/// keeps the events in order and repairs the lock state at the boundary by
/// dropping unmatched releases at the start and closing unmatched acquires
/// at the end, so each window is itself a valid trace. This mirrors how
/// windowed tools re-initialize their analysis per fragment — and is
/// exactly the mechanism that makes them miss far-apart races.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_TRACE_WINDOW_H
#define RAPID_TRACE_WINDOW_H

#include "trace/Trace.h"

#include <vector>

namespace rapid {

/// A window over a parent trace.
struct TraceWindow {
  Trace Fragment;                 ///< Self-contained sub-trace.
  std::vector<EventIdx> Original; ///< Fragment index -> parent event index.
};

/// Splits \p T into consecutive windows of at most \p WindowSize events.
/// The fragments share the parent's id tables (names are re-used), so
/// locations reported from a fragment are comparable across windows.
/// Locks held when a window opens are re-established by replaying their
/// original acquires at the head of the fragment, so a critical section
/// cut by the boundary cannot invent races.
std::vector<TraceWindow> splitIntoWindows(const Trace &T,
                                          uint64_t WindowSize);

} // namespace rapid

#endif // RAPID_TRACE_WINDOW_H
