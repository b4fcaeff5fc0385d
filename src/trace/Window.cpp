//===- trace/Window.cpp -------------------------------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#include "trace/Window.h"

#include <algorithm>
#include <cassert>

using namespace rapid;

std::vector<TraceWindow> rapid::splitIntoWindows(const Trace &T,
                                                 uint64_t WindowSize) {
  assert(WindowSize > 0 && "window size must be positive");
  const std::vector<Event> &Events = T.events();
  // Per lock: the index of the acquire currently holding it.
  std::vector<EventIdx> HeldBy(T.numLocks(), UINT64_MAX);
  std::vector<TraceWindow> Windows;
  for (EventIdx Start = 0; Start < Events.size(); Start += WindowSize) {
    const EventIdx End =
        std::min<EventIdx>(Events.size(), Start + WindowSize);
    TraceWindow W;
    W.Fragment.adoptTables(T);
    W.Fragment.reserve(End - Start);

    // Locks held when a window opens are re-established by replaying
    // their original acquire events at the head of the fragment. Without
    // this, the tail of a critical section cut by the boundary would look
    // unprotected and the fragment would *invent* races — windowed tools
    // carry lock context across fragments for exactly this reason.
    std::vector<EventIdx> Held;
    for (EventIdx A : HeldBy)
      if (A != UINT64_MAX)
        Held.push_back(A);
    std::sort(Held.begin(), Held.end());
    for (EventIdx A : Held) {
      W.Original.push_back(A);
      W.Fragment.append(Events[A]);
    }

    for (EventIdx I = Start; I != End; ++I) {
      const Event &E = Events[I];
      if (E.Kind == EventKind::Acquire)
        HeldBy[E.lock().value()] = I;
      else if (E.Kind == EventKind::Release)
        HeldBy[E.lock().value()] = UINT64_MAX;
      W.Original.push_back(I);
      W.Fragment.append(E);
    }
    Windows.push_back(std::move(W));
  }
  return Windows;
}
