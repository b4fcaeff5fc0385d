//===- detect/DetectorRunner.cpp ----------------------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// runDetector is the timed full-trace walk the tests pin every session
// mode against; runDetectorOnWindow is the windowed mode's per-window unit
// of work.
//
//===----------------------------------------------------------------------===//

#include "detect/DetectorRunner.h"

#include "support/Timer.h"
#include "trace/Window.h"

using namespace rapid;

Detector::~Detector() = default;

RunResult rapid::runDetector(Detector &D, const Trace &T) {
  Timer Clock;
  const std::vector<Event> &Events = T.events();
  for (EventIdx I = 0, E = Events.size(); I != E; ++I)
    D.processEvent(Events[I], I);
  D.finish();
  RunResult Result;
  Result.Seconds = Clock.seconds();
  Result.Report = D.report();
  Result.DetectorName = D.name();
  return Result;
}

RaceReport rapid::runDetectorOnWindow(Detector &D, const TraceWindow &W) {
  const std::vector<Event> &Events = W.Fragment.events();
  for (EventIdx I = 0, E = Events.size(); I != E; ++I)
    D.processEvent(Events[I], I);
  D.finish();
  RaceReport Translated;
  for (RaceInstance Inst : D.report().instances()) {
    Inst.EarlierIdx = W.Original[Inst.EarlierIdx];
    Inst.LaterIdx = W.Original[Inst.LaterIdx];
    Translated.addRace(Inst);
  }
  return Translated;
}
