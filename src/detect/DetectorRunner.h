//===- detect/DetectorRunner.h - Timed analysis driver ----------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives a streaming detector over a full trace (the unwindowed mode the
/// paper insists on) or over one window fragment (the handicapped mode
/// other sound tools are forced into, §1/§4), timing the analysis.
///
/// runDetector is the primitive walk every run mode is pinned against in
/// the tests. Multi-lane, windowed and var-sharded runs go through the
/// session API (api/AnalysisSession.h: an AnalysisConfig plus
/// analyzeTrace or an AnalysisSession).
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_DETECT_DETECTORRUNNER_H
#define RAPID_DETECT_DETECTORRUNNER_H

#include "detect/Detector.h"

#include <functional>
#include <memory>

namespace rapid {

/// Outcome of one runDetector walk.
struct RunResult {
  RaceReport Report;
  double Seconds = 0;
  std::string DetectorName;
};

/// Runs \p D over all of \p T in trace order.
RunResult runDetector(Detector &D, const Trace &T);

struct TraceWindow;

/// Walks \p D over the fragment of \p W and returns its report with race
/// indices translated back to the parent trace — the per-window unit of
/// work of the session's windowed mode.
RaceReport runDetectorOnWindow(Detector &D, const TraceWindow &W);

/// Builds one lane's detector for a trace. Windowed runs call it once per
/// window, mirroring how windowed tools restart their analysis per
/// fragment.
using DetectorFactory = std::function<std::unique_ptr<Detector>(const Trace &)>;

} // namespace rapid

#endif // RAPID_DETECT_DETECTORRUNNER_H
