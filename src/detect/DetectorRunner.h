//===- detect/DetectorRunner.h - Timed analysis driver ----------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives a streaming detector over a full trace (the unwindowed mode the
/// paper insists on) or window by window (the handicapped mode other
/// sound tools are forced into, §1/§4).
///
/// runDetector is the primitive walk every run mode is pinned against in
/// the tests. Multi-lane and var-sharded runs go through the session API
/// (api/AnalysisSession.h: an AnalysisConfig plus analyzeTrace or an
/// AnalysisSession).
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

/// Builds one lane's detector for a trace. Windowed runs call it once per
/// window, mirroring how windowed tools restart their analysis per
/// fragment.
using DetectorFactory = std::function<std::unique_ptr<Detector>(const Trace &)>;

/// The §4.3 windowed baseline: splits \p T into \p WindowSize-event
/// windows (trace/Window.h), walks each with a fresh detector from
/// \p Make, and merges the reports in window order with race indices
/// translated back to \p T. Races whose endpoints fall in different
/// windows are lost by design. \p WindowSize must be positive.
RaceReport runDetectorWindowed(const DetectorFactory &Make, const Trace &T,
                               uint64_t WindowSize);

} // namespace rapid

#endif // RAPID_DETECT_DETECTORRUNNER_H
