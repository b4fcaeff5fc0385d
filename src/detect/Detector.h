//===- detect/Detector.h - Streaming detector interface ---------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The common interface of all single-pass (streaming) race detectors: HB,
/// FastTrack, WCP and lockset. A detector is constructed against a trace's
/// dimensions (threads/locks/vars), consumes events in trace order, and
/// accumulates findings in a RaceReport.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_DETECT_DETECTOR_H
#define RAPID_DETECT_DETECTOR_H

#include "detect/RaceReport.h"
#include "obs/Metrics.h"
#include "trace/Trace.h"

#include <string>
#include <vector>

namespace rapid {

class AccessLog;

/// How a capture-capable detector's deferred checks are replayed inside a
/// per-variable shard (detect/ShardedAccessHistory.h). Most detectors
/// replay through the shared full-history AccessHistory; FastTrack keeps
/// epoch/last-access state per variable instead, so its shard replay runs
/// the epoch algorithm.
enum class ShardReplay : uint8_t {
  FullHistory,    ///< AccessHistory checkRead/checkWrite + record (HB, WCP).
  FastTrackEpoch, ///< FastTrack's epoch checks, replayed per variable.
};

/// Abstract streaming race detector.
class Detector {
public:
  virtual ~Detector();

  /// Processes the \p Index-th event of the trace.
  virtual void processEvent(const Event &E, EventIdx Index) = 0;

  /// Per-variable sharded mode (detect/ShardedAccessHistory.h). A
  /// detector whose race checks partition by variable redirects them into
  /// \p Log — subsequent processEvent calls run only the clock machinery
  /// and append each read/write with its clocks — and returns true. The
  /// base class does not support it; such detectors run their lane
  /// sequentially under sharded pipelines.
  virtual bool beginCapture(AccessLog &Log) {
    (void)Log;
    return false;
  }

  /// Which replay engine the shard phase must use for this detector's
  /// deferred checks. Only meaningful when beginCapture returned true.
  virtual ShardReplay shardReplay() const { return ShardReplay::FullHistory; }

  /// Called once after the last event; detectors with buffered state may
  /// flush diagnostics here.
  virtual void finish() {}

  /// Short name used by reports and tables ("HB", "WCP", ...).
  virtual std::string name() const = 0;

  /// Appends detector-specific metric samples to \p Out (e.g. WCP's
  /// "wcp.queue_peak_abstract" — the paper's Table 1 queue telemetry).
  /// Called under the owning lane's snapshot lock, possibly mid-stream:
  /// implementations must only read state, never mutate it. Default: no
  /// samples.
  virtual void telemetry(std::vector<MetricSample> &Out) const { (void)Out; }

  const RaceReport &report() const { return Report; }
  RaceReport &report() { return Report; }

protected:
  RaceReport Report;
};

} // namespace rapid

#endif // RAPID_DETECT_DETECTOR_H
