//===- api/AnalysisResult.h - Unified analysis outcome ----------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one result type of the analysis API (every AnalysisSession and
/// analyzeTrace run returns it): per-lane reports with structured per-lane
/// statuses, plus run-wide timings and telemetry.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_API_ANALYSISRESULT_H
#define RAPID_API_ANALYSISRESULT_H

#include "detect/RaceReport.h"
#include "obs/Metrics.h"
#include "support/Status.h"

#include <string>
#include <vector>

namespace rapid {

/// One detector lane's outcome.
struct LaneReport {
  /// Resolved display name ("WCP", "HB", or the config override).
  std::string DetectorName;
  RaceReport Report;
  /// Failure of this lane only; other lanes are unaffected. When set, the
  /// report is partial or empty — never present it as "no races".
  Status LaneStatus;
  /// This lane's analysis time (≈ CPU seconds; concurrent lanes sum to
  /// more than wall clock). Streaming lanes exclude time spent waiting
  /// for ingestion to publish events.
  double Seconds = 0;
  /// Events this lane has processed (== EventsIngested on completion;
  /// smaller in partial snapshots). What "processed" means per mode:
  /// sequential — events the detector walked; var-sharded — events the
  /// capture clock pass walked (Report covers the possibly smaller
  /// fully-checked frontier mid-stream).
  uint64_t EventsConsumed = 0;
  /// This lane's metrics (names relative to the lane: "consume_ns",
  /// "batches", "lag_events_peak", ...) plus whatever the detector itself
  /// reports via Detector::telemetry() ("wcp.queue_peak_abstract", ...).
  /// Empty when AnalysisConfig::Metrics is false. Sorted by name.
  std::vector<MetricSample> Telemetry;
};

/// Outcome of one analysis run or partial snapshot.
struct AnalysisResult {
  /// Config/ingest/session-level failure; lane failures live per lane.
  Status Overall;
  std::vector<LaneReport> Lanes;
  uint64_t EventsIngested = 0;
  /// Wall clock from session open to finish (or to this snapshot).
  double WallSeconds = 0;
  /// Producer-side ingestion time (feed/feedFile work, including parse).
  double IngestSeconds = 0;
  uint64_t VarShards = 0;   ///< Var-sharded mode: shards per lane.
  uint64_t TasksStolen = 0; ///< Var-sharded mode: pool steals.
  /// Lane consumer threads; var-sharded sessions: the pool width.
  unsigned ThreadsUsed = 1;
  /// True for partialResult() snapshots: lanes are mid-stream, reports
  /// cover a prefix of the ingested events and finish() has not run.
  /// Partial reports are always exact prefixes of the final report —
  /// never torn merges (see AnalysisSession::partialResult).
  bool Partial = false;
  /// Session-level metrics (producer, publication, pool:
  /// "ingest.parse_ns", "publish.batches", "pool.steals", ...). Per-lane
  /// metrics live in each LaneReport::Telemetry. Empty when
  /// AnalysisConfig::Metrics is false. Sorted by name.
  std::vector<MetricSample> Telemetry;

  /// True iff the run and every lane succeeded.
  bool ok() const {
    if (!Overall.ok())
      return false;
    for (const LaneReport &L : Lanes)
      if (!L.LaneStatus.ok())
        return false;
    return true;
  }

  /// First failure for quick reporting: Overall if set, else the first
  /// failed lane's status. Ok when ok().
  Status firstError() const {
    if (!Overall.ok())
      return Overall;
    for (const LaneReport &L : Lanes)
      if (!L.LaneStatus.ok())
        return L.LaneStatus;
    return Status::success();
  }

  /// Sum of per-lane analysis seconds (the sequential-equivalent cost).
  double laneSecondsTotal() const {
    double Total = 0;
    for (const LaneReport &L : Lanes)
      Total += L.Seconds;
    return Total;
  }
};

} // namespace rapid

#endif // RAPID_API_ANALYSISRESULT_H
