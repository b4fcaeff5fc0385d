//===- api/AnalysisConfig.h - Declarative analysis configuration -*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single declarative configuration object behind every analysis entry
/// point: detector selection, run mode, thread count and shard count are
/// one AnalysisConfig with one validate() that rejects inconsistent
/// combinations up front with a structured Status.
///
/// A config names its detectors either by kind (the built-in HB, WCP,
/// FastTrack, Eraser, SyncP) or by custom factory, and selects exactly one
/// run mode:
///
///   Sequential  one independent full-trace walk per detector lane (the
///               paper's unwindowed single-pass mode); lanes run
///               concurrently and stream behind ingestion in sessions;
///   VarSharded  per-variable sharded checks (bit-identical to
///               Sequential for any shard count, variable x in shard
///               x mod N); sessions run the capture clock pass behind
///               ingestion and shard checks on the published prefix.
///
/// Every mode runs on the one session engine (AnalysisSession); the
/// one-shot analyzeTrace is a session fed a whole in-memory trace.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_API_ANALYSISCONFIG_H
#define RAPID_API_ANALYSISCONFIG_H

#include "detect/DetectorRunner.h"
#include "support/Status.h"

#include <string>
#include <vector>

namespace rapid {

/// The built-in detector families, plus Custom for caller factories.
enum class DetectorKind : uint8_t { Hb, Wcp, FastTrack, Eraser, SyncP, Custom };

/// Stable display name: "HB", "WCP", "FastTrack", "Eraser", "SyncP",
/// "custom".
const char *detectorKindName(DetectorKind K);

/// A factory for \p K's detector; empty for Custom (the spec carries its
/// own factory then).
DetectorFactory makeDetectorFactory(DetectorKind K);

/// How the analysis walks the trace. See the file comment for semantics.
enum class RunMode : uint8_t { Sequential, VarSharded };

/// Stable lowercase name: "sequential", "var-sharded".
const char *runModeName(RunMode M);

/// One detector lane of a config: a built-in kind, or a custom factory.
struct DetectorSpec {
  DetectorKind Kind = DetectorKind::Custom;
  /// Display-name override; empty resolves to the detector's own name().
  std::string Name;
  /// Required iff Kind == Custom; must be empty otherwise (validate()
  /// rejects ambiguous specs that carry both a kind and a factory).
  DetectorFactory Make;
};

/// Everything a session needs to know, in one validated object.
struct AnalysisConfig {
  std::vector<DetectorSpec> Detectors;
  RunMode Mode = RunMode::Sequential;
  /// Worker threads (0 = hardware concurrency) of the session thread pool
  /// that runs VarSharded shard-check tasks. The other modes have no pool:
  /// they run one consumer thread per lane whatever this says.
  unsigned Threads = 0;
  /// VarSharded mode only: per-variable shards per lane (>= 1 there,
  /// 0 elsewhere).
  uint32_t VarShards = 0;
  /// Streaming sessions: max events a consumer takes per batch — the
  /// granularity of partial-report visibility.
  uint64_t StreamBatchEvents = 8192;
  /// Observability (obs/Metrics.h): when false, no metric slots are
  /// registered and every instrument handle on the hot paths is null, so
  /// the disabled cost per update site is one branch on a cached pointer —
  /// no atomics, no clock reads. Telemetry blocks come back empty.
  bool Metrics = true;
  /// Observability (obs/TraceRecorder.h): record per-stage spans and
  /// counter samples for AnalysisSession::exportTimeline(). Off by
  /// default — timelines buffer one span per batch/drain and are
  /// only worth paying for when someone will open the trace.
  bool Timeline = false;

  /// Appends a built-in detector lane.
  AnalysisConfig &addDetector(DetectorKind K, std::string Name = "");
  /// Appends a custom-factory lane.
  AnalysisConfig &addDetector(DetectorFactory Make, std::string Name = "");

  /// Structured up-front validation; every entry point runs this before
  /// touching a trace.
  Status validate() const;
};

} // namespace rapid

#endif // RAPID_API_ANALYSISCONFIG_H
