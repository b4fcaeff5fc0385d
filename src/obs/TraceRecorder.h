//===- obs/TraceRecorder.h - Chrome/Perfetto timeline recorder --*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The timeline half of the observability layer: named tracks (one per
/// lane consumer, pool worker and the ingest producer), duration spans for
/// pipeline stages, and counter samples (published watermark, lane lag,
/// pool queue depth), exported as Chrome `trace_event` JSON — the format
/// ui.perfetto.dev and chrome://tracing open directly.
///
/// Recording granularity is one span per *batch* of work (a published
/// chunk, a consumed batch, a shard drain round), not per event, so a
/// full streamed run records thousands of spans, not millions; appends
/// take one short mutex hold. The recorder is created
/// only when AnalysisConfig::Timeline is set — a null recorder pointer is
/// the disabled path, same discipline as obs/Metrics.h.
///
/// Tracks map onto trace_event "threads" (one pid, one tid per track,
/// named via thread_name metadata). bindCurrentThread lets code that runs
/// on borrowed threads — pool tasks — find the track of the worker it
/// landed on (the ThreadPool binds each worker's track before running
/// tasks), so stage spans recorded from inside a task nest within that
/// worker's task span on the same track.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_OBS_TRACERECORDER_H
#define RAPID_OBS_TRACERECORDER_H

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace rapid {

/// Accumulates spans/counters and serializes them as trace_event JSON.
class TraceRecorder {
public:
  static constexpr uint32_t NoTrack = ~0u;

  TraceRecorder();

  TraceRecorder(const TraceRecorder &) = delete;
  TraceRecorder &operator=(const TraceRecorder &) = delete;

  /// Interns a track by name and returns its id (stable; re-registering
  /// a name returns the same id). Safe from any thread.
  uint32_t track(std::string_view Name);

  /// Binds \p Track as the calling thread's track for this recorder.
  void bindCurrentThread(uint32_t Track);

  /// The track bound to the calling thread, or NoTrack. Used by pool
  /// tasks to record spans onto the worker they happen to run on.
  uint32_t currentThreadTrack() const;

  /// Microseconds since the recorder was constructed (span timestamps).
  int64_t nowUs() const;

  /// Records a completed span of \p DurUs microseconds starting at
  /// \p StartUs on \p Track. No-op for NoTrack.
  void span(uint32_t Track, std::string Name, int64_t StartUs, int64_t DurUs);

  /// Records a counter sample (rendered as a counter track).
  void counter(std::string Name, int64_t TsUs, uint64_t Value);

  /// Serializes everything recorded so far as a Chrome trace_event JSON
  /// document ({"displayTimeUnit", "traceEvents": [...]}).
  std::string exportJson() const;

private:
  struct Span {
    uint32_t Track;
    int64_t StartUs;
    int64_t DurUs;
    std::string Name;
  };
  struct Sample {
    int64_t TsUs;
    uint64_t Value;
    std::string Name;
  };

  mutable std::mutex M;
  std::vector<std::string> Tracks;
  std::vector<Span> Spans;
  std::vector<Sample> Samples;
  int64_t OriginNs;
};

} // namespace rapid

#endif // RAPID_OBS_TRACERECORDER_H
