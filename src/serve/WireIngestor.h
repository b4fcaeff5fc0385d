//===- serve/WireIngestor.h - Frames -> AnalysisSession ---------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The data-plane frame semantics between RaceServer and one
/// AnalysisSession. The server decodes each connection's bytes with its
/// own FrameDecoder, performs the Hello/Resume handshake and answers
/// control queries itself; every other frame goes through applyFrame().
/// The ingestor owns the serving layer's *sticky failure* contract: the
/// first bad frame (bad payload, undeclared ids, a second Hello, a
/// mid-stream Resume) freezes the stream with a ValidationError — every
/// later data frame is ignored, never half-applied — while the session's
/// already-analyzed prefix stays queryable and finishable.
///
/// Single-producer like the session itself: one thread at a time calls
/// applyFrame() per ingestor.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_SERVE_WIREINGESTOR_H
#define RAPID_SERVE_WIREINGESTOR_H

#include "io/WireFormat.h"
#include "support/Status.h"
#include "trace/Event.h"

#include <vector>

namespace rapid {

class AnalysisSession;

/// Applies a session's decoded data frames.
class WireIngestor {
public:
  explicit WireIngestor(AnalysisSession &S) : S(S) {}

  /// Applies one decoded frame. A no-op once the stream is frozen.
  void applyFrame(const WireFrameView &F);

  /// Freezes the stream with an externally detected failure (connection
  /// decoder desync, torn frame at disconnect, resume-grace expiry, ...).
  void fail(Status S) {
    if (Sticky.ok())
      Sticky = std::move(S);
  }

  /// The client sent Finish: no more data frames are accepted; the
  /// caller finalizes the session and replies.
  bool sawFinish() const { return SawFinish; }
  uint64_t eventsApplied() const { return EventsApplied; }
  uint64_t framesApplied() const { return FramesApplied; }

  /// The next expected Events sequence number — by construction the count
  /// of events applied so far, since frames carry their cumulative start
  /// offset. This is the value a ResumeOk/Ack advertises.
  uint64_t appliedSeq() const { return EventsApplied; }
  /// Frames skipped (fully or partially) by exactly-once dedup after a
  /// resume retransmission.
  uint64_t dupFrames() const { return DupFrames; }

  /// Sticky: first failure freezes ingestion (ok() == false from then on).
  const Status &status() const { return Sticky; }

private:
  void freeze(StatusCode Code, std::string Message) {
    fail(Status(Code, std::move(Message)));
  }

  AnalysisSession &S;
  std::vector<Event> Batch; ///< Reused decode buffer.
  Status Sticky;
  bool SawFinish = false;
  uint64_t EventsApplied = 0;
  uint64_t FramesApplied = 0;
  uint64_t DupFrames = 0;
};

} // namespace rapid

#endif // RAPID_SERVE_WIREINGESTOR_H
