//===- serve/WireClient.h - Blocking wire-protocol client -------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small blocking client for the serving protocol (io/WireFormat.h):
/// connect to a race_serverd socket, push hello/declare/events frames,
/// issue control queries, read reply frames. It is the one client side of
/// the protocol: tests, perfbench and the LD_PRELOAD interposer
/// (examples/interpose/) all use it. This file, io/WireFormat.cpp and
/// support/Prng.cpp form the position-independent `rapid_wire` object
/// library, so the interposer links them without the analysis library;
/// nothing here may reach into the rest of rapid.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_SERVE_WIRECLIENT_H
#define RAPID_SERVE_WIRECLIENT_H

#include "io/WireFormat.h"
#include "support/Prng.h"
#include "support/Status.h"

#include <cstdint>
#include <deque>
#include <string>
#include <utility>

namespace rapid {

class Trace;

/// Bounded reconnect/backoff policy for the resumable client.
struct WireRetryPolicy {
  int MaxAttempts = 8;       ///< Reconnect attempts per outage.
  int BackoffBaseMs = 2;     ///< First retry delay; doubles per attempt.
  int BackoffMaxMs = 500;    ///< Exponential cap.
  uint64_t JitterSeed = 1;   ///< Deterministic jitter stream.
  size_t SpillMaxBytes = 8u << 20; ///< Unacked-frame buffer cap.

  /// The default policy with \p Attempts reconnect attempts and the
  /// jitter seeded from the process id, so processes that lose one server
  /// together do not retry in lockstep.
  static WireRetryPolicy perProcess(int Attempts);
};

/// Deterministic client-side fault injection: kill the connection (close
/// the fd mid-send) \p Kills times, at seeded byte offsets spaced
/// [MinGapBytes, MaxGapBytes] apart. Zero Kills disables the plan. Same
/// seed, same kill schedule — the reconnect tests are exact replays.
struct WireFaultPlan {
  uint64_t Seed = 1;
  int Kills = 0;
  uint64_t MinGapBytes = 512;
  uint64_t MaxGapBytes = 16384;
};

/// Blocking protocol client over a Unix-domain socket.
class WireClient {
public:
  WireClient() = default;
  ~WireClient();

  WireClient(const WireClient &) = delete;
  WireClient &operator=(const WireClient &) = delete;

  /// Connects, retrying for up to \p RetryMs (covers "server still
  /// binding" in tests; 0 = one attempt).
  Status connectUnix(const std::string &Path, int RetryMs = 0);

  bool connected() const { return Fd >= 0; }
  int fd() const { return Fd; }

  /// Raw bytes (already-framed), for malformed-input tests.
  Status sendBytes(const std::string &Bytes);

  Status sendHello();
  /// Declare frames for every table of \p T followed by Events frames —
  /// exactly encodeTraceFrames(), pushed down this connection.
  Status sendTrace(const Trace &T, uint64_t BatchEvents = 8192);
  Status sendFinish();

  /// Empty payload = this connection's own session.
  Status sendPartialQuery();
  Status sendPartialQuery(uint64_t SessionId);
  Status sendTimelineQuery(uint64_t SessionId);
  Status sendListSessions();
  Status sendFinalQuery(uint64_t SessionId);

  /// Blocks until one complete frame arrives (or \p TimeoutMs passes /
  /// the peer hangs up / the stream desyncs).
  Status readFrame(WireFrame &Type, std::string &Payload,
                   int TimeoutMs = 10000);

  /// Half-close: no more requests, replies still readable.
  void shutdownSend();
  void close();

  // ---- Resumable mode -------------------------------------------------------
  //
  // connectResumable() negotiates a sequence-numbered session (Hello with
  // the Resumable flag, Welcome reply). From then on the sendDeclare*/
  // sendEvents*/sendFinishReliable calls spill unacknowledged frames and
  // survive connection loss: the client reconnects with bounded
  // exponential backoff + jitter, replays Resume(token, next-seq), and
  // retransmits from the spill; the server's sequence dedup makes
  // delivery exactly-once. awaitReport() filters Welcome/ResumeOk/Ack
  // frames and rides reconnects transparently, so the caller sees exactly
  // the frames a fault-free run would produce.
  //
  // Resume needs a token. A session without one — the server disabled
  // resume (Welcome token 0), or the spill outgrew SpillMaxBytes and the
  // client dropped it and its token — keeps streaming, but its next lost
  // connection is a permanent IoError. The same calls also work on a
  // plain connectUnix()+sendHello() connection, where any lost connection
  // is permanent.

  /// Connects and performs the resumable handshake.
  Status connectResumable(const std::string &Path, int RetryMs = 0,
                          WireRetryPolicy Policy = WireRetryPolicy());

  /// Installs a deterministic kill schedule (before or mid-stream).
  void setFaultPlan(const WireFaultPlan &Plan);

  /// Already-framed Declare frames; logged and replayed on every resume
  /// (interning dedupes, so replay is idempotent).
  Status sendDeclareFrames(const std::string &Frames);
  /// One already-framed Events frame whose start sequence is eventsSent();
  /// spilled until acknowledged.
  Status sendEventsFrame(const std::string &Frame);
  /// sendDeclareFrames() of every table of \p T.
  Status sendDeclares(const Trace &T);
  /// \p T's events as sendEventsFrame() batches of \p BatchEvents.
  Status sendEvents(const Trace &T, uint64_t BatchEvents = 8192);
  /// Finish, resent after any resume (the server treats it idempotently).
  Status sendFinishReliable();
  /// Blocks for the final Report payload, reconnecting as needed.
  Status awaitReport(std::string &Payload, int TimeoutMs = 20000);

  uint64_t sessionId() const { return SessId; }
  uint64_t sessionToken() const { return Token; }
  /// Successful resume round-trips (the e2e pin asserts this matches the
  /// fault plan's kill count).
  uint64_t reconnects() const { return Reconnects; }
  uint64_t eventsSent() const { return NextSeq; }

private:
  Status rawSend(const char *Data, size_t N);
  Status sendFrameReliable(const std::string &Frame, bool IsEvents,
                           uint64_t StartSeq, uint64_t Count);
  Status failFatal(const WireErrorInfo &E);
  Status handshakeFresh(int RetryMs);
  Status reconnectAndResume();
  Status retransmit();
  void drainAcks();
  void handleServerFrame(const WireFrameView &F);
  void trimSpill();
  void dropConnection();
  void backoff(int Attempt, uint32_t HintMs);

  int Fd = -1;
  FrameDecoder Dec;

  // Resumable-session state.
  bool Resumable = false;
  std::string Path;
  WireRetryPolicy Policy;
  Prng Jitter{1};
  uint64_t SessId = 0;
  uint64_t Token = 0;
  uint64_t NextSeq = 0;  ///< Events encoded so far (next frame's start).
  uint64_t AckedSeq = 0; ///< Server-confirmed applied events.
  uint64_t Reconnects = 0;
  bool FinishSent = false;
  std::string DeclareLog; ///< All declare frames, replayed on resume.
  /// Unacked Events frames: (start seq, framed bytes).
  std::deque<std::pair<uint64_t, std::string>> Spill;
  size_t SpillBytes = 0;
  /// Sticky permanent failure: a non-retryable WireError from the server,
  /// or a lost connection that had no resume token.
  Status Fatal;
  bool HasStashedReport = false;
  std::string StashedReport; ///< Report drained while processing acks.

  // Fault injection.
  WireFaultPlan Plan;
  Prng KillRng{1};
  int KillsLeft = 0;
  uint64_t SentBytes = 0;
  uint64_t NextKillAt = 0;
};

} // namespace rapid

#endif // RAPID_SERVE_WIRECLIENT_H
