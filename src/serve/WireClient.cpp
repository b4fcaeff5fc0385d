//===- serve/WireClient.cpp - Blocking wire-protocol client -------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/WireClient.h"

#include "trace/Trace.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace rapid {

WireRetryPolicy WireRetryPolicy::perProcess(int Attempts) {
  WireRetryPolicy P;
  P.MaxAttempts = Attempts;
  P.JitterSeed = static_cast<uint64_t>(::getpid());
  return P;
}

WireClient::~WireClient() { close(); }

void WireClient::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

void WireClient::shutdownSend() {
  if (Fd >= 0)
    ::shutdown(Fd, SHUT_WR);
}

Status WireClient::connectUnix(const std::string &Path, int RetryMs) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return Status(StatusCode::InvalidConfig,
                  "socket path too long: '" + Path + "'");
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  const auto Start = std::chrono::steady_clock::now();
  for (;;) {
    const int S = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (S < 0)
      return Status(StatusCode::IoError,
                    std::string("socket: ") + std::strerror(errno));
    if (::connect(S, reinterpret_cast<const sockaddr *>(&Addr),
                  sizeof(Addr)) == 0) {
      Fd = S;
      return Status::success();
    }
    const int E = errno;
    ::close(S);
    const auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - Start)
                             .count();
    if (Elapsed >= RetryMs)
      return Status(StatusCode::IoError, "connecting to '" + Path +
                                             "': " + std::strerror(E));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

Status WireClient::sendBytes(const std::string &Bytes) {
  if (Fd < 0)
    return Status(StatusCode::InvalidState, "client is not connected");
  const char *Data = Bytes.data();
  size_t N = Bytes.size();
  while (N != 0) {
    const ssize_t W = ::send(Fd, Data, N, MSG_NOSIGNAL);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return Status(StatusCode::IoError,
                    std::string("send: ") + std::strerror(errno));
    }
    Data += W;
    N -= static_cast<size_t>(W);
  }
  return Status::success();
}

Status WireClient::sendHello() { return sendBytes(wireHelloFrame()); }

Status WireClient::sendTrace(const Trace &T, uint64_t BatchEvents) {
  return sendBytes(encodeTraceFrames(T, BatchEvents));
}

Status WireClient::sendFinish() {
  std::string Out;
  wireAppendFrame(Out, WireFrame::Finish, std::string_view());
  return sendBytes(Out);
}

Status WireClient::sendPartialQuery() {
  std::string Out;
  wireAppendFrame(Out, WireFrame::PartialQuery, std::string_view());
  return sendBytes(Out);
}

Status WireClient::sendPartialQuery(uint64_t SessionId) {
  std::string Out, P;
  wirePutU64(P, SessionId);
  wireAppendFrame(Out, WireFrame::PartialQuery, P);
  return sendBytes(Out);
}

Status WireClient::sendTimelineQuery(uint64_t SessionId) {
  std::string Out, P;
  wirePutU64(P, SessionId);
  wireAppendFrame(Out, WireFrame::TimelineQuery, P);
  return sendBytes(Out);
}

Status WireClient::sendListSessions() {
  std::string Out;
  wireAppendFrame(Out, WireFrame::ListSessions, std::string_view());
  return sendBytes(Out);
}

Status WireClient::sendFinalQuery(uint64_t SessionId) {
  std::string Out, P;
  wirePutU64(P, SessionId);
  wireAppendFrame(Out, WireFrame::FinalQuery, P);
  return sendBytes(Out);
}

// ---- Resumable mode ---------------------------------------------------------

namespace {

uint64_t eventsInFrame(const std::string &Frame) {
  // len(4) + type(1) + seq(8) + count(4) + records.
  const size_t Header = WireFrameHeaderSize + 12;
  return Frame.size() >= Header ? (Frame.size() - Header) / WireEventRecordSize
                                : 0;
}

std::string finishFrame() {
  std::string Out;
  wireAppendFrame(Out, WireFrame::Finish, std::string_view());
  return Out;
}

} // namespace

void WireClient::dropConnection() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  Dec = FrameDecoder();
}

Status WireClient::failFatal(const WireErrorInfo &E) {
  Fatal = Status(E.Code == StatusCode::Ok ? StatusCode::InvalidState : E.Code,
                 E.Message);
  return Fatal;
}

void WireClient::setFaultPlan(const WireFaultPlan &P) {
  Plan = P;
  KillRng.reseed(P.Seed);
  KillsLeft = P.Kills;
  const uint64_t Span = P.MaxGapBytes >= P.MinGapBytes
                            ? P.MaxGapBytes - P.MinGapBytes
                            : 0;
  NextKillAt = SentBytes + P.MinGapBytes + KillRng.nextBelow(Span + 1);
}

Status WireClient::rawSend(const char *Data, size_t N) {
  if (Fd < 0)
    return Status(StatusCode::InvalidState, "client is not connected");
  while (N != 0) {
    size_t Chunk = N;
    if (KillsLeft > 0) {
      if (SentBytes >= NextKillAt) {
        dropConnection();
        --KillsLeft;
        const uint64_t Span = Plan.MaxGapBytes >= Plan.MinGapBytes
                                  ? Plan.MaxGapBytes - Plan.MinGapBytes
                                  : 0;
        NextKillAt = SentBytes + Plan.MinGapBytes + KillRng.nextBelow(Span + 1);
        return Status(StatusCode::IoError, "injected connection kill");
      }
      Chunk = static_cast<size_t>(
          std::min<uint64_t>(Chunk, NextKillAt - SentBytes));
    }
    const ssize_t W = ::send(Fd, Data, Chunk, MSG_NOSIGNAL);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      const Status S(StatusCode::IoError,
                     std::string("send: ") + std::strerror(errno));
      dropConnection();
      return S;
    }
    Data += W;
    N -= static_cast<size_t>(W);
    SentBytes += static_cast<uint64_t>(W);
  }
  return Status::success();
}

void WireClient::backoff(int Attempt, uint32_t HintMs) {
  uint64_t DelayMs =
      HintMs != 0
          ? HintMs
          : std::min<uint64_t>(Policy.BackoffMaxMs,
                               static_cast<uint64_t>(Policy.BackoffBaseMs)
                                   << (Attempt < 20 ? Attempt : 20));
  if (DelayMs == 0)
    DelayMs = 1;
  DelayMs += Jitter.nextBelow(DelayMs / 2 + 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(DelayMs));
}

void WireClient::trimSpill() {
  while (!Spill.empty()) {
    const auto &Front = Spill.front();
    if (Front.first + eventsInFrame(Front.second) > AckedSeq)
      break;
    SpillBytes -= Front.second.size();
    Spill.pop_front();
  }
}

void WireClient::handleServerFrame(const WireFrameView &F) {
  switch (F.Type) {
  case WireFrame::Ack:
    if (F.Payload.size() == 8) {
      const uint64_t A = wireGetU64(F.Payload.data());
      if (A > AckedSeq)
        AckedSeq = A;
      trimSpill();
    }
    return;
  case WireFrame::Report:
    HasStashedReport = true;
    StashedReport.assign(F.Payload.data(), F.Payload.size());
    return;
  case WireFrame::WireError: {
    WireErrorInfo E;
    if (wireParseError(F.Payload, E) && !E.Retryable)
      failFatal(E);
    // Retryable mid-stream errors force a reconnect on the next send.
    dropConnection();
    return;
  }
  default:
    return; // Welcome/ResumeOk replays and anything unexpected.
  }
}

void WireClient::drainAcks() {
  if (Fd < 0)
    return;
  char Buf[4096];
  for (;;) {
    pollfd P{Fd, POLLIN, 0};
    const int PR = ::poll(&P, 1, 0);
    if (PR <= 0 || !(P.revents & (POLLIN | POLLHUP | POLLERR)))
      break;
    const ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N == 0) {
      dropConnection();
      return;
    }
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    Dec.append(Buf, static_cast<size_t>(N));
  }
  WireFrameView F;
  while (Fd >= 0 && Dec.next(F) == 1)
    handleServerFrame(F);
}

Status WireClient::connectResumable(const std::string &SocketPath, int RetryMs,
                                    WireRetryPolicy P) {
  Path = SocketPath;
  Policy = P;
  Jitter.reseed(Policy.JitterSeed);
  Resumable = true;
  return handshakeFresh(RetryMs);
}

/// Establishes a brand-new resumable session (first connect, or a full
/// restart when the outage predates the Welcome).
Status WireClient::handshakeFresh(int RetryMs) {
  Status Last;
  uint32_t Hint = 0;
  for (int Attempt = 0; Attempt < Policy.MaxAttempts; ++Attempt) {
    if (Attempt != 0) {
      backoff(Attempt, Hint);
      Hint = 0;
    }
    if (Fd < 0) {
      Status CS = connectUnix(Path, RetryMs);
      if (!CS.ok()) {
        Last = CS;
        continue;
      }
      Dec = FrameDecoder();
    }
    const std::string Hello = wireHelloFrame(WireHelloResumable);
    Status S = rawSend(Hello.data(), Hello.size());
    if (!S.ok()) {
      Last = S;
      continue;
    }
    WireFrame T;
    std::string Pl;
    S = readFrame(T, Pl, 5000);
    if (!S.ok()) {
      dropConnection();
      Last = S;
      continue;
    }
    if (T == WireFrame::Welcome) {
      if (Pl.size() != 16)
        return Status(StatusCode::ValidationError, "bad welcome payload");
      SessId = wireGetU64(Pl.data());
      Token = wireGetU64(Pl.data() + 8);
      AckedSeq = 0;
      return Status::success();
    }
    if (T == WireFrame::WireError) {
      WireErrorInfo E;
      wireParseError(Pl, E);
      dropConnection();
      if (E.Retryable) {
        Hint = E.RetryAfterMs;
        Last = Status(StatusCode::InvalidState, E.Message);
        continue;
      }
      return failFatal(E);
    }
    dropConnection();
    Last = Status(StatusCode::ValidationError,
                  std::string("expected welcome, got ") + wireFrameName(T));
  }
  return Last.ok() ? Status(StatusCode::IoError,
                            "resumable handshake attempts exhausted")
                   : Last;
}

Status WireClient::reconnectAndResume() {
  if (!Resumable)
    return Status(StatusCode::IoError, "connection lost (not resumable)");
  if (!Fatal.ok())
    return Fatal;
  if (SessId == 0) {
    // The outage predates the Welcome: start a fresh session and replay
    // the whole logged stream into it.
    Status S = handshakeFresh(0);
    if (!S.ok())
      return S;
    ++Reconnects;
    return retransmit();
  }
  if (Token == 0) {
    // No token (resume disabled server-side, or the spill was dropped):
    // a fresh session would get only what is still logged and report an
    // empty or partial stream as if it were the whole one.
    Fatal = Status(StatusCode::IoError,
                   "connection lost and the session has no resume token");
    return Fatal;
  }
  Status Last;
  uint32_t Hint = 0;
  for (int Attempt = 0; Attempt < Policy.MaxAttempts; ++Attempt) {
    if (Attempt != 0) {
      backoff(Attempt, Hint);
      Hint = 0;
    }
    Status CS = connectUnix(Path, 0);
    if (!CS.ok()) {
      Last = CS;
      continue;
    }
    Dec = FrameDecoder();
    std::string HS = wireHelloFrame(WireHelloAttach);
    HS += wireResumeFrame(Token, NextSeq);
    Status S = rawSend(HS.data(), HS.size());
    if (!S.ok()) {
      Last = S;
      continue;
    }
    WireFrame T;
    std::string Pl;
    S = readFrame(T, Pl, 5000);
    if (!S.ok()) {
      dropConnection();
      Last = S;
      continue;
    }
    if (T == WireFrame::ResumeOk) {
      if (Pl.size() != 16)
        return Status(StatusCode::ValidationError, "bad resume-ok payload");
      SessId = wireGetU64(Pl.data());
      const uint64_t Applied = wireGetU64(Pl.data() + 8);
      if (Applied > AckedSeq)
        AckedSeq = Applied;
      trimSpill();
      ++Reconnects;
      if (FinishSent && AckedSeq >= NextSeq) {
        // Everything already applied server-side; the Report (live
        // finalize or finished-session replay) follows on this
        // connection — nothing to retransmit.
        return Status::success();
      }
      return retransmit();
    }
    if (T == WireFrame::WireError) {
      WireErrorInfo E;
      wireParseError(Pl, E);
      dropConnection();
      if (E.Retryable) {
        Hint = E.RetryAfterMs;
        Last = Status(StatusCode::InvalidState, E.Message);
        continue;
      }
      return failFatal(E);
    }
    dropConnection();
    Last = Status(StatusCode::ValidationError,
                  std::string("expected resume-ok, got ") + wireFrameName(T));
  }
  return Last.ok() ? Status(StatusCode::IoError,
                            "resume attempts exhausted")
                   : Last;
}

/// Replays declares, every unacked spill frame, and Finish (if already
/// sent) after a (re)attach. An injected kill mid-replay recurses into
/// reconnectAndResume — bounded by the fault plan's kill budget.
Status WireClient::retransmit() {
  if (!DeclareLog.empty()) {
    Status S = rawSend(DeclareLog.data(), DeclareLog.size());
    if (!S.ok())
      return reconnectAndResume();
  }
  for (const auto &E : Spill) {
    if (E.first + eventsInFrame(E.second) <= AckedSeq)
      continue;
    Status S = rawSend(E.second.data(), E.second.size());
    if (!S.ok())
      return reconnectAndResume();
  }
  if (FinishSent) {
    const std::string FF = finishFrame();
    Status S = rawSend(FF.data(), FF.size());
    if (!S.ok())
      return reconnectAndResume();
  }
  return Status::success();
}

Status WireClient::sendFrameReliable(const std::string &Frame, bool IsEvents,
                                     uint64_t StartSeq, uint64_t Count) {
  for (;;) {
    if (!Fatal.ok())
      return Fatal;
    if (Fd < 0) {
      Status RS = reconnectAndResume();
      if (!RS.ok())
        return RS;
    }
    drainAcks();
    if (!Fatal.ok())
      return Fatal;
    if (IsEvents && StartSeq + Count <= AckedSeq)
      return Status::success(); // Applied before the last outage.
    if (Fd < 0)
      continue; // drainAcks saw a hangup; resume first.
    Status S = rawSend(Frame.data(), Frame.size());
    if (S.ok())
      return Status::success();
    // Connection died mid-frame (injected or real): resume and retry.
  }
}

Status WireClient::sendDeclareFrames(const std::string &Frames) {
  if (Frames.empty())
    return Status::success();
  if (Resumable)
    DeclareLog += Frames;
  return sendFrameReliable(Frames, /*IsEvents=*/false, 0, 0);
}

Status WireClient::sendEventsFrame(const std::string &Frame) {
  const uint64_t Start = NextSeq;
  if (Frame.size() < WireFrameHeaderSize + 12 ||
      static_cast<WireFrame>(Frame[4]) != WireFrame::Events ||
      wireGetU64(Frame.data() + WireFrameHeaderSize) != Start)
    return Status(StatusCode::InvalidState,
                  "not an events frame starting at sequence " +
                      std::to_string(Start));
  const uint64_t Count = eventsInFrame(Frame);
  NextSeq += Count;
  if (Resumable && (Token != 0 || SessId == 0)) {
    if (SpillBytes + Frame.size() > Policy.SpillMaxBytes) {
      // Too much unacknowledged to resume from: drop the spill and the
      // token, keep streaming, and let the next outage be final.
      Spill.clear();
      SpillBytes = 0;
      Token = 0;
    } else {
      SpillBytes += Frame.size();
      Spill.emplace_back(Start, Frame);
    }
  }
  return sendFrameReliable(Frame, /*IsEvents=*/true, Start, Count);
}

Status WireClient::sendDeclares(const Trace &T) {
  return sendDeclareFrames(encodeDeclareFrames(T));
}

Status WireClient::sendEvents(const Trace &T, uint64_t BatchEvents) {
  for (const std::string &Frame : encodeEventFrames(T, BatchEvents, NextSeq)) {
    Status S = sendEventsFrame(Frame);
    if (!S.ok())
      return S;
  }
  return Status::success();
}

Status WireClient::sendFinishReliable() {
  FinishSent = true;
  return sendFrameReliable(finishFrame(), /*IsEvents=*/false, 0, 0);
}

Status WireClient::awaitReport(std::string &Payload, int TimeoutMs) {
  const auto Start = std::chrono::steady_clock::now();
  for (;;) {
    if (HasStashedReport) {
      Payload = StashedReport;
      HasStashedReport = false;
      return Status::success();
    }
    if (!Fatal.ok())
      return Fatal;
    const auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - Start)
                             .count();
    if (Elapsed >= TimeoutMs)
      return Status(StatusCode::IoError, "timed out waiting for the report");
    if (Fd < 0) {
      Status RS = reconnectAndResume();
      if (!RS.ok())
        return RS;
      continue;
    }
    WireFrame T;
    std::string Pl;
    Status S = readFrame(T, Pl, 1000);
    if (!S.ok()) {
      if (S.Code == StatusCode::IoError) {
        dropConnection(); // Reconnect (or time out) on the next lap.
        continue;
      }
      return S;
    }
    switch (T) {
    case WireFrame::Report:
      Payload = std::move(Pl);
      return Status::success();
    case WireFrame::Ack:
      if (Pl.size() == 8 && wireGetU64(Pl.data()) > AckedSeq) {
        AckedSeq = wireGetU64(Pl.data());
        trimSpill();
      }
      continue;
    case WireFrame::Welcome:
    case WireFrame::ResumeOk:
      continue;
    case WireFrame::WireError: {
      WireErrorInfo E;
      wireParseError(Pl, E);
      if (E.Retryable) {
        dropConnection();
        backoff(1, E.RetryAfterMs);
        continue;
      }
      return failFatal(E);
    }
    default:
      continue;
    }
  }
}

Status WireClient::readFrame(WireFrame &Type, std::string &Payload,
                             int TimeoutMs) {
  if (Fd < 0)
    return Status(StatusCode::InvalidState, "client is not connected");
  const auto Start = std::chrono::steady_clock::now();
  char Buf[4096];
  for (;;) {
    WireFrameView F;
    const int R = Dec.next(F);
    if (R == 1) {
      Type = F.Type;
      Payload.assign(F.Payload.data(), F.Payload.size());
      return Status::success();
    }
    if (R == -1)
      return Status(StatusCode::ValidationError, Dec.error());
    const auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - Start)
                             .count();
    if (Elapsed >= TimeoutMs)
      return Status(StatusCode::IoError, "timed out waiting for a frame");
    pollfd P{Fd, POLLIN, 0};
    const int PR = ::poll(&P, 1, 100);
    if (PR <= 0)
      continue;
    const ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N == 0)
      return Status(StatusCode::IoError, "peer closed before a full frame");
    if (N < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
        continue;
      return Status(StatusCode::IoError,
                    std::string("recv: ") + std::strerror(errno));
    }
    Dec.append(Buf, static_cast<size_t>(N));
  }
}

} // namespace rapid
