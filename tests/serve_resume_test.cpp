//===- tests/serve_resume_test.cpp - Fault tolerance: resume + degradation ----===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// The fault-tolerance contract of the serving layer, pinned in-process:
//
//   1. kill-and-resume — a resumable client whose connection is killed
//      N times mid-stream (deterministic seeded byte offsets) still
//      produces a final report byte-identical to an uninterrupted run:
//      no event duplicated, none lost (the sequence dedup + spill
//      retransmission is exactly-once);
//   2. determinism — the same fault seed yields the same kill schedule
//      and the same report, run after run;
//   3. graceful degradation — a saturated --max-sessions server sheds
//      Hellos with a *retryable* overloaded error carrying a retry-after
//      hint, and a backing-off client completes once capacity frees;
//   4. bounded grace — a detached resumable session whose client never
//      returns is finalized (prefix retained) when the grace window
//      expires; a Resume with an unknown token is rejected loudly;
//   5. idle eviction and roster GC run off the server's timer wheel;
//   6. no token, no resume — a session without a resume token (server
//      grace window off, or a spill overflow that dropped it) streams on,
//      but losing its connection is a permanent IoError, never a fresh
//      session that reports a truncated stream as the whole one.
//
//===----------------------------------------------------------------------===//

#include "api/AnalysisSession.h"
#include "gen/Workloads.h"
#include "io/WireFormat.h"
#include "serve/RaceServer.h"
#include "serve/ReportCanon.h"
#include "serve/WireClient.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

using namespace rapid;

namespace {

AnalysisConfig hbWcpConfig() {
  AnalysisConfig Cfg;
  Cfg.addDetector(DetectorKind::Hb);
  Cfg.addDetector(DetectorKind::Wcp);
  return Cfg;
}

std::string directCanon(const AnalysisConfig &Cfg, const Trace &T) {
  AnalysisSession S(Cfg);
  EXPECT_TRUE(S.feedTrace(T).ok());
  AnalysisResult R = S.finish();
  EXPECT_TRUE(R.ok()) << R.firstError().str();
  return canonicalReport(R, S.trace());
}

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "rapidpp_resume_" + Name;
}

bool eventually(const std::function<bool()> &Pred) {
  for (int I = 0; I < 500; ++I) {
    if (Pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Pred();
}

/// The CI chaos matrix varies the kill schedule via RAPID_FAULT_SEED;
/// locally the default seed keeps the run reproducible bit-for-bit.
uint64_t faultSeed() {
  if (const char *S = std::getenv("RAPID_FAULT_SEED"))
    return std::strtoull(S, nullptr, 10);
  return 7;
}

uint64_t metricValue(const std::vector<MetricSample> &Ms,
                     const std::string &Name) {
  for (const MetricSample &M : Ms)
    if (M.Name == Name)
      return M.Value;
  return 0;
}

class ServeResumeTest : public ::testing::Test {
protected:
  RaceServerConfig baseConfig(const std::string &Tag) {
    RaceServerConfig Cfg;
    Cfg.Session = hbWcpConfig();
    Cfg.SocketPath = tempPath(Tag + ".sock");
    Cfg.IngestThreads = 2;
    return Cfg;
  }

  /// Full resumable round trip under a fault plan; returns the final
  /// canonical report (and the client's reconnect count via \p Out).
  std::string runFaulty(const RaceServerConfig &Cfg, const Trace &T,
                        const WireFaultPlan &Plan, uint64_t *OutReconnects) {
    WireClient C;
    WireRetryPolicy Pol;
    Pol.JitterSeed = Plan.Seed;
    EXPECT_TRUE(C.connectResumable(Cfg.SocketPath, 2000, Pol).ok());
    EXPECT_NE(C.sessionToken(), 0u);
    C.setFaultPlan(Plan);
    EXPECT_TRUE(C.sendDeclares(T).ok());
    EXPECT_TRUE(C.sendEvents(T, 257).ok());
    EXPECT_TRUE(C.sendFinishReliable().ok());
    std::string Payload;
    Status S = C.awaitReport(Payload);
    EXPECT_TRUE(S.ok()) << S.str();
    if (Payload.size() < 9)
      return std::string();
    EXPECT_EQ(Payload[0], 0); // final, not partial
    if (OutReconnects)
      *OutReconnects = C.reconnects();
    return Payload.substr(9);
  }
};

// ---- 1. Kill-and-resume: byte-identical to the uninterrupted run -----------

TEST_F(ServeResumeTest, KilledConnectionResumesToByteIdenticalReport) {
  Trace T = makeWorkload(workloadSpec("mergesort"));
  RaceServerConfig Cfg = baseConfig("kill");
  const std::string Want = directCanon(Cfg.Session, T);
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());

  WireFaultPlan Plan;
  Plan.Seed = faultSeed();
  Plan.Kills = 3;
  Plan.MinGapBytes = 1024;
  Plan.MaxGapBytes = 8192;
  uint64_t Reconnects = 0;
  const std::string Got = runFaulty(Cfg, T, Plan, &Reconnects);

  // Byte-identical despite three mid-stream connection kills: the
  // retransmitted overlap was deduplicated, nothing was lost.
  EXPECT_EQ(Got, Want);
  EXPECT_GE(Reconnects, 1u);
  EXPECT_LE(Reconnects, static_cast<uint64_t>(Plan.Kills));

  ASSERT_TRUE(eventually([&] { return Server.finishedSessions().size() == 1; }));
  SessionSummary Done = Server.finishedSessions()[0];
  EXPECT_TRUE(Done.CleanFinish);
  EXPECT_TRUE(Done.Outcome.ok()) << Done.Outcome.str();
  EXPECT_EQ(Done.Events, T.size()); // exactly once: no dup, no loss
  EXPECT_EQ(Done.Resumes, Reconnects);
  EXPECT_NE(Done.Token, 0u);
  EXPECT_EQ(Done.Canon, Want);
  EXPECT_GE(metricValue(Server.metrics(), "resumes"), Reconnects);
  Server.stop();
}

// ---- 2. Determinism: same seed, same schedule, same report -----------------

TEST_F(ServeResumeTest, SameSeedSameKillScheduleSameReport) {
  Trace T = makeWorkload(workloadSpec("mergesort"));
  WireFaultPlan Plan;
  Plan.Seed = faultSeed();
  Plan.Kills = 2;
  Plan.MinGapBytes = 700;
  Plan.MaxGapBytes = 4096;

  std::string Canon[2];
  uint64_t Reconnects[2] = {0, 0};
  for (int Run = 0; Run != 2; ++Run) {
    RaceServerConfig Cfg = baseConfig("det" + std::to_string(Run));
    RaceServer Server(Cfg);
    ASSERT_TRUE(Server.start().ok());
    Canon[Run] = runFaulty(Cfg, T, Plan, &Reconnects[Run]);
    Server.stop();
  }
  ASSERT_FALSE(Canon[0].empty());
  EXPECT_EQ(Canon[0], Canon[1]);
  EXPECT_EQ(Reconnects[0], Reconnects[1])
      << "the seeded kill schedule must replay identically";
  EXPECT_EQ(Canon[0], directCanon(hbWcpConfig(), T));
}

// ---- 3. Overload: retryable shed, then recovery ----------------------------

TEST_F(ServeResumeTest, SaturatedServerShedsRetryablyAndBackoffRecovers) {
  Trace T = makeWorkload(workloadSpec("mergesort"));
  RaceServerConfig Cfg = baseConfig("shed");
  Cfg.MaxSessions = 1;
  Cfg.RetryAfterMs = 50;
  const std::string Want = directCanon(Cfg.Session, T);
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());

  // Occupy the only slot.
  WireClient A;
  ASSERT_TRUE(A.connectUnix(Cfg.SocketPath, 2000).ok());
  ASSERT_TRUE(A.sendHello().ok());
  ASSERT_TRUE(eventually([&] { return Server.activeSessions() == 1; }));

  // A second plain Hello is shed with a *retryable* overloaded error
  // carrying the configured retry-after hint.
  {
    WireClient B;
    ASSERT_TRUE(B.connectUnix(Cfg.SocketPath, 2000).ok());
    ASSERT_TRUE(B.sendHello().ok());
    WireFrame Type;
    std::string Payload;
    ASSERT_TRUE(B.readFrame(Type, Payload).ok());
    ASSERT_EQ(Type, WireFrame::WireError);
    WireErrorInfo E;
    ASSERT_TRUE(wireParseError(Payload, E));
    EXPECT_EQ(E.Wire, WireErrorCode::Overloaded);
    EXPECT_TRUE(E.Retryable);
    EXPECT_EQ(E.RetryAfterMs, 50u);
    EXPECT_TRUE(wireErrorRetryable(E.Wire));
  }
  EXPECT_GE(metricValue(Server.metrics(), "shed"), 1u);

  // A resumable client keeps backing off against the saturated server
  // and completes once the slot frees.
  std::thread Release([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    A.sendFinish();
    WireFrame Type;
    std::string Payload;
    A.readFrame(Type, Payload);
    A.close();
  });
  WireClient C;
  WireRetryPolicy Pol;
  Pol.MaxAttempts = 40;
  Status CS = C.connectResumable(Cfg.SocketPath, 2000, Pol);
  Release.join();
  ASSERT_TRUE(CS.ok()) << CS.str();
  ASSERT_TRUE(C.sendDeclares(T).ok());
  ASSERT_TRUE(C.sendEvents(T).ok());
  ASSERT_TRUE(C.sendFinishReliable().ok());
  std::string Payload;
  ASSERT_TRUE(C.awaitReport(Payload).ok());
  ASSERT_GE(Payload.size(), 9u);
  EXPECT_EQ(Payload.substr(9), Want);
  Server.stop();
}

// ---- 4. Grace expiry and unknown tokens ------------------------------------

TEST_F(ServeResumeTest, GraceExpiryFinalizesDetachedSessionPrefix) {
  Trace T = makeWorkload(workloadSpec("mergesort"));
  RaceServerConfig Cfg = baseConfig("grace");
  Cfg.ResumeGraceMs = 200;
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());

  WireClient C;
  ASSERT_TRUE(C.connectResumable(Cfg.SocketPath, 2000).ok());
  ASSERT_NE(C.sessionToken(), 0u);
  ASSERT_TRUE(C.sendDeclares(T).ok());
  ASSERT_TRUE(C.sendEvents(T, 511).ok());
  // Client dies without Finish and never resumes: the server parks the
  // session for the grace window, then finalizes the received prefix.
  C.close();

  ASSERT_TRUE(eventually([&] { return Server.finishedSessions().size() == 1; }));
  SessionSummary Done = Server.finishedSessions()[0];
  EXPECT_FALSE(Done.CleanFinish);
  EXPECT_EQ(Done.Outcome.Code, StatusCode::IoError);
  EXPECT_NE(Done.Outcome.Message.find("grace window expired"),
            std::string::npos)
      << Done.Outcome.str();
  EXPECT_FALSE(Done.Canon.empty()); // the prefix report is retained
  EXPECT_GE(metricValue(Server.metrics(), "grace_expired"), 1u);
  EXPECT_GE(metricValue(Server.metrics(), "detached"), 1u);
  EXPECT_EQ(Server.activeSessions(), 0u);
  Server.stop();
}

TEST_F(ServeResumeTest, ResumeWithUnknownTokenIsRejectedLoudly) {
  RaceServerConfig Cfg = baseConfig("unknown");
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());

  WireClient C;
  ASSERT_TRUE(C.connectUnix(Cfg.SocketPath, 2000).ok());
  std::string Bytes = wireHelloFrame(WireHelloAttach);
  Bytes += wireResumeFrame(/*Token=*/0xdeadbeefcafeull, /*NextSeq=*/0);
  ASSERT_TRUE(C.sendBytes(Bytes).ok());
  WireFrame Type;
  std::string Payload;
  ASSERT_TRUE(C.readFrame(Type, Payload).ok());
  ASSERT_EQ(Type, WireFrame::WireError);
  WireErrorInfo E;
  ASSERT_TRUE(wireParseError(Payload, E));
  EXPECT_EQ(E.Wire, WireErrorCode::ResumeUnknown);
  EXPECT_FALSE(E.Retryable);
  EXPECT_STREQ(wireErrorCodeName(E.Wire), "resume-unknown");
  Server.stop();
}

// ---- 5. Idle eviction and roster GC ----------------------------------------

TEST_F(ServeResumeTest, IdleSessionsAreEvictedAndRosterIsTrimmed) {
  Trace T = makeWorkload(workloadSpec("mergesort"));
  RaceServerConfig Cfg = baseConfig("gc");
  Cfg.IdleTimeoutMs = 200;
  Cfg.RosterMax = 2;
  Cfg.ResumeGraceMs = 0; // plain disconnects finalize immediately
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());

  // Three clean sessions; the roster GC must trim retention to the
  // newest two.
  uint64_t Ids[3] = {0, 0, 0};
  for (int I = 0; I != 3; ++I) {
    WireClient C;
    ASSERT_TRUE(C.connectUnix(Cfg.SocketPath, 2000).ok());
    ASSERT_TRUE(C.sendHello().ok());
    ASSERT_TRUE(C.sendTrace(T).ok());
    ASSERT_TRUE(C.sendFinish().ok());
    WireFrame Type;
    std::string Payload;
    ASSERT_TRUE(C.readFrame(Type, Payload).ok());
    ASSERT_EQ(Type, WireFrame::Report);
    ASSERT_GE(Payload.size(), 9u);
    Ids[I] = wireGetU64(Payload.data() + 1);
  }
  // Wait for the *exact* trimmed roster, not just its size: the roster
  // briefly reads [1, 2] while session 3's summary is still landing.
  ASSERT_TRUE(eventually([&] {
    std::vector<SessionSummary> Kept = Server.finishedSessions();
    return Kept.size() == 2 && Kept[0].Id == Ids[1] && Kept[1].Id == Ids[2];
  })) << "roster never trimmed to the newest two summaries";

  // An idle connection (hello, then silence) is evicted by the timer
  // wheel once IdleTimeoutMs passes.
  WireClient Idle;
  ASSERT_TRUE(Idle.connectUnix(Cfg.SocketPath, 2000).ok());
  ASSERT_TRUE(Idle.sendHello().ok());
  ASSERT_TRUE(eventually([&] { return Server.activeSessions() == 1; }));
  ASSERT_TRUE(eventually([&] { return Server.activeSessions() == 0; }));
  EXPECT_GE(metricValue(Server.metrics(), "idle_evicted"), 1u);
  ASSERT_TRUE(eventually([&] {
    for (const SessionSummary &S : Server.finishedSessions())
      if (!S.CleanFinish &&
          S.Outcome.Message.find("idle past") != std::string::npos)
        return true;
    return false;
  }));
  Server.stop();
}

// ---- 6. No token, no resume ------------------------------------------------

TEST_F(ServeResumeTest, LostConnectionWithoutTokenFailsInsteadOfRestarting) {
  Trace T = makeWorkload(workloadSpec("mergesort"));
  RaceServerConfig Cfg = baseConfig("notoken");
  Cfg.ResumeGraceMs = 0; // Welcome carries token 0: resume is off
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());

  WireClient C;
  ASSERT_TRUE(C.connectResumable(Cfg.SocketPath, 2000).ok());
  ASSERT_EQ(C.sessionToken(), 0u);
  // Kill the connection exactly where the Finish frame starts: every
  // declare and event is through, the Finish is not.
  WireFaultPlan Plan;
  Plan.Kills = 1;
  Plan.MinGapBytes = Plan.MaxGapBytes = encodeTraceFrames(T, 257).size();
  C.setFaultPlan(Plan);
  ASSERT_TRUE(C.sendDeclares(T).ok());
  ASSERT_TRUE(C.sendEvents(T, 257).ok());
  Status S = C.sendFinishReliable();
  std::string Payload;
  if (S.ok())
    S = C.awaitReport(Payload);
  EXPECT_EQ(S.Code, StatusCode::IoError) << S.str();
  EXPECT_EQ(C.reconnects(), 0u);

  // The one session the server saw got the whole stream; no second,
  // empty session was opened behind it.
  ASSERT_TRUE(eventually([&] {
    return Server.activeSessions() == 0 &&
           Server.finishedSessions().size() == 1;
  }));
  EXPECT_EQ(Server.finishedSessions()[0].Events, T.size());
  Server.stop();
}

TEST_F(ServeResumeTest, SpillOverflowDropsTheTokenAndKeepsStreaming) {
  Trace T = makeWorkload(workloadSpec("mergesort"));
  RaceServerConfig Cfg = baseConfig("overflow");
  const std::string Want = directCanon(Cfg.Session, T);
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());

  // A cap that holds a one-event frame: the first 257-event frame
  // overflows it, deterministically.
  WireClient C;
  WireRetryPolicy Pol;
  Pol.SpillMaxBytes = WireFrameHeaderSize + 12 + WireEventRecordSize;
  ASSERT_TRUE(C.connectResumable(Cfg.SocketPath, 2000, Pol).ok());
  ASSERT_NE(C.sessionToken(), 0u);
  ASSERT_TRUE(C.sendDeclares(T).ok());
  Status S = C.sendEvents(T, 257);
  ASSERT_TRUE(S.ok()) << S.str();
  EXPECT_EQ(C.sessionToken(), 0u);
  ASSERT_TRUE(C.sendFinishReliable().ok());
  std::string Payload;
  S = C.awaitReport(Payload);
  ASSERT_TRUE(S.ok()) << S.str();
  ASSERT_GE(Payload.size(), 9u);
  EXPECT_EQ(Payload.substr(9), Want);
  EXPECT_EQ(C.sessionToken(), 0u);
  Server.stop();
}

} // namespace
