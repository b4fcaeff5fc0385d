//===- tests/serve_test.cpp - Serving layer: protocol and server --------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// Three legs of the serving layer's contract, pinned in-process on the
// one path frames take to a session (RaceServer's per-connection
// FrameDecoder, then WireIngestor::applyFrame):
//
//   1. delivery equivalence — a stream sent whole, or in seeded random
//      fragments with tiny stalls between them, produces a canonical
//      report bit-for-bit identical to feeding the trace directly;
//   2. sticky failure — the first malformed frame (missing hello, bad
//      kind, undeclared ids, unknown type, oversized length, a second
//      hello, a torn frame at disconnect) freezes the stream with a
//      ValidationError, later frames are ignored, and the
//      already-analyzed prefix stays finishable;
//   3. server discipline — RaceServer finalizes on Finish *and* on
//      disconnect, parks over-budget producers instead of buffering or
//      dropping (events complete, parks counted), enforces the hard
//      event budget loudly, and answers mid-stream partial queries with
//      exact prefixes of the final report.
//
//===----------------------------------------------------------------------===//

#include "api/AnalysisSession.h"
#include "gen/Workloads.h"
#include "hb/HbDetector.h"
#include "io/WireFormat.h"
#include "serve/RaceServer.h"
#include "serve/ReportCanon.h"
#include "serve/WireClient.h"
#include "serve/WireIngestor.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
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

/// The offline ground truth: feed \p T directly, canonicalize.
std::string directCanon(const AnalysisConfig &Cfg, const Trace &T) {
  AnalysisSession S(Cfg);
  EXPECT_TRUE(S.feedTrace(T).ok());
  AnalysisResult R = S.finish();
  EXPECT_TRUE(R.ok()) << R.firstError().str();
  return canonicalReport(R, S.trace());
}

/// Hello + declares + events + finish: one session's complete stream.
std::string fullWireStream(const Trace &T, uint64_t BatchEvents = 8192) {
  std::string Bytes = wireHelloFrame();
  Bytes += encodeTraceFrames(T, BatchEvents);
  wireAppendFrame(Bytes, WireFrame::Finish, {});
  return Bytes;
}

/// The CI chaos matrix varies the delivery schedule via RAPID_FAULT_SEED;
/// locally the default seed keeps the run reproducible.
uint64_t faultSeed() {
  if (const char *S = std::getenv("RAPID_FAULT_SEED"))
    return std::strtoull(S, nullptr, 10);
  return 41;
}

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "rapidpp_serve_" + Name;
}

/// Splits a canonical listing into per-lane `race ...` line sequences.
std::vector<std::vector<std::string>> raceLinesPerLane(const std::string &C) {
  std::vector<std::vector<std::string>> Lanes;
  std::istringstream In(C);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind("lane ", 0) == 0)
      Lanes.emplace_back();
    else if (Line.rfind("race ", 0) == 0 && !Lanes.empty())
      Lanes.back().push_back(Line);
  }
  return Lanes;
}

/// The torn-merge check at the wire level: every lane's race lines in
/// \p Partial must be an exact prefix of the same lane's in \p Final.
void expectCanonIsPrefix(const std::string &Partial, const std::string &Final,
                         const std::string &Label) {
  auto P = raceLinesPerLane(Partial), F = raceLinesPerLane(Final);
  ASSERT_EQ(P.size(), F.size()) << Label;
  for (size_t L = 0; L != P.size(); ++L) {
    ASSERT_LE(P[L].size(), F[L].size()) << Label << " lane " << L;
    for (size_t I = 0; I != P[L].size(); ++I)
      EXPECT_EQ(P[L][I], F[L][I]) << Label << " lane " << L << " race " << I;
  }
}

/// Retries \p Pred for up to five seconds (server-side transitions are
/// asynchronous: eviction happens on the IO thread after the poll tick).
bool eventually(const std::function<bool()> &Pred) {
  for (int I = 0; I < 500; ++I) {
    if (Pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Pred();
}

/// Reads the next frame from \p C, expects a WireError with the
/// machine-readable \p Code, and returns its message.
std::string expectWireError(WireClient &C, WireErrorCode Code) {
  WireFrame Type;
  std::string Payload;
  Status R = C.readFrame(Type, Payload);
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_EQ(Type, WireFrame::WireError);
  WireErrorInfo E;
  EXPECT_TRUE(wireParseError(Payload, E));
  EXPECT_EQ(E.Wire, Code) << E.Message;
  return E.Message;
}

/// A frozen session still reports its analyzed prefix: reads the final
/// Report frame that follows the error and returns its canonical listing.
std::string expectFinalReport(WireClient &C) {
  WireFrame Type;
  std::string Payload;
  EXPECT_TRUE(C.readFrame(Type, Payload).ok());
  EXPECT_EQ(Type, WireFrame::Report);
  if (Payload.size() < 9)
    return std::string();
  EXPECT_EQ(Payload[0], 0); // final
  return Payload.substr(9);
}

/// The server hung up after its last reply: the next read fails with an
/// IoError (EOF or reset) instead of yielding a frame.
void expectClosed(WireClient &C) {
  WireFrame Type = WireFrame::Hello;
  std::string Payload;
  EXPECT_EQ(C.readFrame(Type, Payload).Code, StatusCode::IoError)
      << "unexpected frame " << wireFrameName(Type);
}

// ---- 1. Frame semantics (applyFrame) --------------------------------------

/// Drives an ingestor the way a server connection does after its
/// handshake: decode frames, hand each to applyFrame().
class WireIngestorTest : public ::testing::Test {
protected:
  WireIngestorTest() : S(hbWcpConfig()), Ing(S) {}
  void apply(const std::string &Bytes) {
    FrameDecoder Dec;
    Dec.append(Bytes.data(), Bytes.size());
    WireFrameView F;
    while (Dec.next(F) == 1)
      Ing.applyFrame(F);
    ASSERT_EQ(Dec.buffered(), 0u) << "test bytes must be whole frames";
  }
  std::string declareOneThread() {
    std::string P;
    wireDeclareEntry(P, WireDeclareKind::Thread, "T0");
    std::string Out;
    wireAppendFrame(Out, WireFrame::Declare, P);
    return Out;
  }
  AnalysisSession S;
  WireIngestor Ing;
};

TEST_F(WireIngestorTest, BadEventKindFreezesWithoutApplying) {
  apply(declareOneThread());
  std::string P;
  wireEventsHeader(P, /*Seq=*/0, /*Count=*/1);
  wireEventRecord(P, /*Kind=*/9, 0, 0, 0); // 9 is not an EventKind.
  std::string F;
  wireAppendFrame(F, WireFrame::Events, P);
  apply(F);
  EXPECT_EQ(Ing.status().Code, StatusCode::ValidationError);
  EXPECT_EQ(Ing.eventsApplied(), 0u);
}

TEST_F(WireIngestorTest, UndeclaredIdsFreeze) {
  std::string P;
  wireEventsHeader(P, /*Seq=*/0, /*Count=*/1);
  wireEventRecord(P, /*Kind=*/0, /*Thread=*/5, /*Target=*/0, /*Loc=*/0);
  std::string F;
  wireAppendFrame(F, WireFrame::Events, P);
  apply(F);
  EXPECT_EQ(Ing.status().Code, StatusCode::ValidationError);
  // Sticky: a valid prefix afterwards applies nothing.
  apply(declareOneThread());
  EXPECT_EQ(Ing.framesApplied(), 0u);
}

// ---- 2. RaceServer ---------------------------------------------------------

class RaceServerTest : public ::testing::Test {
protected:
  RaceServerConfig baseConfig(const std::string &Tag) {
    RaceServerConfig Cfg;
    Cfg.Session = hbWcpConfig();
    Cfg.SocketPath = tempPath(Tag + ".sock");
    Cfg.IngestThreads = 2;
    return Cfg;
  }
};

TEST_F(RaceServerTest, CleanSessionMatchesOfflineAndPartialIsPrefix) {
  Trace T = makeWorkload(workloadSpec("mergesort"));
  RaceServerConfig Cfg = baseConfig("clean");
  std::string Want = directCanon(Cfg.Session, T);
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());

  WireClient C;
  ASSERT_TRUE(C.connectUnix(Cfg.SocketPath, 2000).ok());
  ASSERT_TRUE(C.sendHello().ok());
  ASSERT_TRUE(C.sendTrace(T, 511).ok());

  // Mid-stream partial of our own session: a Report frame with the
  // partial flag, and an exact prefix of the final listing.
  ASSERT_TRUE(C.sendPartialQuery().ok());
  WireFrame Type;
  std::string Payload;
  ASSERT_TRUE(C.readFrame(Type, Payload).ok());
  ASSERT_EQ(Type, WireFrame::Report);
  ASSERT_GE(Payload.size(), 9u);
  EXPECT_EQ(Payload[0], 1); // partial
  std::string PartialCanon = Payload.substr(9);

  ASSERT_TRUE(C.sendFinish().ok());
  ASSERT_TRUE(C.readFrame(Type, Payload).ok());
  ASSERT_EQ(Type, WireFrame::Report);
  ASSERT_GE(Payload.size(), 9u);
  EXPECT_EQ(Payload[0], 0); // final
  uint64_t Id = wireGetU64(Payload.data() + 1);
  std::string FinalCanon = Payload.substr(9);

  EXPECT_EQ(FinalCanon, Want);
  expectCanonIsPrefix(PartialCanon, FinalCanon, "live partial");

  ASSERT_TRUE(eventually([&] { return Server.finishedSessions().size() == 1; }));
  std::vector<SessionSummary> Done = Server.finishedSessions();
  EXPECT_EQ(Done[0].Id, Id);
  EXPECT_TRUE(Done[0].CleanFinish);
  EXPECT_TRUE(Done[0].Outcome.ok()) << Done[0].Outcome.str();
  EXPECT_EQ(Done[0].Events, T.size());
  EXPECT_EQ(Done[0].Canon, Want);

  // The retained report stays queryable from a fresh connection, and the
  // roster lists the finished session.
  WireClient Q;
  ASSERT_TRUE(Q.connectUnix(Cfg.SocketPath, 2000).ok());
  ASSERT_TRUE(Q.sendHello().ok());
  ASSERT_TRUE(Q.sendFinalQuery(Id).ok());
  ASSERT_TRUE(Q.readFrame(Type, Payload).ok());
  ASSERT_EQ(Type, WireFrame::Report);
  EXPECT_EQ(Payload.substr(9), Want);
  ASSERT_TRUE(Q.sendListSessions().ok());
  ASSERT_TRUE(Q.readFrame(Type, Payload).ok());
  ASSERT_EQ(Type, WireFrame::SessionList);
  EXPECT_NE(Payload.find("finished " + std::to_string(Id)), std::string::npos)
      << Payload;
  Server.stop();
}

// Seeded delivery faults on the client side: the stream goes out in
// random pieces of 1..300 bytes with occasional stalls of up to 50 us, so
// the server's reads split frames at arbitrary offsets (headers included)
// and its per-connection decoder must reassemble them. Delivery changes,
// content does not: the report must stay bit-for-bit identical.
TEST_F(RaceServerTest, FragmentedDeliveryMatchesOfflineBitForBit) {
  Trace T = makeWorkload(workloadSpec("mergesort"));
  RaceServerConfig Cfg = baseConfig("fragmented");
  const std::string Want = directCanon(Cfg.Session, T);
  // Small batches force many Events frames: the interesting framing.
  const std::string Bytes = fullWireStream(T, 257);
  size_t Frames = 0;
  {
    FrameDecoder Dec;
    Dec.append(Bytes.data(), Bytes.size());
    WireFrameView F;
    while (Dec.next(F) == 1)
      ++Frames;
  }
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());

  WireClient C;
  ASSERT_TRUE(C.connectUnix(Cfg.SocketPath, 2000).ok());
  Prng Rng(faultSeed());
  size_t Pieces = 0;
  for (size_t Off = 0; Off < Bytes.size(); ++Pieces) {
    const size_t N = std::min<size_t>(Rng.nextInRange(1, 300),
                                      Bytes.size() - Off);
    ASSERT_TRUE(C.sendBytes(Bytes.substr(Off, N)).ok());
    Off += N;
    if (Rng.chance(1, 8))
      std::this_thread::sleep_for(
          std::chrono::microseconds(Rng.nextBelow(51)));
  }
  EXPECT_GT(Pieces, Frames) << "the schedule never split a frame";

  WireFrame Type;
  std::string Payload;
  ASSERT_TRUE(C.readFrame(Type, Payload).ok());
  ASSERT_EQ(Type, WireFrame::Report);
  ASSERT_GE(Payload.size(), 9u);
  EXPECT_EQ(Payload[0], 0); // final
  EXPECT_EQ(Payload.substr(9), Want) << "seed " << faultSeed();

  ASSERT_TRUE(eventually([&] { return Server.finishedSessions().size() == 1; }));
  SessionSummary Done = Server.finishedSessions()[0];
  EXPECT_TRUE(Done.CleanFinish);
  EXPECT_EQ(Done.Events, T.size());
  Server.stop();
}

TEST_F(RaceServerTest, DisconnectMidFrameEvictsWithTornFrameError) {
  Trace T = makeWorkload(workloadSpec("mergesort"));
  RaceServerConfig Cfg = baseConfig("evict");
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());

  std::string Bytes = wireHelloFrame() + encodeTraceFrames(T, 128);
  WireClient C;
  ASSERT_TRUE(C.connectUnix(Cfg.SocketPath, 2000).ok());
  // Cut inside the last frame: whole frames apply, the tail is torn.
  ASSERT_TRUE(C.sendBytes(Bytes.substr(0, Bytes.size() - 7)).ok());
  C.close();

  ASSERT_TRUE(eventually([&] { return Server.finishedSessions().size() == 1; }));
  SessionSummary Done = Server.finishedSessions()[0];
  EXPECT_FALSE(Done.CleanFinish);
  EXPECT_EQ(Done.Outcome.Code, StatusCode::ValidationError);
  EXPECT_NE(Done.Outcome.Message.find("disconnected mid-frame"),
            std::string::npos)
      << Done.Outcome.str();
  EXPECT_GT(Done.Events, 0u); // The whole-frame prefix was applied.
  EXPECT_LT(Done.Events, T.size());
  EXPECT_EQ(Server.activeSessions(), 0u);
  Server.stop();
}

TEST_F(RaceServerTest, MalformedFrameGetsStickyErrorNotUb) {
  RaceServerConfig Cfg = baseConfig("sticky");
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());

  WireClient C;
  ASSERT_TRUE(C.connectUnix(Cfg.SocketPath, 2000).ok());
  ASSERT_TRUE(C.sendHello().ok());
  std::string P;
  wireEventsHeader(P, /*Seq=*/0, /*Count=*/1);
  wireEventRecord(P, /*Kind=*/9, 0, 0, 0);
  std::string F;
  wireAppendFrame(F, WireFrame::Events, P);
  ASSERT_TRUE(C.sendBytes(F).ok());

  WireFrame Type;
  std::string Payload;
  ASSERT_TRUE(C.readFrame(Type, Payload).ok());
  EXPECT_EQ(Type, WireFrame::WireError);
  ASSERT_GE(Payload.size(), 1u);
  EXPECT_EQ(static_cast<StatusCode>(Payload[0]), StatusCode::ValidationError);

  ASSERT_TRUE(eventually([&] { return Server.finishedSessions().size() == 1; }));
  EXPECT_EQ(Server.finishedSessions()[0].Outcome.Code,
            StatusCode::ValidationError);
  Server.stop();
}

TEST_F(RaceServerTest, DataBeforeHelloIsMalformedAndClosed) {
  RaceServerConfig Cfg = baseConfig("nohello");
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());

  std::string P;
  wireDeclareEntry(P, WireDeclareKind::Thread, "T0");
  std::string F;
  wireAppendFrame(F, WireFrame::Declare, P);
  WireClient C;
  ASSERT_TRUE(C.connectUnix(Cfg.SocketPath, 2000).ok());
  ASSERT_TRUE(C.sendBytes(F).ok());
  EXPECT_NE(expectWireError(C, WireErrorCode::Malformed)
                .find("first frame must be hello"),
            std::string::npos);
  expectClosed(C);
  // No Hello, no session: nothing was opened, so nothing was finalized.
  EXPECT_EQ(Server.activeSessions(), 0u);
  EXPECT_TRUE(Server.finishedSessions().empty());
  Server.stop();
}

TEST_F(RaceServerTest, UnknownFrameTypeAndOversizedLengthAreMalformedAndClosed) {
  RaceServerConfig Cfg = baseConfig("desync");
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());
  {
    // After the handshake: the decoder desync freezes the open session.
    WireClient C;
    ASSERT_TRUE(C.connectUnix(Cfg.SocketPath, 2000).ok());
    ASSERT_TRUE(C.sendHello().ok());
    std::string F;
    wirePutU32(F, 1);
    F.push_back(static_cast<char>(99)); // No such frame type.
    F.push_back('x');
    ASSERT_TRUE(C.sendBytes(F).ok());
    EXPECT_NE(expectWireError(C, WireErrorCode::Malformed)
                  .find("unknown frame type"),
              std::string::npos);
    expectFinalReport(C);
    expectClosed(C);
    ASSERT_TRUE(
        eventually([&] { return Server.finishedSessions().size() == 1; }));
    EXPECT_EQ(Server.finishedSessions()[0].Outcome.Code,
              StatusCode::ValidationError);
  }
  {
    // Before any Hello: the length field alone must desync.
    WireClient C;
    ASSERT_TRUE(C.connectUnix(Cfg.SocketPath, 2000).ok());
    std::string F;
    wirePutU32(F, WireMaxPayload + 1);
    F.push_back(static_cast<char>(WireFrame::Events));
    ASSERT_TRUE(C.sendBytes(F).ok());
    EXPECT_NE(expectWireError(C, WireErrorCode::Malformed).find("cap"),
              std::string::npos);
    expectClosed(C);
  }
  EXPECT_EQ(Server.finishedSessions().size(), 1u);
  Server.stop();
}

// The connection owns the handshake, so a second Hello reaches the
// ingestor as a data-plane protocol error: the session freezes with the
// sticky "duplicate hello", and what it applied before stays analyzed.
TEST_F(RaceServerTest, SecondHelloMidStreamFreezesWithDuplicateHello) {
  Trace T = makeWorkload(workloadSpec("mergesort"));
  RaceServerConfig Cfg = baseConfig("rehello");
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());

  WireClient C;
  ASSERT_TRUE(C.connectUnix(Cfg.SocketPath, 2000).ok());
  ASSERT_TRUE(C.sendHello().ok());
  ASSERT_TRUE(C.sendTrace(T, 256).ok());
  ASSERT_TRUE(C.sendHello().ok());
  EXPECT_NE(expectWireError(C, WireErrorCode::Malformed)
                .find("duplicate hello"),
            std::string::npos);
  // Every event preceded the second Hello, so the prefix is the trace.
  EXPECT_EQ(expectFinalReport(C), directCanon(Cfg.Session, T));
  expectClosed(C);

  ASSERT_TRUE(eventually([&] { return Server.finishedSessions().size() == 1; }));
  SessionSummary Done = Server.finishedSessions()[0];
  EXPECT_FALSE(Done.CleanFinish);
  EXPECT_EQ(Done.Outcome.Code, StatusCode::ValidationError);
  EXPECT_NE(Done.Outcome.Message.find("duplicate hello"), std::string::npos)
      << Done.Outcome.str();
  EXPECT_EQ(Done.Events, T.size()) << "the applied prefix must survive";
  Server.stop();
}

TEST_F(RaceServerTest, OverBudgetProducerIsParkedNotDropped) {
  // Deterministic backpressure: while the gate is closed the lane crawls
  // (one bounded 1 ms sleep per event — ~1k events/s against a ~2k-event
  // trace fed in one burst), so whenever the ingest-side lag check runs
  // it sees the lag far over the tiny budget and parks the connection.
  // Two non-solutions informed this shape: a merely-*slow* lane (tens of
  // µs per event) loses the race against a preempted ingest task on a
  // loaded ctest -j host, and a lane that *blocks* outright never lets
  // the test finish. (progress(), which the lag check calls, reads each
  // lane's consumed watermark without the lane's lock, so a blocked lane
  // no longer stalls the check itself — api_test pins that.) The contract
  // under test: parks > 0, yet every event is eventually analyzed —
  // backpressure, not loss.
  Trace T = makeWorkload(workloadSpec("mergesort"));
  RaceServerConfig Cfg = baseConfig("park");
  auto Gate = std::make_shared<std::atomic<bool>>(false);
  Cfg.Session = AnalysisConfig();
  Cfg.Session.StreamBatchEvents = 64;
  Cfg.Session.addDetector([Gate](const Trace &Tr) {
    class ThrottledHb : public HbDetector {
    public:
      ThrottledHb(const Trace &Tr, std::shared_ptr<std::atomic<bool>> G)
          : HbDetector(Tr), Gate(std::move(G)) {}
      void processEvent(const Event &E, EventIdx I) override {
        HbDetector::processEvent(E, I);
        if (!Gate->load(std::memory_order_acquire))
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }

    private:
      std::shared_ptr<std::atomic<bool>> Gate;
    };
    return std::make_unique<ThrottledHb>(Tr, Gate);
  }, "throttled-HB");
  Cfg.Budgets.MaxLagEvents = 64;
  Cfg.PollTimeoutMs = 5;
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());
  // Whatever happens below (including a failed ASSERT returning early),
  // open the gate before the server tears down so finish() drains the
  // lane at full speed instead of 1 ms per leftover event.
  struct GateOpener {
    std::shared_ptr<std::atomic<bool>> G;
    ~GateOpener() { G->store(true, std::memory_order_release); }
  } Opener{Gate};

  WireClient C;
  ASSERT_TRUE(C.connectUnix(Cfg.SocketPath, 2000).ok());
  ASSERT_TRUE(C.sendHello().ok());
  ASSERT_TRUE(C.sendTrace(T, 32).ok());
  // Hold Finish back until the park actually happened — with Finish in
  // the same byte burst the first ingest task would go straight to
  // finalize and the backpressure path would never be exercised.
  const bool Parked = eventually([&] {
    for (const MetricSample &M : Server.metrics())
      if (M.Name == "parks" && M.Value > 0)
        return true;
    return false;
  });
  if (!Parked) {
    std::string Dump;
    for (const MetricSample &M : Server.metrics())
      Dump += M.Name + "=" + std::to_string(M.Value) + " ";
    for (const SessionSummary &S : Server.finishedSessions())
      Dump += "\nfinished id=" + std::to_string(S.Id) +
              " events=" + std::to_string(S.Events) +
              " clean=" + std::to_string(S.CleanFinish) +
              " status=" + S.Outcome.str();
    FAIL() << "no park observed; server state: " << Dump;
  }
  // Park observed — release the gated lane so the session can drain and
  // finish; the resume path (lag back under half budget) runs from here.
  Gate->store(true, std::memory_order_release);
  ASSERT_TRUE(C.sendFinish().ok());

  WireFrame Type;
  std::string Payload;
  ASSERT_TRUE(C.readFrame(Type, Payload, /*TimeoutMs=*/120000).ok());
  ASSERT_EQ(Type, WireFrame::Report);

  ASSERT_TRUE(eventually([&] { return Server.finishedSessions().size() == 1; }));
  SessionSummary Done = Server.finishedSessions()[0];
  EXPECT_TRUE(Done.CleanFinish);
  EXPECT_EQ(Done.Events, T.size()) << "backpressure must not drop events";
  EXPECT_GT(Done.Parks, 0u) << "the slow consumer never parked";
  Server.stop();
}

TEST_F(RaceServerTest, HardEventBudgetFreezesLoudly) {
  Trace T = makeWorkload(workloadSpec("mergesort"));
  RaceServerConfig Cfg = baseConfig("budget");
  Cfg.Budgets.MaxSessionEvents = 100;
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());

  WireClient C;
  ASSERT_TRUE(C.connectUnix(Cfg.SocketPath, 2000).ok());
  ASSERT_TRUE(C.sendHello().ok());
  ASSERT_TRUE(C.sendTrace(T, 64).ok());

  WireFrame Type;
  std::string Payload;
  ASSERT_TRUE(C.readFrame(Type, Payload).ok());
  EXPECT_EQ(Type, WireFrame::WireError);
  ASSERT_GE(Payload.size(), 1u);
  EXPECT_EQ(static_cast<StatusCode>(Payload[0]), StatusCode::InvalidState);
  EXPECT_NE(Payload.find("budget"), std::string::npos);

  ASSERT_TRUE(eventually([&] { return Server.finishedSessions().size() == 1; }));
  SessionSummary Done = Server.finishedSessions()[0];
  EXPECT_FALSE(Done.CleanFinish);
  EXPECT_EQ(Done.Outcome.Code, StatusCode::InvalidState);
  Server.stop();
}

TEST_F(RaceServerTest, MetricsCoverTheSessionLifecycle) {
  Trace T = makeWorkload(workloadSpec("mergesort"));
  RaceServerConfig Cfg = baseConfig("metrics");
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());
  {
    WireClient C;
    ASSERT_TRUE(C.connectUnix(Cfg.SocketPath, 2000).ok());
    ASSERT_TRUE(C.sendHello().ok());
    ASSERT_TRUE(C.sendTrace(T).ok());
    ASSERT_TRUE(C.sendFinish().ok());
    WireFrame Type;
    std::string Payload;
    ASSERT_TRUE(C.readFrame(Type, Payload).ok());
  }
  ASSERT_TRUE(eventually([&] { return Server.finishedSessions().size() == 1; }));
  uint64_t Accepted = 0, Events = 0, Finished = 0;
  // metrics() returns the serve.* subtree with the prefix stripped.
  for (const MetricSample &M : Server.metrics()) {
    if (M.Name == "accepted")
      Accepted = M.Value;
    else if (M.Name == "events")
      Events = M.Value;
    else if (M.Name == "finished")
      Finished = M.Value;
  }
  EXPECT_EQ(Accepted, 1u);
  EXPECT_EQ(Finished, 1u);
  EXPECT_EQ(Events, T.size());
  Server.stop();
}

} // namespace
