//===- tests/api_test.cpp - Session API: streaming, config, statuses ----------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// The session API's contract has three legs, pinned here:
//
//   1. equivalence — a streaming session is the sequential pass spread
//      over time: for every mode (sequential, var-sharded) and detector,
//      the final report is bit-identical to runDetector and to
//      analyzeTrace, on 100 seeded random traces per detector,
//      whether events arrive as one trace, as push batches, through
//      mid-stream table growth (growable state; never a restart), or from
//      a file (binary and text chunks both overlap analysis). Var-sharded
//      partial snapshots must additionally be torn-merge free: every
//      mid-stream report is a prefix of the final one;
//   2. session protocol — mid-stream partial reports, feed-after-finish
//      and double-finish rejection, empty-session preconditions, all as
//      structured Status codes rather than strings;
//   3. config validation — every inconsistent AnalysisConfig combination
//      is rejected up front with InvalidConfig.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "api/AnalysisSession.h"
#include "gen/RandomTraceGen.h"
#include "hb/HbDetector.h"
#include "io/TraceFile.h"
#include "pipeline/ChunkedReader.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceValidator.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <mutex>
#include <thread>

using namespace rapid;
using testutil::expectSameReport;

namespace {

constexpr DetectorKind kAllKinds[] = {DetectorKind::Hb, DetectorKind::Wcp,
                                      DetectorKind::FastTrack,
                                      DetectorKind::Eraser};

AnalysisConfig allDetectorConfig(RunMode Mode) {
  AnalysisConfig Cfg;
  Cfg.Mode = Mode;
  for (DetectorKind K : kAllKinds)
    Cfg.addDetector(K);
  return Cfg;
}

/// A latch for lanes that must stall: BlockingHb's processEvent marks the
/// gate entered, then blocks until the test opens it.
struct Gate {
  std::mutex M;
  std::condition_variable CV;
  bool Entered = false;
  bool Open = false;
};

class BlockingHb : public HbDetector {
public:
  BlockingHb(const Trace &T, std::shared_ptr<Gate> G)
      : HbDetector(T), G(std::move(G)) {}
  void processEvent(const Event &E, EventIdx I) override {
    {
      std::unique_lock<std::mutex> Lk(G->M);
      G->Entered = true;
      G->CV.notify_all();
      G->CV.wait(Lk, [&] { return G->Open; });
    }
    HbDetector::processEvent(E, I);
  }

private:
  std::shared_ptr<Gate> G;
};

/// Varied trace shapes, mirroring the differential harness.
RandomTraceParams fuzzParams(uint64_t Seed, bool ForkJoin) {
  RandomTraceParams P;
  P.Seed = Seed;
  P.NumThreads = 2 + Seed % 5;
  P.NumLocks = 1 + Seed % 4;
  P.NumVars = 1 + (Seed * 3) % 9;
  P.OpsPerThread = 25 + (Seed * 11) % 50;
  P.MaxLockNesting = 1 + Seed % 3;
  P.AcquirePercent = 10 + (Seed * 5) % 25;
  P.WritePercent = 30 + (Seed * 13) % 40;
  P.WithForkJoin = ForkJoin;
  return P;
}

/// Checks every lane of \p R against a fresh sequential run over \p T.
void expectLanesMatchSequential(const AnalysisResult &R, const Trace &T,
                                const std::string &Label) {
  ASSERT_EQ(R.Lanes.size(), std::size(kAllKinds)) << Label;
  for (size_t L = 0; L != R.Lanes.size(); ++L) {
    ASSERT_TRUE(R.Lanes[L].LaneStatus.ok())
        << Label << ": " << R.Lanes[L].LaneStatus.str();
    std::unique_ptr<Detector> D = makeDetectorFactory(kAllKinds[L])(T);
    RunResult Want = runDetector(*D, T);
    EXPECT_EQ(R.Lanes[L].DetectorName, Want.DetectorName) << Label;
    EXPECT_EQ(R.Lanes[L].EventsConsumed, T.size()) << Label;
    // A lane that stopped short of the published tail can still look
    // race-free; pin the frontier itself.
    EXPECT_EQ(R.Lanes[L].EventsConsumed, R.EventsIngested) << Label;
    expectSameReport(R.Lanes[L].Report, Want.Report, T,
                     Label + "/" + Want.DetectorName);
  }
}

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "rapidpp_api_" + Name;
}

/// Torn-merge detector: \p Partial must be an exact prefix of \p Final's
/// instance sequence (same fields, same order). Var-sharded sessions merge
/// below the fully checked frontier — a mid-stream report may only ever
/// grow into the final one, never reorder or lose findings.
void expectReportIsPrefix(const RaceReport &Partial, const RaceReport &Final,
                          const std::string &Label) {
  ASSERT_LE(Partial.instances().size(), Final.instances().size()) << Label;
  for (size_t I = 0; I != Partial.instances().size(); ++I) {
    const RaceInstance &P = Partial.instances()[I];
    const RaceInstance &F = Final.instances()[I];
    ASSERT_TRUE(P.EarlierIdx == F.EarlierIdx && P.LaterIdx == F.LaterIdx &&
                P.EarlierLoc == F.EarlierLoc && P.LaterLoc == F.LaterLoc &&
                P.Var == F.Var)
        << Label << ": instance #" << I << " diverges mid-stream";
  }
}

class ApiStreamFuzzTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

// ---- Streaming vs the sequential walk, bit for bit --------------------------

// 50 seeds x {no-forkjoin, forkjoin} = 100 distinct traces, each analyzed
// by all four detectors: a sequential-mode session fed the whole trace
// must reproduce runDetector exactly, per lane.
TEST_P(ApiStreamFuzzTest, SessionFeedTraceMatchesBatchBitForBit) {
  for (bool ForkJoin : {false, true}) {
    Trace T = randomTrace(fuzzParams(GetParam(), ForkJoin));
    ASSERT_TRUE(validateTrace(T).ok());
    AnalysisSession S(allDetectorConfig(RunMode::Sequential));
    ASSERT_TRUE(S.feedTrace(T).ok());
    AnalysisResult R = S.finish();
    ASSERT_TRUE(R.Overall.ok()) << R.Overall.str();
    EXPECT_EQ(R.EventsIngested, T.size());
    expectLanesMatchSequential(R, T,
                               "feedTrace seed " + std::to_string(GetParam()) +
                                   " fj=" + std::to_string(ForkJoin));
  }
}

// Same equivalence with events arriving in small push batches against
// pre-declared tables, forcing many publication rounds (batch granularity
// 7 events) — the consumers genuinely run behind the producer here.
TEST_P(ApiStreamFuzzTest, SessionPushBatchesMatchBatchBitForBit) {
  Trace T = randomTrace(fuzzParams(GetParam() ^ 0x9e37, GetParam() % 2 == 0));
  AnalysisConfig Cfg = allDetectorConfig(RunMode::Sequential);
  Cfg.StreamBatchEvents = 7;
  AnalysisSession S(Cfg);
  ASSERT_TRUE(S.declareTablesFrom(T).ok());
  std::vector<Event> Batch;
  for (EventIdx I = 0; I != T.size(); ++I) {
    Batch.push_back(T.event(I));
    if (Batch.size() == 13 || I + 1 == T.size()) {
      ASSERT_TRUE(S.feed(Batch).ok());
      Batch.clear();
    }
  }
  AnalysisResult R = S.finish();
  ASSERT_TRUE(R.Overall.ok()) << R.Overall.str();
  expectLanesMatchSequential(R, T,
                             "push seed " + std::to_string(GetParam()));
}

// Var-sharded sessions stream too: the capture clock pass runs behind
// ingestion and shard checks replay published AccessLog prefixes; the
// merged result must equal both analyzeTrace and plain sequential
// runDetector, bit for bit.
TEST_P(ApiStreamFuzzTest, VarShardedSessionStreamsBitForBit) {
  uint64_t Seed = GetParam();
  Trace T = randomTrace(fuzzParams(Seed ^ 0x1c3f, Seed % 2 == 1));
  AnalysisConfig Cfg = allDetectorConfig(RunMode::VarSharded);
  Cfg.VarShards = 1 + Seed % 7;
  Cfg.StreamBatchEvents = 1 + Seed % 11;
  Cfg.Threads = 1 + Seed % 3;
  AnalysisSession S(Cfg);
  ASSERT_TRUE(S.declareTablesFrom(T).ok());
  std::vector<AnalysisResult> Partials;
  std::vector<Event> Batch;
  for (EventIdx I = 0; I != T.size(); ++I) {
    Batch.push_back(T.event(I));
    if (Batch.size() == 13 || I + 1 == T.size()) {
      ASSERT_TRUE(S.feed(Batch).ok());
      Batch.clear();
      if (I % 64 == 63)
        Partials.push_back(S.partialResult());
    }
  }
  AnalysisResult R = S.finish();
  ASSERT_TRUE(R.ok()) << R.firstError().str();
  EXPECT_EQ(R.VarShards, Cfg.VarShards);
  AnalysisResult Want = analyzeTrace(Cfg, T);
  ASSERT_TRUE(Want.ok()) << Want.firstError().str();
  ASSERT_EQ(R.Lanes.size(), std::size(kAllKinds));
  for (size_t L = 0; L != R.Lanes.size(); ++L) {
    std::string Label = "var-sharded seed " + std::to_string(Seed) + "/" +
                        Want.Lanes[L].DetectorName;
    EXPECT_EQ(R.Lanes[L].DetectorName, Want.Lanes[L].DetectorName) << Label;
    EXPECT_EQ(R.Lanes[L].EventsConsumed, T.size()) << Label;
    expectSameReport(R.Lanes[L].Report, Want.Lanes[L].Report, T,
                     Label + "/vs-analyzeTrace");
    // The var-sharded contract on top: nothing may differ from the plain
    // sequential walk either.
    std::unique_ptr<Detector> D = makeDetectorFactory(kAllKinds[L])(T);
    RunResult Seq = runDetector(*D, T);
    expectSameReport(R.Lanes[L].Report, Seq.Report, T, Label + "/vs-seq");
    for (const AnalysisResult &Mid : Partials)
      expectReportIsPrefix(Mid.Lanes[L].Report, R.Lanes[L].Report, Label);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApiStreamFuzzTest,
                         ::testing::Range<uint64_t>(1, 51));

// ---- Table growth mid-stream (growable state, no restarts) ------------------

TEST(ApiSessionTest, LateDeclarationsGrowLanesAndStayBitForBit) {
  AnalysisConfig Cfg = allDetectorConfig(RunMode::Sequential);
  Cfg.StreamBatchEvents = 1; // Publish/consume as eagerly as possible.
  AnalysisSession S(Cfg);
  ThreadId T0 = S.declareThread("T0");
  ThreadId T1 = S.declareThread("T1");
  VarId X = S.declareVar("x");
  LocId L1 = S.declareLoc("L1"), L2 = S.declareLoc("L2");
  ASSERT_TRUE(S.feed(Event(EventKind::Write, T0, X.value(), L1)).ok());
  ASSERT_TRUE(S.feed(Event(EventKind::Write, T1, X.value(), L2)).ok());

  // Wait until some lane actually consumed under the old tables, so the
  // upcoming declaration is a genuine mid-stream growth for it.
  for (int Spin = 0; Spin != 5000; ++Spin) {
    AnalysisResult Mid = S.partialResult();
    ASSERT_TRUE(Mid.Partial);
    uint64_t MaxConsumed = 0;
    for (const LaneReport &L : Mid.Lanes)
      MaxConsumed = std::max(MaxConsumed, L.EventsConsumed);
    if (MaxConsumed == 2)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  VarId Y = S.declareVar("y");
  LocId L3 = S.declareLoc("L3"), L4 = S.declareLoc("L4");
  ASSERT_TRUE(S.feed(Event(EventKind::Write, T0, Y.value(), L3)).ok());
  ASSERT_TRUE(S.feed(Event(EventKind::Read, T1, Y.value(), L4)).ok());
  AnalysisResult R = S.finish();
  ASSERT_TRUE(R.Overall.ok()) << R.Overall.str();

  // Bit-for-bit against sequential runs over the final ingested trace;
  // both the x and y races must be present (HB sees 2 write-write/
  // write-read pairs).
  const Trace &T = S.trace();
  ASSERT_EQ(T.size(), 4u);
  expectLanesMatchSequential(R, T, "late declarations");
  EXPECT_GT(R.Lanes[0].Report.numDistinctPairs(), 1u);
}

// Late declarations in the var-sharded mode: tables grow after a lane
// already consumed events. Growable detector state admits the new ids in
// place — the capture pass keeps its log and checkers — so no lane
// restarts and the final report still matches analyzeTrace over the final
// trace, bit for bit.
TEST(ApiSessionTest, StreamedBatchModesGrowOnLateDeclarations) {
  for (RunMode Mode : {RunMode::VarSharded}) {
    AnalysisConfig Cfg = allDetectorConfig(Mode);
    Cfg.StreamBatchEvents = 1; // Publish/consume as eagerly as possible.
    Cfg.Threads = 2;
    Cfg.VarShards = 3;
    AnalysisSession S(Cfg);
    ThreadId T0 = S.declareThread("T0");
    ThreadId T1 = S.declareThread("T1");
    VarId X = S.declareVar("x");
    LocId L1 = S.declareLoc("L1"), L2 = S.declareLoc("L2");
    ASSERT_TRUE(S.feed(Event(EventKind::Write, T0, X.value(), L1)).ok());
    ASSERT_TRUE(S.feed(Event(EventKind::Write, T1, X.value(), L2)).ok());

    // Wait until some lane consumed under the old tables, so the upcoming
    // declaration is a genuine mid-stream growth for it.
    bool Progressed = false;
    for (int Spin = 0; Spin != 5000 && !Progressed; ++Spin) {
      AnalysisResult Mid = S.partialResult();
      ASSERT_TRUE(Mid.Partial);
      for (const LaneReport &L : Mid.Lanes)
        Progressed = Progressed || L.EventsConsumed == 2;
      if (!Progressed)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(Progressed) << runModeName(Mode);

    VarId Y = S.declareVar("y");
    LocId L3 = S.declareLoc("L3"), L4 = S.declareLoc("L4");
    ASSERT_TRUE(S.feed(Event(EventKind::Write, T0, Y.value(), L3)).ok());
    ASSERT_TRUE(S.feed(Event(EventKind::Read, T1, Y.value(), L4)).ok());
    AnalysisResult R = S.finish();
    ASSERT_TRUE(R.ok()) << R.firstError().str();

    const Trace &T = S.trace();
    ASSERT_EQ(T.size(), 4u);
    AnalysisResult Want = analyzeTrace(Cfg, T);
    ASSERT_TRUE(Want.ok()) << Want.firstError().str();
    for (size_t L = 0; L != R.Lanes.size(); ++L) {
      std::string Label = std::string("late decls ") + runModeName(Mode) +
                          "/" + Want.Lanes[L].DetectorName;
      EXPECT_EQ(R.Lanes[L].DetectorName, Want.Lanes[L].DetectorName) << Label;
      expectSameReport(R.Lanes[L].Report, Want.Lanes[L].Report, T, Label);
      EXPECT_GT(R.Lanes[L].Report.numDistinctPairs(), 0u) << Label;
    }
  }
}

// Torn-merge stress: a producer thread pushes batches while this thread
// hammers partialResult(). Every snapshot must be well-formed — lanes ok,
// races confined to the consumed prefix, instance counts monotone — and a
// prefix of the final report. Run under TSan in CI, this also pins the
// publication protocol data-race-free for the var-sharded mode.
TEST(ApiSessionTest, StreamedBatchModesPartialResultStressUnderIngestion) {
  for (RunMode Mode : {RunMode::VarSharded}) {
    Trace T = randomTrace(fuzzParams(41, true));
    AnalysisConfig Cfg;
    Cfg.Mode = Mode;
    Cfg.addDetector(DetectorKind::Hb);
    Cfg.addDetector(DetectorKind::FastTrack);
    Cfg.StreamBatchEvents = 8;
    Cfg.Threads = 2;
    Cfg.VarShards = 4;
    AnalysisSession S(Cfg);
    ASSERT_TRUE(S.declareTablesFrom(T).ok());

    // The session contract: feeds come from one thread; partialResult may
    // run concurrently with both the producer and the consumers.
    std::thread Producer([&] {
      std::vector<Event> Batch;
      for (EventIdx I = 0; I != T.size(); ++I) {
        Batch.push_back(T.event(I));
        if (Batch.size() == 23 || I + 1 == T.size()) {
          ASSERT_TRUE(S.feed(Batch).ok());
          Batch.clear();
          std::this_thread::yield();
        }
      }
    });
    std::vector<AnalysisResult> Snaps;
    for (int Spin = 0; Spin != 200; ++Spin) {
      Snaps.push_back(S.partialResult());
      std::this_thread::yield();
    }
    Producer.join();
    Snaps.push_back(S.partialResult());
    AnalysisResult R = S.finish();
    ASSERT_TRUE(R.ok()) << R.firstError().str();

    std::vector<size_t> LastCount(R.Lanes.size(), 0);
    for (const AnalysisResult &Mid : Snaps) {
      ASSERT_TRUE(Mid.Partial);
      ASSERT_TRUE(Mid.Overall.ok()) << Mid.Overall.str();
      ASSERT_EQ(Mid.Lanes.size(), R.Lanes.size());
      for (size_t L = 0; L != Mid.Lanes.size(); ++L) {
        const LaneReport &Lane = Mid.Lanes[L];
        ASSERT_TRUE(Lane.LaneStatus.ok()) << Lane.LaneStatus.str();
        EXPECT_LE(Lane.EventsConsumed, Mid.EventsIngested);
        for (const RaceInstance &Inst : Lane.Report.instances())
          EXPECT_LT(Inst.LaterIdx, Mid.EventsIngested);
        EXPECT_GE(Lane.Report.instances().size(), LastCount[L])
            << "mid-stream reports must only grow";
        LastCount[L] = Lane.Report.instances().size();
        expectReportIsPrefix(Lane.Report, R.Lanes[L].Report,
                             std::string("stress ") + runModeName(Mode));
      }
    }
    // And the final result still matches analyzeTrace bit for bit.
    AnalysisResult Want = analyzeTrace(Cfg, T);
    for (size_t L = 0; L != R.Lanes.size(); ++L)
      expectSameReport(R.Lanes[L].Report, Want.Lanes[L].Report, T,
                       std::string("stress final ") + runModeName(Mode));
  }
}

// ---- File ingestion ---------------------------------------------------------

TEST(ApiSessionTest, FeedFileBinaryStreamsBitForBit) {
  Trace T = randomTrace(fuzzParams(17, true));
  std::string Path = tempPath("stream.bin");
  ASSERT_EQ(saveTraceFile(T, Path), "");
  AnalysisConfig Cfg = allDetectorConfig(RunMode::Sequential);
  Cfg.StreamBatchEvents = 16; // Many publication rounds per file.
  AnalysisSession S(Cfg);
  ASSERT_TRUE(S.feedFile(Path).ok());
  AnalysisResult R = S.finish();
  ASSERT_TRUE(R.Overall.ok()) << R.Overall.str();
  expectLanesMatchSequential(R, S.trace(), "feedFile binary");
  std::remove(Path.c_str());
}

// Two inputs: a file inside one text slice (decoded inline), and one
// longer than four slices, so feedFile's reader runs its decoding workers
// while the four lanes consume slice-by-slice publications.
TEST(ApiSessionTest, FeedFileTextMatchesBatchBitForBit) {
  RandomTraceParams Large = fuzzParams(23, false);
  Large.OpsPerThread = 12000;
  for (const RandomTraceParams &P : {fuzzParams(23, false), Large}) {
    Trace T = randomTrace(P);
    std::string Path = tempPath("stream.txt");
    ASSERT_EQ(saveTraceFile(T, Path), "");
    const std::string Label =
        "feedFile text, " + std::to_string(T.size()) + " events";
    if (P.OpsPerThread == Large.OpsPerThread)
      ASSERT_GT(testutil::fileBytes(Path).size(),
                4 * ChunkedTraceReader::kTextSliceBytes)
          << Label;
    AnalysisSession S(allDetectorConfig(RunMode::Sequential));
    ASSERT_TRUE(S.feedFile(Path).ok()) << Label;
    AnalysisResult R = S.finish();
    ASSERT_TRUE(R.Overall.ok()) << R.Overall.str();
    expectLanesMatchSequential(R, S.trace(), Label);
    std::remove(Path.c_str());
  }
}

TEST(ApiSessionTest, FeedFileFailuresAreStructured) {
  {
    AnalysisSession S(allDetectorConfig(RunMode::Sequential));
    Status St = S.feedFile("/nonexistent/dir/trace.bin");
    EXPECT_EQ(St.Code, StatusCode::IoError) << St.str();
    EXPECT_NE(St.Message.find("cannot open"), std::string::npos) << St.str();
    AnalysisResult R = S.finish();
    EXPECT_EQ(R.Overall.Code, StatusCode::IoError);
    EXPECT_FALSE(R.ok());
  }
  {
    std::string Path = tempPath("bad.txt");
    std::FILE *F = std::fopen(Path.c_str(), "wb");
    ASSERT_NE(F, nullptr);
    std::fputs("T0|w(x)|L1\nT1|frobnicate(x)|L2\n", F);
    std::fclose(F);
    AnalysisSession S(allDetectorConfig(RunMode::Sequential));
    Status St = S.feedFile(Path);
    EXPECT_EQ(St.Code, StatusCode::ParseError) << St.str();
    EXPECT_NE(St.Message.find("line 2"), std::string::npos) << St.str();
    AnalysisResult R = S.finish();
    EXPECT_EQ(R.Overall.Code, StatusCode::ParseError);
    std::remove(Path.c_str());
  }
}

// Ill-formed traces must never reach live detector lanes (their lock
// handling assumes the §2.1 axioms): the session validates event by
// event before publication, freezes ingestion at the first violation
// with a sticky ValidationError, and keeps the valid prefix analyzed.
TEST(ApiSessionTest, IllFormedTracesFreezeIngestionWithValidationError) {
  {
    // Push feed: a release without a matching acquire.
    AnalysisSession S(allDetectorConfig(RunMode::Sequential));
    ThreadId T0 = S.declareThread("T0");
    ThreadId T1 = S.declareThread("T1");
    VarId X = S.declareVar("x");
    LockId L = S.declareLock("l");
    LocId Loc = S.declareLoc("L1");
    ASSERT_TRUE(S.feed(Event(EventKind::Write, T0, X.value(), Loc)).ok());
    ASSERT_TRUE(S.feed(Event(EventKind::Write, T1, X.value(), Loc)).ok());
    Status Bad = S.feed(Event(EventKind::Release, T0, L.value(), Loc));
    EXPECT_EQ(Bad.Code, StatusCode::ValidationError) << Bad.str();
    EXPECT_NE(Bad.Message.find("does not hold"), std::string::npos)
        << Bad.str();
    // Sticky: further feeds rejected, finish reports the error, and the
    // valid prefix was still analyzed.
    EXPECT_EQ(S.feed(Event(EventKind::Write, T0, X.value(), Loc)).Code,
              StatusCode::ValidationError);
    AnalysisResult R = S.finish();
    EXPECT_EQ(R.Overall.Code, StatusCode::ValidationError);
    EXPECT_FALSE(R.ok());
    EXPECT_EQ(R.EventsIngested, 2u);
    for (const LaneReport &Lane : R.Lanes) {
      EXPECT_TRUE(Lane.LaneStatus.ok()) << Lane.LaneStatus.str();
      EXPECT_EQ(Lane.EventsConsumed, 2u) << Lane.DetectorName;
    }
    EXPECT_GT(R.Lanes[0].Report.numDistinctPairs(), 0u)
        << "the valid racy prefix must still be reported";
  }
  {
    // Same through feedFile on a text trace.
    std::string Path = tempPath("ill.txt");
    std::FILE *F = std::fopen(Path.c_str(), "wb");
    ASSERT_NE(F, nullptr);
    std::fputs("T0|w(x)|L1\nT0|rel(l)|L2\n", F);
    std::fclose(F);
    AnalysisSession S(allDetectorConfig(RunMode::Sequential));
    Status St = S.feedFile(Path);
    EXPECT_EQ(St.Code, StatusCode::ValidationError) << St.str();
    AnalysisResult R = S.finish();
    EXPECT_EQ(R.Overall.Code, StatusCode::ValidationError);
    EXPECT_EQ(R.EventsIngested, 1u);
    std::remove(Path.c_str());
  }
}

// ---- Mid-stream partial reports ---------------------------------------------

TEST(ApiSessionTest, PartialReportsSurfaceRacesMidStream) {
  // Feed a racy prefix, wait for the lanes to drain it, and the partial
  // snapshot must already contain the race — before any finish().
  TraceBuilder B;
  for (int I = 0; I != 20; ++I)
    B.write(I % 2 ? "T1" : "T0", "x");
  Trace Prefix = testutil::takeValid(B);

  AnalysisConfig Cfg = allDetectorConfig(RunMode::Sequential);
  Cfg.StreamBatchEvents = 4;
  AnalysisSession S(Cfg);
  ASSERT_TRUE(S.feedTrace(Prefix).ok());

  bool Drained = false;
  AnalysisResult Mid;
  for (int Spin = 0; Spin != 5000 && !Drained; ++Spin) {
    Mid = S.partialResult();
    ASSERT_TRUE(Mid.Overall.ok()) << Mid.Overall.str();
    ASSERT_TRUE(Mid.Partial);
    Drained = true;
    for (const LaneReport &L : Mid.Lanes)
      Drained = Drained && L.EventsConsumed == Prefix.size();
    if (!Drained)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(Drained) << "lanes did not catch up with the published prefix";
  EXPECT_EQ(Mid.EventsIngested, Prefix.size());
  for (const LaneReport &L : Mid.Lanes)
    EXPECT_GT(L.Report.numDistinctPairs(), 0u)
        << L.DetectorName << " saw no race mid-stream";

  // The session keeps accepting events after the snapshot.
  ThreadId T0 = S.declareThread("T0");
  VarId X = S.declareVar("x");
  LocId L = S.declareLoc("tail");
  ASSERT_TRUE(S.feed(Event(EventKind::Read, T0, X.value(), L)).ok());
  AnalysisResult R = S.finish();
  ASSERT_TRUE(R.Overall.ok());
  EXPECT_FALSE(R.Partial);
  EXPECT_EQ(R.EventsIngested, Prefix.size() + 1);
  expectLanesMatchSequential(R, S.trace(), "after partials");
}

// ThreadsUsed means one thing in a snapshot and in the final result: the
// pool width in var-sharded sessions, one consumer thread per lane
// otherwise (AnalysisResult.h).
TEST(ApiSessionTest, PartialAndFinalAgreeOnThreadsUsed) {
  Trace T = randomTrace(fuzzParams(5, false));
  for (RunMode Mode : {RunMode::Sequential, RunMode::VarSharded}) {
    AnalysisConfig Cfg;
    Cfg.Mode = Mode;
    Cfg.addDetector(DetectorKind::Hb);
    Cfg.addDetector(DetectorKind::Wcp);
    if (Mode == RunMode::VarSharded) {
      Cfg.VarShards = 2;
      Cfg.Threads = 3;
    }
    AnalysisSession S(Cfg);
    ASSERT_TRUE(S.feedTrace(T).ok());
    AnalysisResult Mid = S.partialResult();
    AnalysisResult R = S.finish();
    ASSERT_TRUE(R.ok()) << R.firstError().str();
    EXPECT_EQ(Mid.ThreadsUsed, R.ThreadsUsed) << runModeName(Mode);
    EXPECT_EQ(R.ThreadsUsed, Mode == RunMode::VarSharded ? 3u : 2u)
        << runModeName(Mode);
  }
}

// progress() is the serving layer's lag check, so it must answer while a
// lane is stuck: here the lane's detector blocks inside processEvent (its
// consumer holding the lane's snapshot lock for the whole batch) until
// the test opens the gate.
TEST(ApiSessionTest, ProgressDoesNotWaitOnABlockedLane) {
  auto G = std::make_shared<Gate>();
  AnalysisConfig Cfg;
  Cfg.addDetector(
      [G](const Trace &T) { return std::make_unique<BlockingHb>(T, G); },
      "blocking-HB");
  AnalysisSession S(Cfg);
  Trace T = randomTrace(fuzzParams(3, false));
  ASSERT_TRUE(S.feedTrace(T).ok());
  {
    std::unique_lock<std::mutex> Lk(G->M);
    ASSERT_TRUE(G->CV.wait_for(Lk, std::chrono::seconds(10),
                               [&] { return G->Entered; }))
        << "the lane never started";
  }

  auto Probe = std::async(std::launch::async, [&] { return S.progress(); });
  const bool Answered =
      Probe.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  {
    // Open the gate either way, so a waiting progress() can finish.
    std::lock_guard<std::mutex> Lk(G->M);
    G->Open = true;
  }
  G->CV.notify_all();
  ASSERT_TRUE(Answered) << "progress() waited on a blocked lane";
  const AnalysisSession::Progress P = Probe.get();
  EXPECT_EQ(P.Published, T.size());
  EXPECT_LT(P.MinLaneConsumed, P.Published);

  AnalysisResult R = S.finish();
  ASSERT_TRUE(R.ok()) << R.firstError().str();
  EXPECT_EQ(R.Lanes[0].EventsConsumed, T.size());
}

// ---- Session protocol: structured state errors ------------------------------

TEST(ApiSessionTest, FeedAfterFinishAndDoubleFinishAreRejected) {
  AnalysisSession S(allDetectorConfig(RunMode::Sequential));
  ThreadId T0 = S.declareThread("T0");
  VarId X = S.declareVar("x");
  LocId L = S.declareLoc("L");
  ASSERT_TRUE(S.feed(Event(EventKind::Write, T0, X.value(), L)).ok());
  AnalysisResult R = S.finish();
  ASSERT_TRUE(R.Overall.ok());
  EXPECT_TRUE(S.finished());

  Status Fed = S.feed(Event(EventKind::Write, T0, X.value(), L));
  EXPECT_EQ(Fed.Code, StatusCode::InvalidState) << Fed.str();
  EXPECT_EQ(S.feedTrace(Trace()).Code, StatusCode::InvalidState);
  EXPECT_EQ(S.feedFile("x.bin").Code, StatusCode::InvalidState);

  AnalysisResult Again = S.finish();
  EXPECT_EQ(Again.Overall.Code, StatusCode::InvalidState) << "double finish";
  EXPECT_FALSE(Again.ok());

  AnalysisResult Partial = S.partialResult();
  EXPECT_EQ(Partial.Overall.Code, StatusCode::InvalidState);
}

TEST(ApiSessionTest, IngestPreconditionsAreEnforced) {
  Trace T = randomTrace(fuzzParams(3, false));
  {
    // feedTrace/feedFile demand an empty session.
    AnalysisSession S(allDetectorConfig(RunMode::Sequential));
    S.declareThread("T0");
    EXPECT_EQ(S.feedTrace(T).Code, StatusCode::InvalidState);
    EXPECT_EQ(S.declareTablesFrom(T).Code, StatusCode::InvalidState);
  }
  {
    // Events with undeclared ids reject the whole batch atomically.
    AnalysisSession S(allDetectorConfig(RunMode::Sequential));
    ThreadId T0 = S.declareThread("T0");
    LocId L = S.declareLoc("L");
    std::vector<Event> Batch = {Event(EventKind::Write, T0, /*var=*/0, L)};
    Status St = S.feed(Batch);
    EXPECT_EQ(St.Code, StatusCode::ValidationError) << St.str();
    EXPECT_EQ(S.progress().Fed, 0u);
    AnalysisResult R = S.finish();
    EXPECT_TRUE(R.Overall.ok()) << "a rejected batch must not poison the "
                                   "session";
  }
}

// ---- Pool-backed mode against its reference --------------------------------

TEST(ApiSessionTest, VarShardedSessionsMatchReferences) {
  Trace T = randomTrace(fuzzParams(29, true));
  for (DetectorKind K : kAllKinds) {
    DetectorFactory Make = makeDetectorFactory(K);
    {
      AnalysisConfig Cfg;
      Cfg.addDetector(K);
      Cfg.Mode = RunMode::VarSharded;
      Cfg.VarShards = 4;
      AnalysisSession S(Cfg);
      ASSERT_TRUE(S.feedTrace(T).ok());
      AnalysisResult R = S.finish();
      ASSERT_TRUE(R.ok()) << R.firstError().str();
      EXPECT_EQ(R.VarShards, 4u);
      std::unique_ptr<Detector> D = Make(T);
      RunResult Want = runDetector(*D, T);
      expectSameReport(R.Lanes[0].Report, Want.Report, T,
                       std::string("var-sharded session/") +
                           detectorKindName(K));
    }
  }
}

// ---- Config validation ------------------------------------------------------

TEST(AnalysisConfigTest, ValidationRejectsInconsistentCombinations) {
  auto expectInvalid = [](const AnalysisConfig &Cfg, const char *Label) {
    Status St = Cfg.validate();
    EXPECT_EQ(St.Code, StatusCode::InvalidConfig) << Label;
    EXPECT_FALSE(St.Message.empty()) << Label;
  };
  expectInvalid(AnalysisConfig(), "no detectors");
  {
    AnalysisConfig Cfg;
    Cfg.Detectors.push_back(DetectorSpec()); // Custom without factory.
    expectInvalid(Cfg, "custom without factory");
  }
  {
    AnalysisConfig Cfg;
    Cfg.addDetector(DetectorKind::Hb);
    Cfg.Detectors.back().Make = makeDetectorFactory(DetectorKind::Wcp);
    expectInvalid(Cfg, "kind plus factory is ambiguous");
  }
  {
    AnalysisConfig Cfg = allDetectorConfig(RunMode::VarSharded);
    expectInvalid(Cfg, "var-sharded without VarShards");
  }
  {
    AnalysisConfig Cfg = allDetectorConfig(RunMode::Sequential);
    Cfg.VarShards = 2;
    expectInvalid(Cfg, "VarShards outside var-sharded mode");
  }
  {
    AnalysisConfig Cfg = allDetectorConfig(RunMode::Sequential);
    Cfg.StreamBatchEvents = 0;
    expectInvalid(Cfg, "zero stream batch");
  }

  // The same statuses flow through the entry points.
  AnalysisResult R = analyzeTrace(AnalysisConfig(), Trace());
  EXPECT_EQ(R.Overall.Code, StatusCode::InvalidConfig);
  AnalysisSession S{AnalysisConfig()};
  EXPECT_EQ(S.status().Code, StatusCode::InvalidConfig);
  EXPECT_EQ(S.feed(Event()).Code, StatusCode::InvalidConfig);
  EXPECT_EQ(S.finish().Overall.Code, StatusCode::InvalidConfig);

  // Invalid configs in the pool-backed mode too: no streaming engine is
  // started, and finish()/partialResult() must report the config error,
  // not touch a pool that was never created.
  for (RunMode Mode : {RunMode::VarSharded}) {
    AnalysisConfig Cfg = allDetectorConfig(Mode); // Missing shards.
    AnalysisSession Bad(Cfg);
    EXPECT_EQ(Bad.status().Code, StatusCode::InvalidConfig)
        << runModeName(Mode);
    EXPECT_EQ(Bad.partialResult().Overall.Code, StatusCode::InvalidConfig);
    AnalysisResult Fin = Bad.finish();
    EXPECT_EQ(Fin.Overall.Code, StatusCode::InvalidConfig)
        << runModeName(Mode);
    EXPECT_TRUE(Fin.Lanes.empty());
  }
}

// A shard drain task claims at most 4096 accesses per round and loops
// until its work list is empty. One shard over more than 2 x 4096
// accesses, committed in at most two chunks (one per feed), forces at
// least three claims on the same shard; the report must still be the
// sequential walk's, bit for bit, and a partial taken mid-stream an
// exact prefix of it.
TEST(ApiSessionTest, MultiRoundDrainIsBitForBit) {
  RandomTraceParams P = fuzzParams(29, /*ForkJoin=*/true);
  P.NumThreads = 4;
  P.OpsPerThread = 4000;
  Trace T = randomTrace(P);
  uint64_t Accesses = 0;
  for (const Event &E : T.events())
    Accesses += isAccess(E.Kind);
  ASSERT_GT(Accesses, 2u * 4096u);
  const DetectorKind Kinds[] = {DetectorKind::Hb, DetectorKind::Wcp};
  AnalysisConfig Cfg;
  Cfg.Mode = RunMode::VarSharded;
  Cfg.VarShards = 1;
  Cfg.Threads = 2;
  Cfg.StreamBatchEvents = T.size(); // One chunk per published range.
  for (DetectorKind K : Kinds)
    Cfg.addDetector(K);
  AnalysisSession S(Cfg);
  ASSERT_TRUE(S.declareTablesFrom(T).ok());
  const std::vector<Event> &Events = T.events();
  const size_t Half = Events.size() / 2;
  ASSERT_TRUE(
      S.feed(std::vector<Event>(Events.begin(), Events.begin() + Half)).ok());
  AnalysisResult Mid = S.partialResult();
  ASSERT_TRUE(
      S.feed(std::vector<Event>(Events.begin() + Half, Events.end())).ok());
  AnalysisResult R = S.finish();
  ASSERT_TRUE(R.ok()) << R.firstError().str();
  ASSERT_EQ(R.Lanes.size(), std::size(Kinds));
  for (size_t L = 0; L != R.Lanes.size(); ++L) {
    std::unique_ptr<Detector> D = makeDetectorFactory(Kinds[L])(T);
    RunResult Want = runDetector(*D, T);
    const std::string Label = "multi-round drain/" + Want.DetectorName;
    EXPECT_EQ(R.Lanes[L].EventsConsumed, T.size()) << Label;
    expectSameReport(R.Lanes[L].Report, Want.Report, T, Label);
    expectReportIsPrefix(Mid.Lanes[L].Report, R.Lanes[L].Report, Label);
    uint64_t Rounds = 0;
    for (const MetricSample &M : R.Lanes[L].Telemetry)
      if (M.Name == "drain_batches")
        Rounds = M.Value;
    EXPECT_GE(Rounds, 3u) << Label;
  }
}

// A lane that throws mid-stream fails alone with a structured status; the
// other lanes complete. Holds in every run mode.
TEST(ApiSessionTest, ThrowingLaneFailsAloneInStreamingSessions) {
  Trace T = randomTrace(fuzzParams(7, false));
  for (RunMode Mode : {RunMode::Sequential, RunMode::VarSharded}) {
    const std::string Label = runModeName(Mode);
    AnalysisConfig Cfg;
    Cfg.Mode = Mode;
    std::string BoomName = "Boom";
    if (Mode == RunMode::VarSharded)
      Cfg.VarShards = 2;
    Cfg.addDetector(DetectorKind::Hb);
    Cfg.addDetector(
        [](const Trace &) -> std::unique_ptr<Detector> {
          throw std::runtime_error("detector exploded");
        },
        "Boom");
    AnalysisSession S(Cfg);
    ASSERT_TRUE(S.feedTrace(T).ok()) << Label;
    AnalysisResult R = S.finish();
    ASSERT_EQ(R.Lanes.size(), 2u) << Label;
    EXPECT_TRUE(R.Lanes[0].LaneStatus.ok())
        << Label << ": " << R.Lanes[0].LaneStatus.str();
    EXPECT_GT(R.Lanes[0].Report.numDistinctPairs(), 0u) << Label;
    EXPECT_EQ(R.Lanes[1].LaneStatus.Code, StatusCode::AnalysisError) << Label;
    const std::string &Msg = R.Lanes[1].LaneStatus.Message;
    EXPECT_NE(Msg.find("detector exploded"), std::string::npos) << Label;
    EXPECT_EQ(R.Lanes[1].DetectorName, BoomName) << Label;
    EXPECT_FALSE(R.ok()) << Label;
    EXPECT_EQ(R.firstError().Code, StatusCode::AnalysisError) << Label;
  }
}

namespace {

/// A racy trace longer than one ChunkedTraceReader chunk (65,536 events),
/// saved as a binary file, so feedFile publishes it in several chunks.
std::string saveMultiChunkTrace(const std::string &Name, Trace &T) {
  RandomTraceParams P = fuzzParams(5, true);
  P.NumThreads = 4;
  P.OpsPerThread = 40000;
  T = randomTrace(P);
  EXPECT_GT(T.size(), 2u * 65536);
  std::string Path = tempPath(Name);
  EXPECT_EQ(saveTraceFile(T, Path), "");
  return Path;
}

} // namespace

// Detectors are built by the producer at the first publish, never by a
// lane thread: a lane that had to take the session mutex to build its
// detector could wait out the whole of feedFile. The factory runs once,
// on the feeding thread, against the first chunk's tables and events,
// and the lane still reproduces runDetector exactly.
TEST(ApiSessionTest, ProducerBuildsDetectorsAtTheFirstPublish) {
  Trace T;
  const std::string Path = saveMultiChunkTrace("first_publish.bin", T);
  for (RunMode Mode : {RunMode::Sequential, RunMode::VarSharded}) {
    const std::string Label = runModeName(Mode);
    std::mutex CallsM;
    std::vector<std::pair<std::thread::id, uint64_t>> Calls;
    AnalysisConfig Cfg;
    Cfg.Mode = Mode;
    if (Mode == RunMode::VarSharded)
      Cfg.VarShards = 2;
    Cfg.addDetector(
        [&](const Trace &Tr) {
          std::lock_guard<std::mutex> G(CallsM);
          Calls.emplace_back(std::this_thread::get_id(), Tr.size());
          return makeDetectorFactory(DetectorKind::Hb)(Tr);
        },
        "Recorded");
    AnalysisSession S(Cfg);
    ASSERT_TRUE(S.feedFile(Path).ok()) << Label;
    AnalysisResult R = S.finish();
    ASSERT_TRUE(R.ok()) << Label << ": " << R.firstError().str();
    {
      std::lock_guard<std::mutex> G(CallsM);
      ASSERT_EQ(Calls.size(), 1u) << Label;
      EXPECT_EQ(Calls[0].first, std::this_thread::get_id()) << Label;
      EXPECT_EQ(Calls[0].second, 65536u) << Label;
    }
    ASSERT_EQ(R.Lanes.size(), 1u) << Label;
    EXPECT_EQ(R.Lanes[0].EventsConsumed, T.size()) << Label;
    HbDetector Hb(S.trace());
    RunResult Want = runDetector(Hb, S.trace());
    EXPECT_GT(Want.Report.numDistinctPairs(), 0u) << Label;
    expectSameReport(R.Lanes[0].Report, Want.Report, S.trace(), Label);
  }
  std::remove(Path.c_str());
}

// A factory that throws at the first publish of a multi-chunk feedFile
// fails its own lane only: the feed still returns OK and the other lane
// walks the whole file.
TEST(ApiSessionTest, ThrowingFactoryFailsAloneThroughFeedFile) {
  Trace T;
  const std::string Path = saveMultiChunkTrace("throwing_factory.bin", T);
  for (RunMode Mode : {RunMode::Sequential, RunMode::VarSharded}) {
    const std::string Label = runModeName(Mode);
    AnalysisConfig Cfg;
    Cfg.Mode = Mode;
    if (Mode == RunMode::VarSharded)
      Cfg.VarShards = 2;
    Cfg.addDetector(DetectorKind::Hb);
    Cfg.addDetector(
        [](const Trace &) -> std::unique_ptr<Detector> {
          throw std::runtime_error("detector exploded");
        },
        "Boom");
    AnalysisSession S(Cfg);
    ASSERT_TRUE(S.feedFile(Path).ok()) << Label;
    AnalysisResult R = S.finish();
    ASSERT_EQ(R.Lanes.size(), 2u) << Label;
    ASSERT_TRUE(R.Lanes[0].LaneStatus.ok())
        << Label << ": " << R.Lanes[0].LaneStatus.str();
    EXPECT_EQ(R.Lanes[0].EventsConsumed, T.size()) << Label;
    EXPECT_GT(R.Lanes[0].Report.numDistinctPairs(), 0u) << Label;
    EXPECT_EQ(R.Lanes[1].LaneStatus.Code, StatusCode::AnalysisError) << Label;
    EXPECT_NE(R.Lanes[1].LaneStatus.Message.find("detector exploded"),
              std::string::npos)
        << Label;
    EXPECT_EQ(R.Lanes[1].DetectorName, "Boom") << Label;
    EXPECT_TRUE(R.Overall.ok()) << Label << ": " << R.Overall.str();
  }
  std::remove(Path.c_str());
}
