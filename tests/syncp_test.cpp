//===- tests/syncp_test.cpp - Sync-preserving detector lane -------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// Pins the SyncP lane (src/syncp/) five ways:
//
//  * separation — hand-built gadgets where the sync-preserving closure
//    finds a race WCP provably orders away (the POPL'21 motivation: a
//    correct reordering may *drop* critical sections, which no
//    partial-order detector can express), with the verdicts cross-checked
//    against the exhaustive witness search;
//  * soundness — every race SyncP reports on small traces (paper figures
//    and fuzzed) must come with a closure witness that the correct-
//    reordering checker accepts, and the exhaustive search must agree the
//    pair is racy;
//  * mode equivalence — sequential, windowed and var-sharded runs
//    are bit-for-bit identical (the repo-wide determinism contract; the
//    differential and growth fuzzers extend this across the adversarial
//    workload matrix);
//  * oracle pin — every candidate the lane enumerates is decided by both
//    the vector-timestamp closure (syncp/SyncPIndex) and the per-pair
//    walk (reference/SyncPOracle): equal decisions, and for racy pairs
//    equal ideals whose witness the correct-reordering checker accepts;
//  * linearity — doubling a trace at most ~doubles the closure's
//    fixpoint rounds (the per-pair walk's work grows ~4x).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "api/AnalysisSession.h"
#include "gen/PaperTraces.h"
#include "gen/RandomTraceGen.h"
#include "gen/Workloads.h"
#include "reference/ClosureEngine.h"
#include "reference/SyncPOracle.h"
#include "syncp/SyncPDetector.h"
#include "trace/TraceBuilder.h"
#include "verify/WitnessSearch.h"
#include "wcp/WcpDetector.h"

#include <gtest/gtest.h>

using namespace rapid;

namespace {

/// Rebuilds the closure index for \p T (what the detector builds online).
void buildIndex(const Trace &T, SyncPIndex &Idx) {
  for (EventIdx I = 0; I != T.size(); ++I)
    Idx.append(T.event(I), I);
}

/// Asserts that every race in \p Report has a closure witness that the
/// correct-reordering checker accepts — the detector's soundness argument,
/// executed.
void expectAllWitnessed(const Trace &T, const RaceReport &Report,
                        const std::string &Label) {
  SyncPOracle Oracle(T);
  for (const RaceInstance &R : Report.instances()) {
    std::vector<EventIdx> Witness;
    ASSERT_TRUE(
        Oracle.isSyncPreservingRace(R.EarlierIdx, R.LaterIdx, &Witness))
        << Label << ": reported race lost its closure witness: " << R.str(T);
    ReorderingCheck C = checkRaceWitness(T, Witness);
    EXPECT_TRUE(C.Ok) << Label << ": closure witness for " << R.str(T)
                      << " is not a correct reordering: " << C.Error;
  }
}

/// Runs the SyncP lane through one run mode via the unified API.
RaceReport runMode(const Trace &T, RunMode Mode, uint32_t VarShards = 0) {
  AnalysisConfig Cfg;
  Cfg.addDetector(DetectorKind::SyncP);
  Cfg.Mode = Mode;
  Cfg.VarShards = VarShards;
  AnalysisResult R = analyzeTrace(Cfg, T);
  EXPECT_TRUE(R.ok()) << R.firstError().Message;
  return R.Lanes.empty() ? RaceReport() : std::move(R.Lanes.front().Report);
}

/// The two-thread separation gadget. WCP orders the w(x) pair through the
/// conflicting y-sections (rule (a) composed with thread order); dropping
/// t1's critical section entirely yields the sync-preserving witness
///   acq(l) w(y) rel(l) · w(x)@t1 · w(x)@t2.
Trace gadgetTwoThreads() {
  TraceBuilder B;
  B.write("t1", "x").acquire("t1", "l").write("t1", "y").release("t1", "l");
  B.acquire("t2", "l").write("t2", "y").release("t2", "l").write("t2", "x");
  return testutil::takeValid(B, /*RequireClosedSections=*/true);
}

/// The three-thread separation gadget: the WCP ordering chains through two
/// locks (y-sections on l, then z-sections on m), so no single-lock view
/// explains the order; the closure still drops t1's section and witnesses
/// the x pair.
Trace gadgetThreeThreads() {
  TraceBuilder B;
  B.write("t1", "x").acquire("t1", "l").write("t1", "y").release("t1", "l");
  B.acquire("t2", "l").write("t2", "y").release("t2", "l");
  B.acquire("t2", "m").write("t2", "z").release("t2", "m");
  B.acquire("t3", "m").read("t3", "z").release("t3", "m").write("t3", "x");
  return testutil::takeValid(B, /*RequireClosedSections=*/true);
}

/// Control variant of the two-thread gadget: t2 *reads* y, so including
/// t2's section forces t1's w(y) — and with it all of t1 up to and past
/// w(x) — into the ideal, swallowing the candidate. No sync-preserving
/// race (and no predictable race at all).
Trace gadgetNoRaceVariant() {
  TraceBuilder B;
  B.write("t1", "x").acquire("t1", "l").write("t1", "y").release("t1", "l");
  B.acquire("t2", "l").read("t2", "y").release("t2", "l").write("t2", "x");
  return testutil::takeValid(B, /*RequireClosedSections=*/true);
}

RandomTraceParams smallParams(uint64_t Seed) {
  RandomTraceParams P;
  P.Seed = Seed;
  P.NumThreads = 2 + Seed % 3;
  P.NumLocks = 1 + Seed % 3;
  P.NumVars = 2 + Seed % 3;
  P.OpsPerThread = 10 + Seed % 8;
  P.MaxLockNesting = 1 + Seed % 2;
  P.WithForkJoin = Seed % 5 == 0;
  return P;
}

/// Re-enumerates the lane's candidates (the detector's own thread-order
/// clock feeding a fresh AccessHistory, exactly as processEvent does) and
/// sends each to both engines at the point the lane decides it.
void expectEnginesAgree(const Trace &T, const std::string &Label) {
  SyncPDetector D(T);
  SyncPOracle Oracle(T);
  AccessHistory History(T.numVars(), T.numThreads());
  std::vector<RaceInstance> Candidates;
  for (EventIdx I = 0; I != T.size(); ++I) {
    const Event &E = T.event(I);
    D.processEvent(E, I);
    if (!isAccess(E.Kind))
      continue;
    const VectorClock &Ct = D.threadClock(E.Thread);
    const bool IsWrite = E.Kind == EventKind::Write;
    Candidates.clear();
    if (IsWrite)
      History.checkWrite(E.var(), E.Thread, Ct, E.Loc, I, Candidates);
    else
      History.checkRead(E.var(), E.Thread, Ct, E.Loc, I, Candidates);
    for (const RaceInstance &R : Candidates) {
      std::vector<uint32_t> Ideal;
      std::vector<EventIdx> Want;
      const bool Fast = D.index().isSyncPreservingRace(
          R.EarlierIdx, R.LaterIdx, nullptr, &Ideal);
      const bool Slow =
          Oracle.isSyncPreservingRace(R.EarlierIdx, R.LaterIdx, &Want);
      ASSERT_EQ(Fast, Slow) << Label << ": engines disagree on " << R.str(T);
      if (!Fast)
        continue;
      std::vector<EventIdx> Got =
          D.index().witness(Ideal, R.EarlierIdx, R.LaterIdx);
      EXPECT_EQ(Got, Want) << Label << ": ideals differ for " << R.str(T);
      ReorderingCheck C = checkRaceWitness(T, Got);
      EXPECT_TRUE(C.Ok) << Label << ": witness for " << R.str(T)
                        << " is not a correct reordering: " << C.Error;
    }
    if (IsWrite)
      History.recordWrite(E.var(), E.Thread, Ct.get(E.Thread), E.Loc, I);
    else
      History.recordRead(E.var(), E.Thread, Ct.get(E.Thread), E.Loc, I);
  }
}

uint64_t closureIterations(const Trace &T) {
  SyncPDetector D(T);
  for (EventIdx I = 0; I != T.size(); ++I)
    D.processEvent(T.event(I), I);
  std::vector<MetricSample> Tel;
  D.telemetry(Tel);
  for (const MetricSample &S : Tel)
    if (S.Name == "syncp.closure_iterations")
      return S.Value;
  ADD_FAILURE() << "closure_iterations sample missing";
  return 0;
}

} // namespace

// ---- Separation: races WCP provably misses ---------------------------------

TEST(SyncPSeparation, TwoThreadGadgetBeatsWcp) {
  Trace T = gadgetTwoThreads();
  RaceReport Wcp = testutil::run<WcpDetector>(T);
  EXPECT_EQ(Wcp.numDistinctPairs(), 0u)
      << "gadget broken: WCP was supposed to order the x accesses";
  RaceReport Syncp = testutil::run<SyncPDetector>(T);
  ASSERT_GE(Syncp.numDistinctPairs(), 1u)
      << "SyncP must witness the x race WCP misses";
  EXPECT_EQ(testutil::racyVars(Syncp, T), std::set<std::string>{"x"});
  expectAllWitnessed(T, Syncp, "two-thread gadget");
  // The exhaustive search agrees the pair is a real predictable race.
  WitnessResult W = findWitness(T, Syncp.instances().front().pair());
  ASSERT_TRUE(W.SearchExhaustive);
  EXPECT_EQ(W.Kind, WitnessKind::Race);
}

TEST(SyncPSeparation, ThreeThreadLockChainBeatsWcp) {
  Trace T = gadgetThreeThreads();
  RaceReport Wcp = testutil::run<WcpDetector>(T);
  EXPECT_EQ(Wcp.numDistinctPairs(), 0u)
      << "gadget broken: the two-lock WCP chain was supposed to order x";
  RaceReport Syncp = testutil::run<SyncPDetector>(T);
  ASSERT_GE(Syncp.numDistinctPairs(), 1u);
  EXPECT_EQ(testutil::racyVars(Syncp, T), std::set<std::string>{"x"});
  expectAllWitnessed(T, Syncp, "three-thread gadget");
  WitnessResult W = findWitness(T, Syncp.instances().front().pair());
  ASSERT_TRUE(W.SearchExhaustive);
  EXPECT_EQ(W.Kind, WitnessKind::Race);
}

TEST(SyncPSeparation, ReadVariantSwallowsTheCandidate) {
  Trace T = gadgetNoRaceVariant();
  RaceReport Syncp = testutil::run<SyncPDetector>(T);
  EXPECT_EQ(Syncp.numDistinctPairs(), 0u)
      << "the read of y pins t2's section behind all of t1 — no correct "
         "reordering co-enables the x accesses";
  WitnessResult W = findAnyWitness(T);
  ASSERT_TRUE(W.SearchExhaustive);
  EXPECT_EQ(W.Kind, WitnessKind::None);
}

// ---- Closure unit behaviour -------------------------------------------------

TEST(SyncPIdeal, SameLockSectionsAreNotRacy) {
  TraceBuilder B;
  B.acquire("t1", "l").write("t1", "x").release("t1", "l");
  B.acquire("t2", "l").write("t2", "x").release("t2", "l");
  Trace T = testutil::takeValid(B, true);
  SyncPIndex Idx;
  buildIndex(T, Idx);
  // w(x)@1 vs w(x)@4: t2's frontier holds acq@3 while t1's holds the
  // still-open acq@0, so the lock rule pulls rel@2 — past w(x)@1 in its
  // thread, swallowing it.
  EXPECT_FALSE(Idx.isSyncPreservingRace(1, 4, nullptr, nullptr));
  EXPECT_FALSE(SyncPOracle(T).isSyncPreservingRace(1, 4, nullptr));
  EXPECT_EQ(testutil::run<SyncPDetector>(T).numDistinctPairs(), 0u);
}

TEST(SyncPIdeal, UnprotectedConflictIsRacyWithMinimalIdeal) {
  TraceBuilder B;
  B.write("t1", "x").write("t2", "x");
  Trace T = testutil::takeValid(B, true);
  SyncPIndex Idx;
  buildIndex(T, Idx);
  std::vector<uint32_t> Ideal;
  ASSERT_TRUE(Idx.isSyncPreservingRace(0, 1, nullptr, &Ideal));
  // Empty ideal: just the two candidates.
  EXPECT_EQ(Ideal, (std::vector<uint32_t>{0, 0}));
  std::vector<EventIdx> Witness = Idx.witness(Ideal, 0, 1);
  EXPECT_EQ(Witness, (std::vector<EventIdx>{0, 1}));
  EXPECT_TRUE(checkRaceWitness(T, Witness).Ok);
}

TEST(SyncPIdeal, ReadPullsItsWriterAndItsLocks) {
  // t2's read of y sees t1's locked write, so the witness must replay
  // t1's whole critical section before t2's prefix — and the final races
  // on z stay co-enabled regardless.
  TraceBuilder B;
  B.acquire("t1", "l").write("t1", "y").release("t1", "l").write("t1", "z");
  B.read("t2", "y").write("t2", "z");
  Trace T = testutil::takeValid(B, true);
  RaceReport Syncp = testutil::run<SyncPDetector>(T);
  EXPECT_EQ(testutil::racyVars(Syncp, T),
            (std::set<std::string>{"y", "z"}));
  expectAllWitnessed(T, Syncp, "read-pulls-writer");
}

TEST(SyncPIdeal, ForkJoinOrderIsRespected) {
  TraceBuilder B;
  B.declareThread("main");
  B.declareThread("child");
  B.write("main", "x").fork("main", "child");
  B.write("child", "x");
  B.join("main", "child").write("main", "x");
  Trace T = testutil::takeValid(B, true);
  // All three x writes are thread-ordered: no candidates survive.
  EXPECT_EQ(testutil::run<SyncPDetector>(T).numDistinctPairs(), 0u);
}

// ---- Soundness over the paper's figures and fuzzed traces -------------------

TEST(SyncPPaperTraces, SoundOnEveryFigure) {
  for (const PaperTrace &P : allPaperTraces()) {
    RaceReport Syncp = testutil::run<SyncPDetector>(P.T);
    expectAllWitnessed(P.T, Syncp, P.Name);
    if (!P.PredictableRace) {
      // Strong per-report soundness: a trace with no predictable race can
      // have no sync-preserving one (figures 1a, 2a and the deadlock-only
      // figure 5).
      EXPECT_EQ(Syncp.numDistinctPairs(), 0u)
          << P.Name << ": " << Syncp.str(P.T);
    }
  }
}

class SyncPSoundnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SyncPSoundnessTest, EveryReportHasAValidWitness) {
  Trace T = randomTrace(smallParams(GetParam()));
  RaceReport Syncp = testutil::run<SyncPDetector>(T);
  expectAllWitnessed(T, Syncp, "seed " + std::to_string(GetParam()));
  // Reported pairs must be unordered by the hard (thread) order the
  // reference closure engine computes — the prefilter may only ever prune.
  ClosureEngine Engine(T);
  for (const RaceInstance &R : Syncp.instances())
    EXPECT_FALSE(Engine.ordered(OrderKind::Hard, R.EarlierIdx, R.LaterIdx))
        << R.str(T);
}

TEST_P(SyncPSoundnessTest, ExhaustiveSearchConfirmsFirstReport) {
  Trace T = randomTrace(smallParams(GetParam() ^ 0x3c3c));
  RaceReport Syncp = testutil::run<SyncPDetector>(T);
  if (Syncp.instances().empty())
    GTEST_SKIP() << "no SyncP race in this trace";
  const RaceInstance &First = Syncp.instances().front();
  WitnessResult W = findWitness(T, First.pair());
  if (!W.SearchExhaustive && W.Kind == WitnessKind::None)
    GTEST_SKIP() << "state space too large to conclude";
  // Unlike WCP's weak soundness, *every* SyncP report carries its own
  // witness — the search must find a race (not merely a deadlock).
  EXPECT_EQ(W.Kind, WitnessKind::Race) << First.str(T);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, SyncPSoundnessTest,
                         ::testing::Range<uint64_t>(1, 61));

// ---- Oracle pin and linearity -----------------------------------------------

class SyncPOraclePinTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SyncPOraclePinTest, EnginesAgreeOnEveryCandidate) {
  const uint64_t Seed = GetParam();
  expectEnginesAgree(randomTrace(smallParams(Seed)),
                     "seed " + std::to_string(Seed));
  for (WorkloadShape Shape : allWorkloadShapes())
    expectEnginesAgree(makeAdversarialTrace(Shape, Seed),
                       std::string(workloadShapeName(Shape)) + " seed " +
                           std::to_string(Seed));
}

INSTANTIATE_TEST_SUITE_P(Fuzz, SyncPOraclePinTest,
                         ::testing::Range<uint64_t>(1, 61));

TEST(SyncPLinearity, DoublingTheTraceAtMostDoublesClosureRounds) {
  // Same model, same seed, twice the events. Deterministic counts, no
  // timing: the per-pair walk pulls ~4x the events here.
  WorkloadSpec Spec = workloadSpec("montecarlo");
  Trace Small = makeWorkload(Spec, 0.02);
  Trace Large = makeWorkload(Spec, 0.04);
  ASSERT_NEAR(static_cast<double>(Large.size()) / Small.size(), 2.0, 0.1);
  const uint64_t N = closureIterations(Small);
  const uint64_t TwoN = closureIterations(Large);
  ASSERT_GT(N, 0u);
  EXPECT_LE(static_cast<double>(TwoN), 2.5 * static_cast<double>(N))
      << "closure_iterations " << N << " at " << Small.size()
      << " events, " << TwoN << " at " << Large.size();
}

// ---- Mode equivalence and telemetry -----------------------------------------

class SyncPModeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SyncPModeTest, AllModesMatchTheSequentialWalk) {
  const uint64_t Seed = GetParam();
  RandomTraceParams P = smallParams(Seed);
  P.OpsPerThread = 20 + Seed % 13;
  Trace T = randomTrace(P);
  RaceReport Want = testutil::run<SyncPDetector>(T);

  testutil::expectSameReport(runMode(T, RunMode::Sequential), Want, T,
                             "sequential");
  for (uint32_t Shards : {1u, 2u, 5u})
    testutil::expectSameReport(
        runMode(T, RunMode::VarSharded, Shards), Want, T,
        "var-sharded x" + std::to_string(Shards));
  // The windowed baseline is deliberately handicapped: it must still run
  // (fresh index per window, fragment-local event ids) and every window-
  // local report entry must also be in the full-trace report.
  RaceReport Windowed =
      runDetectorWindowed(makeDetectorFactory(DetectorKind::SyncP), T, 16);
  for (const RaceInstance &R : Windowed.instances())
    // pairDistance is 0 exactly when the pair is unknown (real pairs have
    // distance >= 1).
    EXPECT_GT(Want.pairDistance(R.pair()), 0u) << R.str(T);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, SyncPModeTest,
                         ::testing::Range<uint64_t>(1, 16));

TEST(SyncPTelemetry, CountersSurfaceThroughTheLane) {
  Trace T = gadgetTwoThreads();
  AnalysisConfig Cfg;
  Cfg.addDetector(DetectorKind::SyncP);
  AnalysisResult R = analyzeTrace(Cfg, T);
  ASSERT_TRUE(R.ok());
  uint64_t Candidates = 0, Iterations = UINT64_MAX, Peak = UINT64_MAX;
  for (const MetricSample &S : R.Lanes.front().Telemetry) {
    if (S.Name == "syncp.candidate_pairs")
      Candidates = S.Value;
    else if (S.Name == "syncp.closure_iterations")
      Iterations = S.Value;
    else if (S.Name == "syncp.ideal_peak")
      Peak = S.Value;
  }
  EXPECT_GE(Candidates, 1u) << "the x pair must have reached the closure";
  EXPECT_LE(R.Lanes.front().Report.numDistinctPairs(), Candidates)
      << "a race must come from a candidate the prefilter admitted";
  EXPECT_NE(Iterations, UINT64_MAX) << "closure_iterations sample missing";
  EXPECT_GE(Iterations, 1u) << "candidates were decided without a closure";
  ASSERT_NE(Peak, UINT64_MAX) << "ideal_peak sample missing";
  EXPECT_GE(Peak, 3u) << "the x-pair ideal holds t2's critical section";
}

TEST(SyncPTelemetry, VarShardedRunCountsItsClosureWork) {
  // SyncP does not capture, so the var-sharded session runs the lane's
  // sequential walk — its telemetry must still count the closure work.
  Trace T = gadgetThreeThreads();
  AnalysisConfig Cfg;
  Cfg.addDetector(DetectorKind::SyncP);
  Cfg.Mode = RunMode::VarSharded;
  Cfg.VarShards = 3;
  AnalysisResult R = analyzeTrace(Cfg, T);
  ASSERT_TRUE(R.ok());
  uint64_t Candidates = 0;
  for (const MetricSample &S : R.Lanes.front().Telemetry)
    if (S.Name == "syncp.candidate_pairs")
      Candidates = S.Value;
  EXPECT_GE(Candidates, 1u);
}
