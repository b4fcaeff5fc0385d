//===- tests/wcp_test.cpp - Algorithm 1 internals ------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// White-box tests of the WCP detector: clock evolution on hand-computed
// traces, rule-by-rule edge effects, queue behaviour (including the
// paper's Figure 6), and the telemetry the Table 1 harness consumes.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "detect/DetectorRunner.h"
#include "gen/PaperTraces.h"
#include "gen/Workloads.h"
#include "trace/TraceBuilder.h"
#include "wcp/WcpDetector.h"

#include <gtest/gtest.h>

#include <iterator>

using namespace rapid;

namespace {

/// Runs the detector and returns per-event effective C timestamps.
std::vector<VectorClock> timestamps(const Trace &T) {
  return testutil::captureTimestamps<WcpDetector>(T);
}

} // namespace

TEST(WcpClockTest, LocalClockIncrementsOnlyAfterRelease) {
  // N_t advances exactly when the previous event was a release; the own
  // component of C_e equals N at e.
  TraceBuilder B;
  B.read("t1", "a");        // N=1
  B.write("t1", "a");       // N=1
  B.acquire("t1", "l");     // N=1
  B.release("t1", "l");     // N=1 (increment happens *before next event*)
  B.read("t1", "a");        // N=2
  B.acquire("t1", "l");     // N=2
  B.release("t1", "l");     // N=2
  B.write("t1", "a");       // N=3
  Trace T = testutil::takeValid(B);
  std::vector<VectorClock> C = timestamps(T);
  ClockValue Expected[] = {1, 1, 1, 1, 2, 2, 2, 3};
  for (EventIdx I = 0; I != T.size(); ++I)
    EXPECT_EQ(C[I].get(ThreadId(0)), Expected[I]) << "event " << I;
}

TEST(WcpClockTest, RuleADeliversReleaseTimeToConflictingAccess) {
  // fig2b shape: the r(x) inside the second section receives rel(l)'s
  // H-time (rule a), the earlier r(y) does not.
  Trace T = paperFig2b().T;
  std::vector<VectorClock> C = timestamps(T);
  // Events: 0 w(y) 1 acq 2 w(x) 3 rel | 4 acq 5 r(y) 6 r(x) 7 rel.
  ClockValue T1AtRel = C[3].get(ThreadId(0));
  EXPECT_LT(C[5].get(ThreadId(0)), T1AtRel)
      << "r(y) must not know t1's release";
  EXPECT_GE(C[6].get(ThreadId(0)), T1AtRel)
      << "r(x) must know t1's release via rule (a)";
}

TEST(WcpClockTest, AcquireReceivesWcpKnowledgeOfLastReleaseOnly) {
  // P_ℓ carries the *WCP-predecessor* time of the last release, not its
  // HB time: an acquire after an unrelated critical section learns
  // nothing about the other thread.
  TraceBuilder B;
  B.write("t1", "a", "w1");
  B.acquire("t1", "l");
  B.release("t1", "l");
  B.acquire("t2", "l");
  B.read("t2", "a", "r2"); // Conflicts with w1 but no WCP edge exists.
  B.release("t2", "l");
  Trace T = testutil::takeValid(B);
  RaceReport R = testutil::run<WcpDetector>(T);
  EXPECT_EQ(R.numDistinctPairs(), 1u)
      << "HB would order these; WCP must report the race";
}

TEST(WcpQueueTest, Fig6ExercisesTheQueues) {
  PaperTrace P = paperFig6();
  WcpDetector D(P.T);
  for (EventIdx I = 0; I != P.T.size(); ++I)
    D.processEvent(P.T.event(I), I);
  // The m-sections of t1/t2/t3 interlock: entries must have been both
  // enqueued and popped (t2's rel(m) at line 20 consumes t1's section).
  EXPECT_GT(D.stats().MaxAbstractQueueEntries, 0u);
  EXPECT_EQ(D.report().numDistinctPairs(), 0u);
}

TEST(WcpQueueTest, EntriesPopOnlyWhenGuardHolds) {
  // Two unrelated sections on one lock: no pops, entries retained.
  TraceBuilder B;
  B.acquire("t1", "m").write("t1", "a").release("t1", "m");
  B.acquire("t2", "m").write("t2", "b").release("t2", "m");
  Trace T = testutil::takeValid(B);
  WcpDetector D(T);
  for (EventIdx I = 0; I != T.size(); ++I)
    D.processEvent(T.event(I), I);
  // t2's release sees t1's entry but C_{acq1} ⋢ C_t2 (no conflict, no
  // edge): the entry must remain queued.
  // t1's closed section (2 entries in t2's queues) plus t2's acquire and
  // release entries (2 entries in t1's queues — t1 is a live consumer).
  EXPECT_EQ(D.stats().MaxLiveQueueEntries, 4u);
}

TEST(WcpQueueTest, ConflictEnablesPopAndRuleB) {
  // t2 reads what t1's section wrote -> rule (a) raises C_t2 -> t2's
  // release pops t1's entry (rule b) -> later conflicting pair ordered.
  TraceBuilder B;
  B.acquire("t1", "m").write("t1", "a").write("t1", "z", "z1");
  B.release("t1", "m");
  B.acquire("t2", "m").read("t2", "a").release("t2", "m");
  B.write("t2", "z", "z2");
  Trace T = testutil::takeValid(B);
  WcpDetector D(T);
  RaceReport R = runDetector(D, T).Report;
  // z1 ≤TO rel(m)_t1 ≺(b) rel(m)_t2 ≤TO z2 — wait: the z-pair is ordered
  // through rule (a) on 'a' composed with HB; either way, no race on z.
  EXPECT_FALSE(R.hasPair(RacePair(T.event(2).Loc, T.event(7).Loc)));
}

TEST(WcpStatsTest, SharedBufferNeverExceedsAbstractCount) {
  for (const PaperTrace &P : allPaperTraces()) {
    WcpDetector D(P.T);
    for (EventIdx I = 0; I != P.T.size(); ++I)
      D.processEvent(P.T.event(I), I);
    EXPECT_LE(D.stats().MaxLiveQueueEntries,
              D.stats().MaxAbstractQueueEntries)
        << P.Name;
    EXPECT_EQ(D.numEventsProcessed(), P.T.size());
  }
}

TEST(WcpStatsTest, PrivateLocksContributeNoLiveEntries) {
  // A lock only ever touched by one thread has no live consumers; its
  // entries must not count toward the live metric (they dominate the
  // literal one).
  TraceBuilder B;
  for (int I = 0; I < 10; ++I)
    B.acquire("t1", "p").write("t1", "v").release("t1", "p");
  B.write("t2", "unrelated");
  Trace T = testutil::takeValid(B);
  WcpDetector D(T);
  for (EventIdx I = 0; I != T.size(); ++I)
    D.processEvent(T.event(I), I);
  EXPECT_EQ(D.stats().MaxLiveQueueEntries, 0u);
  EXPECT_EQ(D.stats().MaxAbstractQueueEntries, 20u)
      << "the literal metric still counts the dead queues";
}

TEST(WcpStatsTest, LateDeclaredThreadIsCreditedForQueuedEntries) {
  // t2 is admitted (by the fork) after t1's section was enqueued and
  // closed, yet t2's release pops that section: the fork orders t1's
  // acquire before it. The accounting must credit t2's share of the
  // queued entry when the thread table grows — otherwise the pop drives
  // the abstract count negative (an assert in checked builds) and the
  // peak disagrees with a detector built over the whole table.
  TraceBuilder B;
  B.acquire("t1", "m").release("t1", "m");
  B.fork("t1", "t2");
  B.acquire("t2", "m").release("t2", "m");
  Trace Full = testutil::takeValid(B);
  ASSERT_EQ(Full.numThreads(), 2u);

  Trace OneThread;
  OneThread.threadTable().intern("t1");
  OneThread.lockTable().intern("m");
  WcpDetector Grown(OneThread);
  WcpDetector UpFront(Full);
  for (EventIdx I = 0; I != Full.size(); ++I) {
    Grown.processEvent(Full.event(I), I);
    UpFront.processEvent(Full.event(I), I);
  }
  // Up front: 1 + 1 for t1's section, +1 for t2's acquire; the pop then
  // removes t2's two copies.
  EXPECT_EQ(UpFront.stats().MaxAbstractQueueEntries, 3u);
  EXPECT_EQ(Grown.stats().MaxAbstractQueueEntries,
            UpFront.stats().MaxAbstractQueueEntries);
}

TEST(WcpStatsTest, LateToucherInheritsPendingEntries) {
  // When a thread first acquires a lock, the other threads' pending
  // sections become live for it.
  TraceBuilder B;
  B.acquire("t1", "m").write("t1", "a").release("t1", "m");
  B.acquire("t1", "m").write("t1", "b").release("t1", "m");
  B.acquire("t2", "m"); // First touch: inherits 2 closed sections = 4,
                        // and its own acquire enters t1's queue (+1).
  Trace T = testutil::takeValid(B);
  WcpDetector D(T);
  for (EventIdx I = 0; I != T.size(); ++I)
    D.processEvent(T.event(I), I);
  EXPECT_EQ(D.stats().MaxLiveQueueEntries, 5u);
}

TEST(WcpRaceCheckTest, FirstRaceMatchesPaperSemantics) {
  // §3.2: the detector flags the *second* event of a racing pair; our
  // per-thread history recovers the first. Check both on fig2b.
  Trace T = paperFig2b().T;
  RaceReport R = testutil::run<WcpDetector>(T);
  ASSERT_EQ(R.instances().size(), 1u);
  const RaceInstance &I = R.instances().front();
  EXPECT_EQ(I.EarlierIdx, 0u) << "w(y)";
  EXPECT_EQ(I.LaterIdx, 5u) << "r(y)";
  EXPECT_EQ(I.distance(), 5u);
}

TEST(WcpRaceCheckTest, WriteChecksBothReadAndWriteHistories) {
  TraceBuilder B;
  B.read("t1", "v", "r1");
  B.write("t2", "v", "w2"); // Races with the read.
  B.write("t3", "v", "w3"); // Races with both.
  Trace T = testutil::takeValid(B);
  RaceReport R = testutil::run<WcpDetector>(T);
  EXPECT_TRUE(R.hasPair(RacePair(T.event(0).Loc, T.event(1).Loc)));
  EXPECT_TRUE(R.hasPair(RacePair(T.event(0).Loc, T.event(2).Loc)));
  EXPECT_TRUE(R.hasPair(RacePair(T.event(1).Loc, T.event(2).Loc)));
  EXPECT_EQ(R.numDistinctPairs(), 3u);
}

TEST(WcpRaceCheckTest, DistinctLocationPairsDeduplicate) {
  // The same two program locations racing repeatedly count once (the
  // paper's "distinct race pairs" metric).
  TraceBuilder B;
  for (int I = 0; I < 5; ++I) {
    B.write("t1", "v", "siteA");
    B.write("t2", "v", "siteB");
  }
  RaceReport R = testutil::run<WcpDetector>(testutil::takeValid(B));
  EXPECT_EQ(R.numDistinctPairs(), 1u);
  EXPECT_GE(R.numInstances(), 5u);
}

TEST(WcpHandOverHandTest, Figure6PatternAnalyzesCleanly) {
  // acq(l0) acq(m) rel(l0) acq(l1) rel(m) rel(l1): sections overlap
  // without nesting; accesses register in all open sections.
  TraceBuilder B;
  B.acquire("t1", "l0").acquire("t1", "m").write("t1", "x");
  B.release("t1", "l0").acquire("t1", "l1").release("t1", "m");
  B.release("t1", "l1");
  B.acquire("t2", "m").read("t2", "x").release("t2", "m");
  Trace T = testutil::takeValid(B);
  // x was written inside the m-section, so rule (a) orders rel-side
  // knowledge into t2's read: no race.
  RaceReport R = testutil::run<WcpDetector>(T);
  EXPECT_EQ(R.numDistinctPairs(), 0u);
}

TEST(WcpHandOverHandTest, AccessOutsideOverlapStillRaces) {
  TraceBuilder B;
  B.acquire("t1", "l0").write("t1", "x").release("t1", "l0");
  B.acquire("t2", "l1").read("t2", "x").release("t2", "l1");
  Trace T = testutil::takeValid(B);
  // Different locks: rule (a) cannot apply; race.
  RaceReport R = testutil::run<WcpDetector>(T);
  EXPECT_EQ(R.numDistinctPairs(), 1u);
}

TEST(WcpForkJoinTest, ParentChildOrderingIsHardNotWcp) {
  // Parent's pre-fork write is ordered with the child's write (no race),
  // but this knowledge must not leak through locks: a third thread that
  // syncs with the child on a lock gains no ordering with the parent.
  TraceBuilder B;
  B.write("t1", "g", "parent");
  B.fork("t1", "t2");
  B.write("t2", "g", "child");
  B.acquire("t2", "l").release("t2", "l");
  B.acquire("t3", "l").release("t3", "l");
  B.read("t3", "g", "third");
  Trace T = testutil::takeValid(B);
  RaceReport R = testutil::run<WcpDetector>(T);
  EXPECT_FALSE(R.hasPair(RacePair(T.event(0).Loc, T.event(2).Loc)))
      << "fork orders parent and child";
  EXPECT_TRUE(R.hasPair(RacePair(T.event(0).Loc, T.event(7).Loc)))
      << "t3 is only HB-ordered with the parent, not WCP-ordered";
  EXPECT_TRUE(R.hasPair(RacePair(T.event(2).Loc, T.event(7).Loc)))
      << "t3 is only HB-ordered with the child too";
}

TEST(WcpWindowedTest, DetectorIsRestartablePerFragment) {
  // A fresh detector per window must not crash on fragments whose locks
  // were re-established by the splitter and must agree with the full run
  // when the window covers everything.
  Trace T = paperFig4().T;
  RaceReport Full = testutil::run<WcpDetector>(T);
  DetectorFactory Make = [](const Trace &F) {
    return std::make_unique<WcpDetector>(F);
  };
  LaneReport Whole = testutil::analyzeWindowed(Make, T, T.size());
  EXPECT_EQ(Whole.Report.numDistinctPairs(), Full.numDistinctPairs());
  LaneReport Tiny = testutil::analyzeWindowed(Make, T, 3);
  EXPECT_LE(Tiny.Report.numDistinctPairs(), Full.numDistinctPairs());
}

// Table 1 column 11 pinned: each model's WCP queue telemetry and WCP race
// pair count at bench_table1's default scale (0.03 for models above 100k
// events). A change to how WCP stores its state must leave the paper's
// telemetry exactly as it is.
TEST(WcpStatsTest, Table1TelemetryIsPinned) {
  struct Row {
    const char *Model;
    uint64_t Events, Abstract, Live, Shared, WcpPairs;
  };
  const Row Rows[] = {
      {"account", 74, 26, 5, 2, 4},
      {"airline", 54, 0, 0, 0, 4},
      {"array", 40, 10, 3, 2, 0},
      {"boundedbuffer", 198, 6, 6, 3, 2},
      {"bubblesort", 2402, 412, 412, 33, 6},
      {"bufwriter", 4798, 1294, 98, 299, 2},
      {"critical", 38, 0, 0, 0, 8},
      {"mergesort", 1800, 118, 118, 16, 3},
      {"pingpong", 68, 0, 0, 0, 7},
      {"moldyn", 2982, 32, 32, 7, 44},
      {"montecarlo", 7208, 96, 96, 16, 5},
      {"raytracer", 16002, 12822, 56, 1066, 3},
      {"derby", 5400, 7732, 14, 38, 23},
      {"eclipse", 36430, 234489, 1325, 12, 66},
      {"ftpserver", 48988, 196600, 1220, 38, 36},
      {"jigsaw", 5806, 30042, 588, 64, 14},
      {"lusearch", 11324, 29764, 136, 70, 160},
      {"xalan", 12604, 30498, 106, 24, 18},
  };
  const std::vector<WorkloadSpec> Specs = table1Workloads();
  ASSERT_EQ(Specs.size(), std::size(Rows));
  for (size_t I = 0; I != Specs.size(); ++I) {
    const WorkloadSpec &Spec = Specs[I];
    const Row &Want = Rows[I];
    ASSERT_EQ(Spec.Name, Want.Model);
    Trace T = makeWorkload(Spec, Spec.Events > 100000 ? 0.03 : 1.0);
    WcpDetector D(T);
    RunResult R = runDetector(D, T);
    EXPECT_EQ(T.size(), Want.Events) << Want.Model;
    EXPECT_EQ(D.stats().MaxAbstractQueueEntries, Want.Abstract) << Want.Model;
    EXPECT_EQ(D.stats().MaxLiveQueueEntries, Want.Live) << Want.Model;
    EXPECT_EQ(D.stats().MaxSharedQueueEntries, Want.Shared) << Want.Model;
    EXPECT_EQ(R.Report.numDistinctPairs(), Want.WcpPairs) << Want.Model;
  }
}
