//===- tests/equivalence_test.cpp - Theorem 2 property tests -----------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// Theorem 2: for events a <tr b, C_a ⊑ C_b ⟺ a ≤WCP b. We check the
// streaming detector's timestamps against the declarative closure on
// randomized traces, plus the race-set equalities it implies, and the
// inclusion chain ≤WCP ⊆ ≤CP ⊆ ≤HB the paper proves.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "gen/RandomTraceGen.h"
#include "hb/HbDetector.h"
#include "reference/ClosureEngine.h"
#include "trace/TraceValidator.h"
#include "wcp/WcpDetector.h"

#include <gtest/gtest.h>

using namespace rapid;

namespace {

RandomTraceParams paramsForSeed(uint64_t Seed, bool ForkJoin) {
  RandomTraceParams P;
  P.Seed = Seed;
  P.NumThreads = 2 + Seed % 4;        // 2..5 threads
  P.NumLocks = 1 + Seed % 4;          // 1..4 locks
  P.NumVars = 2 + Seed % 5;           // 2..6 vars
  P.OpsPerThread = 20 + (Seed * 7) % 40;
  P.MaxLockNesting = 1 + Seed % 3;
  P.WithForkJoin = ForkJoin;
  return P;
}

class EquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(EquivalenceTest, Theorem2TimestampsMatchClosure) {
  for (bool ForkJoin : {false, true}) {
    Trace T = randomTrace(paramsForSeed(GetParam(), ForkJoin));
    ASSERT_TRUE(validateTrace(T).ok());
    ClosureEngine Ref(T);
    std::vector<VectorClock> C =
        testutil::captureTimestamps<WcpDetector>(T);
    for (EventIdx B = 0; B != T.size(); ++B) {
      for (EventIdx A = 0; A != B; ++A) {
        bool Clock = C[A].lessOrEqual(C[B]);
        bool Order = Ref.ordered(OrderKind::WCP, A, B);
        ASSERT_EQ(Clock, Order)
            << "fork/join=" << ForkJoin << " seed=" << GetParam() << "\n a="
            << T.eventStr(A) << " (#" << A << ")\n b=" << T.eventStr(B)
            << " (#" << B << ")\n Ca=" << C[A].str() << " Cb=" << C[B].str();
      }
    }
  }
}

TEST_P(EquivalenceTest, HbDetectorMatchesHbClosure) {
  for (bool ForkJoin : {false, true}) {
    Trace T = randomTrace(paramsForSeed(GetParam() ^ 0x77, ForkJoin));
    ClosureEngine Ref(T);
    // Compare race *event pairs* found by the streaming detector with the
    // closure. The streaming detector only checks against the most recent
    // access per (thread, kind), so compare on the per-event level: every
    // streaming race is a closure race, and both agree on which events
    // are racy seconds.
    RaceReport R = testutil::run<HbDetector>(T);
    for (const RaceInstance &I : R.instances())
      EXPECT_TRUE(Ref.isRace(OrderKind::HB, I.EarlierIdx, I.LaterIdx))
          << I.str(T);
    // Exact verdict equality.
    EXPECT_EQ(R.numDistinctPairs() > 0,
              !Ref.races(OrderKind::HB).empty());
  }
}

TEST_P(EquivalenceTest, WcpRaceInstancesAgreeWithClosure) {
  Trace T = randomTrace(paramsForSeed(GetParam() ^ 0x1234, false));
  ClosureEngine Ref(T);
  RaceReport R = testutil::run<WcpDetector>(T);
  for (const RaceInstance &I : R.instances())
    EXPECT_TRUE(Ref.isRace(OrderKind::WCP, I.EarlierIdx, I.LaterIdx))
        << I.str(T);
  EXPECT_EQ(R.numDistinctPairs() > 0, !Ref.races(OrderKind::WCP).empty());
}

TEST_P(EquivalenceTest, InclusionChainWcpCpHb) {
  // ≤WCP ⊆ ≤CP ⊆ ≤HB (§2.2), equivalently races(HB) ⊆ races(CP) ⊆
  // races(WCP) as sets of event pairs.
  for (bool ForkJoin : {false, true}) {
    Trace T = randomTrace(paramsForSeed(GetParam() ^ 0xbeef, ForkJoin));
    ClosureEngine Ref(T);
    for (EventIdx B = 0; B != T.size(); ++B) {
      for (EventIdx A = 0; A != B; ++A) {
        if (Ref.ordered(OrderKind::WCP, A, B)) {
          EXPECT_TRUE(Ref.ordered(OrderKind::CP, A, B))
              << T.eventStr(A) << " -> " << T.eventStr(B);
        }
        if (Ref.ordered(OrderKind::CP, A, B)) {
          EXPECT_TRUE(Ref.ordered(OrderKind::HB, A, B))
              << T.eventStr(A) << " -> " << T.eventStr(B);
        }
        if (Ref.ordered(OrderKind::Hard, A, B)) {
          EXPECT_TRUE(Ref.ordered(OrderKind::WCP, A, B));
        }
      }
    }
  }
}

TEST_P(EquivalenceTest, QueueAccountingStaysConsistent) {
  Trace T = randomTrace(paramsForSeed(GetParam() ^ 0xfeed, false));
  WcpDetector D(T);
  for (EventIdx I = 0; I != T.size(); ++I)
    D.processEvent(T.event(I), I);
  // The abstract queue peak is at most (T-1) * 2 * #critical-sections.
  uint64_t Sections = 0;
  for (const Event &E : T.events())
    if (E.Kind == EventKind::Acquire)
      ++Sections;
  EXPECT_LE(D.stats().MaxAbstractQueueEntries,
            2 * Sections * (T.numThreads() - 1));
}

INSTANTIATE_TEST_SUITE_P(RandomTraces, EquivalenceTest,
                         ::testing::Range<uint64_t>(1, 41));

// The fidelity knobs: on traces without fork/join, the literal
// Definition 3 (strict premise) yields a relation no larger than the
// Algorithm 1 semantics (inclusive premise).
TEST(ClosureOptionsTest, StrictPremiseIsContainedInInclusive) {
  for (uint64_t Seed : {3u, 11u, 27u}) {
    Trace T = randomTrace(paramsForSeed(Seed, false));
    ClosureOptions Strict;
    Strict.InclusivePremise = false;
    ClosureEngine Literal(T, Strict);
    ClosureEngine Algorithmic(T);
    for (EventIdx B = 0; B != T.size(); ++B) {
      for (EventIdx A = 0; A != B; ++A) {
        if (Literal.ordered(OrderKind::WCP, A, B)) {
          EXPECT_TRUE(Algorithmic.ordered(OrderKind::WCP, A, B));
        }
      }
    }
  }
}

// Theorem 2 on wide traces. The suite above draws 2-5 threads, so every
// clock it compares stays within VectorClock's inline storage; these
// traces have 9-12 threads, so the detector's clocks, queue entries and
// rule-(a) cells all live on the heap path.
namespace {

RandomTraceParams wideParamsForSeed(uint64_t Seed, bool ForkJoin) {
  RandomTraceParams P;
  P.Seed = Seed;
  P.NumThreads = 9 + Seed % 4; // 9..12 threads
  P.NumLocks = 1 + Seed % 4;
  P.NumVars = 2 + Seed % 5;
  P.OpsPerThread = 10 + (Seed * 7) % 20;
  P.MaxLockNesting = 1 + Seed % 3;
  P.WithForkJoin = ForkJoin;
  return P;
}

class WideEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(WideEquivalenceTest, Theorem2TimestampsMatchClosure) {
  for (bool ForkJoin : {false, true}) {
    Trace T = randomTrace(wideParamsForSeed(GetParam(), ForkJoin));
    ASSERT_TRUE(validateTrace(T).ok());
    ASSERT_GT(T.numThreads(), VectorClock::kInlineThreads);
    ClosureEngine Ref(T);
    std::vector<VectorClock> C =
        testutil::captureTimestamps<WcpDetector>(T);
    for (EventIdx B = 0; B != T.size(); ++B) {
      for (EventIdx A = 0; A != B; ++A) {
        ASSERT_EQ(C[A].lessOrEqual(C[B]), Ref.ordered(OrderKind::WCP, A, B))
            << "fork/join=" << ForkJoin << " seed=" << GetParam() << "\n a="
            << T.eventStr(A) << " (#" << A << ")\n b=" << T.eventStr(B)
            << " (#" << B << ")\n Ca=" << C[A].str() << " Cb=" << C[B].str();
      }
    }
  }
}

TEST_P(WideEquivalenceTest, WcpRaceInstancesAgreeWithClosure) {
  Trace T = randomTrace(wideParamsForSeed(GetParam() ^ 0x1234, false));
  ClosureEngine Ref(T);
  RaceReport R = testutil::run<WcpDetector>(T);
  for (const RaceInstance &I : R.instances())
    EXPECT_TRUE(Ref.isRace(OrderKind::WCP, I.EarlierIdx, I.LaterIdx))
        << I.str(T);
  EXPECT_EQ(R.numDistinctPairs() > 0, !Ref.races(OrderKind::WCP).empty());
}

INSTANTIATE_TEST_SUITE_P(WideTraces, WideEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 17));
