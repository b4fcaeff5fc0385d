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
#include "support/Prng.h"
#include "trace/TraceBuilder.h"
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

// Theorem 2 on lock-dense traces, the shape of the Table 1 models the
// detector is slowest on: most sections take a lock private to their
// thread, two locks are shared, a thread often re-acquires the lock it
// released last, and each lock sees several variables. Now and then a
// thread takes another thread's private lock, so a lock gains its second
// toucher late, with retained sections behind it. One thread appears
// only halfway through; the timestamps are checked both from a detector
// built over the whole trace and from one that admits each thread at its
// first event.
namespace {

Trace lockDenseTrace(uint64_t Seed, uint32_t NumThreads) {
  Prng Rng(Seed);
  const uint32_t PrivatePerThread = 2, NumVars = 6;
  std::vector<std::vector<uint32_t>> Held(NumThreads);
  std::vector<bool> IsHeld(NumThreads * PrivatePerThread + 2);
  auto LockName = [&](uint32_t L) {
    return L < 2 ? "shared" + std::to_string(L)
                 : "p" + std::to_string(L - 2);
  };
  auto ThreadName = [](uint32_t T) { return "t" + std::to_string(T); };
  TraceBuilder B;
  const uint32_t Steps = 40 + 12 * NumThreads;
  for (uint32_t Step = 0; Step != Steps; ++Step) {
    // The last thread is declared (first seen) only halfway through.
    const uint32_t Active = Step < Steps / 2 ? NumThreads - 1 : NumThreads;
    const uint32_t T = static_cast<uint32_t>(Rng.nextBelow(Active));
    const std::string Name = ThreadName(T);
    std::vector<uint32_t> &Mine = Held[T];
    if (!Mine.empty() && Rng.chance(2, 5)) {
      IsHeld[Mine.back()] = false;
      B.release(Name, LockName(Mine.back()));
      Mine.pop_back();
      continue;
    }
    if (Mine.size() < 2 && Rng.chance(2, 5)) {
      // Mostly the thread's own private locks, sometimes a shared one,
      // rarely another thread's private lock.
      uint32_t L;
      const uint64_t Pick = Rng.nextBelow(10);
      if (Pick < 7)
        L = 2 + T * PrivatePerThread +
            static_cast<uint32_t>(Rng.nextBelow(PrivatePerThread));
      else if (Pick < 9)
        L = static_cast<uint32_t>(Rng.nextBelow(2));
      else
        L = 2 + static_cast<uint32_t>(
                    Rng.nextBelow(NumThreads * PrivatePerThread));
      if (IsHeld[L])
        continue;
      IsHeld[L] = true;
      Mine.push_back(L);
      B.acquire(Name, LockName(L));
      continue;
    }
    const std::string X = "x" + std::to_string(Rng.nextBelow(NumVars));
    if (Rng.chance(1, 2))
      B.read(Name, X);
    else
      B.write(Name, X);
  }
  for (uint32_t T = 0; T != NumThreads; ++T)
    for (; !Held[T].empty(); Held[T].pop_back())
      B.release(ThreadName(T), LockName(Held[T].back()));
  return testutil::takeValid(B);
}

void expectLockDenseTheorem2(uint64_t Seed, uint32_t NumThreads) {
  Trace T = lockDenseTrace(Seed, NumThreads);
  ASSERT_EQ(T.numThreads(), NumThreads);
  ClosureEngine Ref(T);
  std::vector<VectorClock> UpFront =
      testutil::captureTimestamps<WcpDetector>(T);
  WcpDetector Grown{Trace()};
  std::vector<VectorClock> Late(T.size());
  for (EventIdx I = 0; I != T.size(); ++I) {
    Grown.processEvent(T.event(I), I);
    Grown.currentC(T.event(I).Thread, Late[I]);
  }
  for (EventIdx B = 0; B != T.size(); ++B)
    for (EventIdx A = 0; A != B; ++A) {
      const bool Order = Ref.ordered(OrderKind::WCP, A, B);
      ASSERT_EQ(UpFront[A].lessOrEqual(UpFront[B]), Order)
          << "seed=" << Seed << "\n a=" << T.eventStr(A) << " (#" << A
          << ")\n b=" << T.eventStr(B) << " (#" << B << ")";
      ASSERT_EQ(Late[A].lessOrEqual(Late[B]), Order)
          << "grown, seed=" << Seed << "\n a=" << T.eventStr(A) << " (#"
          << A << ")\n b=" << T.eventStr(B) << " (#" << B << ")";
    }
  RaceReport R = testutil::run<WcpDetector>(T);
  for (const RaceInstance &I : R.instances())
    EXPECT_TRUE(Ref.isRace(OrderKind::WCP, I.EarlierIdx, I.LaterIdx))
        << I.str(T);
  EXPECT_EQ(R.numDistinctPairs() > 0, !Ref.races(OrderKind::WCP).empty());
  testutil::expectSameReport(Grown.report(), R, T, "grown vs up front");
}

class LockDenseEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(LockDenseEquivalenceTest, Theorem2AndRacesMatchClosure) {
  expectLockDenseTheorem2(GetParam(), 3 + GetParam() % 4); // 3..6 threads
}

TEST_P(LockDenseEquivalenceTest, WideTheorem2AndRacesMatchClosure) {
  expectLockDenseTheorem2(GetParam() ^ 0x5a5a, 9 + GetParam() % 2);
}

INSTANTIATE_TEST_SUITE_P(LockDenseTraces, LockDenseEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 41));
