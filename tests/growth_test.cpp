//===- tests/growth_test.cpp - Mid-stream table growth, fuzzed ----------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// The growable-state contract: a streaming session whose id tables grow
// *while lanes are already consuming* — threads, locks and variables
// declared at arbitrary mid-stream offsets — must
//
//   1. never restart a lane (growth is an O(1) metadata update, not a
//      rebuild-and-replay), and
//   2. finish with reports bit-for-bit identical to analyzeTrace and to
//      plain runDetector over the final trace,
//
// for every detector and every run mode. 50 seeds x {no-forkjoin,
// forkjoin} = 100 distinct traces; each runs through both modes with
// all four detector lanes, with a seed-derived random declaration
// schedule: ids are declared in table order (the session's interner
// assigns ids in declaration order) but at random offsets — sometimes
// just-in-time before the first event that references them, sometimes
// batched ahead — so growth lands at different points of every lane's
// consumption on every seed.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "api/AnalysisSession.h"
#include "gen/RandomTraceGen.h"
#include "gen/Workloads.h"
#include "support/Prng.h"
#include "trace/TraceBuilder.h"

#include <gtest/gtest.h>

using namespace rapid;
using testutil::expectSameReport;

namespace {

constexpr DetectorKind kAllKinds[] = {DetectorKind::Hb, DetectorKind::Wcp,
                                      DetectorKind::FastTrack,
                                      DetectorKind::Eraser,
                                      DetectorKind::SyncP};

/// Trace shapes with enough distinct ids that declarations keep arriving
/// deep into the stream.
RandomTraceParams growthParams(uint64_t Seed, bool ForkJoin) {
  RandomTraceParams P;
  P.Seed = Seed;
  P.NumThreads = 2 + Seed % 6;
  P.NumLocks = 1 + Seed % 5;
  P.NumVars = 2 + (Seed * 7) % 12;
  P.OpsPerThread = 30 + (Seed * 11) % 40;
  P.MaxLockNesting = 1 + Seed % 3;
  P.AcquirePercent = 10 + (Seed * 5) % 25;
  P.WritePercent = 30 + (Seed * 13) % 40;
  P.WithForkJoin = ForkJoin;
  return P;
}

/// Declares \p T's names into \p S lazily, feeding events in small
/// batches: each id is declared in table order, no earlier than the
/// random schedule allows and no later than just before its first use.
/// Returns false (with a recorded failure) if any session call fails.
class LazyDeclarer {
public:
  LazyDeclarer(AnalysisSession &S, const Trace &T, uint64_t Seed)
      : S(S), T(T), Rng(Seed ^ 0xf00d) {}

  /// Runs the whole schedule: declarations interleaved with feeds.
  bool run() {
    std::vector<Event> Batch;
    const uint64_t BatchSize = 1 + Rng.nextBelow(5);
    for (EventIdx I = 0; I != T.size(); ++I) {
      const Event &E = T.event(I);
      if (!declareFor(E))
        return false;
      // Occasionally declare ids ahead of schedule, so some growth
      // arrives in bursts unrelated to the events around it.
      if (Rng.nextBelow(8) == 0 && !declareRandomAhead())
        return false;
      Batch.push_back(E);
      if (Batch.size() == BatchSize || I + 1 == T.size()) {
        Status Fed = S.feed(Batch);
        EXPECT_TRUE(Fed.ok()) << Fed.str();
        if (!Fed.ok())
          return false;
        Batch.clear();
      }
    }
    return true;
  }

private:
  /// Declares everything event \p E references (in table order up to the
  /// referenced id — interned ids must match the source trace's).
  bool declareFor(const Event &E) {
    if (!threadsUpTo(E.Thread.value()))
      return false;
    switch (E.Kind) {
    case EventKind::Fork:
    case EventKind::Join:
      if (!threadsUpTo(E.targetThread().value()))
        return false;
      break;
    case EventKind::Acquire:
    case EventKind::Release:
      if (!locksUpTo(E.lock().value()))
        return false;
      break;
    case EventKind::Read:
    case EventKind::Write:
      if (!varsUpTo(E.var().value()))
        return false;
      break;
    }
    return locsUpTo(E.Loc.value());
  }

  bool declareRandomAhead() {
    switch (Rng.nextBelow(4)) {
    case 0:
      return NextThread < T.numThreads() ? threadsUpTo(NextThread) : true;
    case 1:
      return NextLock < T.numLocks() ? locksUpTo(NextLock) : true;
    case 2:
      return NextVar < T.numVars() ? varsUpTo(NextVar) : true;
    default:
      return NextLoc < T.numLocs() ? locsUpTo(NextLoc) : true;
    }
  }

  bool threadsUpTo(uint32_t Id) {
    for (; NextThread <= Id; ++NextThread) {
      ThreadId Got = S.declareThread(T.threadName(ThreadId(NextThread)));
      EXPECT_EQ(Got.value(), NextThread) << "interned thread id diverged";
      if (Got.value() != NextThread)
        return false;
    }
    return true;
  }
  bool locksUpTo(uint32_t Id) {
    for (; NextLock <= Id; ++NextLock) {
      LockId Got = S.declareLock(T.lockName(LockId(NextLock)));
      EXPECT_EQ(Got.value(), NextLock) << "interned lock id diverged";
      if (Got.value() != NextLock)
        return false;
    }
    return true;
  }
  bool varsUpTo(uint32_t Id) {
    for (; NextVar <= Id; ++NextVar) {
      VarId Got = S.declareVar(T.varName(VarId(NextVar)));
      EXPECT_EQ(Got.value(), NextVar) << "interned var id diverged";
      if (Got.value() != NextVar)
        return false;
    }
    return true;
  }
  bool locsUpTo(uint32_t Id) {
    for (; NextLoc <= Id; ++NextLoc) {
      LocId Got = S.declareLoc(T.locName(LocId(NextLoc)));
      EXPECT_EQ(Got.value(), NextLoc) << "interned loc id diverged";
      if (Got.value() != NextLoc)
        return false;
    }
    return true;
  }

  AnalysisSession &S;
  const Trace &T;
  Prng Rng;
  uint32_t NextThread = 0, NextLock = 0, NextVar = 0, NextLoc = 0;
};

AnalysisConfig growthConfig(RunMode Mode, uint64_t Seed) {
  AnalysisConfig Cfg;
  Cfg.Mode = Mode;
  for (DetectorKind K : kAllKinds)
    Cfg.addDetector(K);
  Cfg.StreamBatchEvents = 1 + Seed % 7; // Eager consumption: lanes run
                                        // genuinely behind the producer.
  Cfg.Threads = 1 + Seed % 3;
  if (Mode == RunMode::VarSharded)
    Cfg.VarShards = 1 + Seed % 6;
  return Cfg;
}

class GrowthFuzzTest : public ::testing::TestWithParam<uint64_t> {};

/// Runs \p T through both modes with a lazy declaration schedule and
/// holds every lane to the restart-free + bit-for-bit contract.
void expectGrowthRoundHolds(const Trace &T, uint64_t Seed, uint64_t DeclSeed,
                            const std::string &TraceLabel) {
  for (RunMode Mode : {RunMode::Sequential, RunMode::VarSharded}) {
    AnalysisConfig Cfg = growthConfig(Mode, Seed);
    AnalysisSession S(Cfg);
    ASSERT_TRUE(S.status().ok()) << S.status().str();
    LazyDeclarer Declarer(S, T, DeclSeed);
    ASSERT_TRUE(Declarer.run())
        << TraceLabel << " mode " << runModeName(Mode);
    AnalysisResult R = S.finish();
    ASSERT_TRUE(R.ok()) << R.firstError().str();

    const Trace &Final = S.trace();
    ASSERT_EQ(Final.size(), T.size());
    AnalysisResult Want = analyzeTrace(Cfg, Final);
    ASSERT_TRUE(Want.ok()) << Want.firstError().str();
    ASSERT_EQ(R.Lanes.size(), Want.Lanes.size());
    for (size_t L = 0; L != R.Lanes.size(); ++L) {
      std::string Label = TraceLabel + " " + runModeName(Mode) + "/" +
                          Want.Lanes[L].DetectorName;
      EXPECT_EQ(R.Lanes[L].DetectorName, Want.Lanes[L].DetectorName)
          << Label;
      expectSameReport(R.Lanes[L].Report, Want.Lanes[L].Report, Final,
                       Label + "/vs-analyzeTrace");
      // Every mode additionally promises equality with the plain
      // sequential walk.
      std::unique_ptr<Detector> D = makeDetectorFactory(kAllKinds[L])(Final);
      RunResult Seq = runDetector(*D, Final);
      expectSameReport(R.Lanes[L].Report, Seq.Report, Final,
                       Label + "/vs-seq");
    }
  }
}

} // namespace

TEST_P(GrowthFuzzTest, MidStreamGrowthIsRestartFreeAndBitForBit) {
  const uint64_t Seed = GetParam();
  for (bool ForkJoin : {false, true}) {
    Trace T = randomTrace(growthParams(Seed * 2 + ForkJoin, ForkJoin));
    expectGrowthRoundHolds(T, Seed, Seed * 4 + ForkJoin,
                           "growth seed " + std::to_string(Seed) + " fj=" +
                               std::to_string(ForkJoin));
  }
}

// The adversarial matrix under mid-stream declaration: each seed draws one
// shape (all shapes covered across the range), declared lazily into every
// mode. DeclarationDense is the pointed case — its program keeps minting
// thread/lock/variable ids until the last event, so this is where a
// restart bug in any lane's growth path (SyncP's prefilter clock and
// closure index included) would surface.
TEST_P(GrowthFuzzTest, AdversarialShapesGrowRestartFree) {
  const uint64_t Seed = GetParam();
  const std::vector<WorkloadShape> &Shapes = allWorkloadShapes();
  WorkloadShape Shape = Shapes[Seed % Shapes.size()];
  Trace T = makeAdversarialTrace(Shape, Seed);
  expectGrowthRoundHolds(T, Seed, Seed * 4 + 2,
                         std::string("shape ") + workloadShapeName(Shape) +
                             " seed " + std::to_string(Seed));
}

// 50 seeds x {no-forkjoin, forkjoin} = 100 distinct traces, each through
// every (detector, mode) pair.
INSTANTIATE_TEST_SUITE_P(Seeds, GrowthFuzzTest,
                         ::testing::Range<uint64_t>(1, 51));

// Regression pin for the WCP queue-GC fix under mid-stream declaration:
// the pathological queue-growth trace forks its third thread halfway
// through, so the GC's thread frontier grows while the per-lock queues
// are already loaded — collecting an entry the late thread still needs
// would diverge the streamed report from the batch one here.
TEST(WcpQueueStressGrowthTest, LateThreadDeclarationStaysBitForBit) {
  for (uint64_t Seed : {1u, 2u, 5u}) {
    WcpQueueStressSpec Spec;
    Spec.Seed = Seed;
    Trace T = makeWcpQueueStress(Spec);
    ASSERT_GT(T.size(), 0u);
    expectGrowthRoundHolds(T, Seed, Seed ^ 0x51515,
                           "wcp-queue-stress seed " + std::to_string(Seed));
  }
}

// Threads declared mid-stream past VectorClock's inline width: each new
// thread is forked by the newest one after it has worked a while, so
// thread k is first named about k/12 of the way into the trace and every
// lane's clocks spill from inline to heap storage while it is consuming.
namespace {

Trace staggeredThreadsTrace(uint64_t Seed, uint32_t Threads) {
  constexpr uint32_t Locks = 3, Vars = 4, StepsPerThread = 24;
  Prng Rng(Seed);
  TraceBuilder B;
  auto name = [](uint32_t T) { return "t" + std::to_string(T); };
  uint32_t Running = 1;
  std::vector<int> Holder(Locks, -1);
  std::vector<std::vector<uint32_t>> Held(Threads);
  for (uint32_t Step = 0; Step != Threads * StepsPerThread; ++Step) {
    if (Step % StepsPerThread == StepsPerThread - 1 && Running < Threads) {
      B.fork(name(Running - 1), name(Running));
      ++Running;
      continue;
    }
    const uint32_t T = static_cast<uint32_t>(Rng.nextBelow(Running));
    const uint64_t Op = Rng.nextBelow(10);
    const uint32_t L = static_cast<uint32_t>(Rng.nextBelow(Locks));
    if (Op < 2 && Holder[L] == -1) {
      B.acquire(name(T), "l" + std::to_string(L));
      Holder[L] = static_cast<int>(T);
      Held[T].push_back(L);
    } else if (Op < 4 && !Held[T].empty()) {
      B.release(name(T), "l" + std::to_string(Held[T].back()));
      Holder[Held[T].back()] = -1;
      Held[T].pop_back();
    } else {
      const std::string X = "x" + std::to_string(Rng.nextBelow(Vars));
      if (Rng.chance(1, 2))
        B.write(name(T), X);
      else
        B.read(name(T), X);
    }
  }
  for (uint32_t T = 0; T != Threads; ++T)
    for (; !Held[T].empty(); Held[T].pop_back())
      B.release(name(T), "l" + std::to_string(Held[T].back()));
  return testutil::takeValid(B);
}

} // namespace

TEST(WideGrowthTest, ThreadsDeclaredPastInlineWidthStayBitForBit) {
  for (uint64_t Seed : {1u, 2u, 3u, 4u}) {
    Trace T = staggeredThreadsTrace(Seed, 12);
    ASSERT_GT(T.numThreads(), VectorClock::kInlineThreads);
    expectGrowthRoundHolds(T, Seed, Seed ^ 0x9e37,
                           "staggered seed " + std::to_string(Seed));
  }
}
