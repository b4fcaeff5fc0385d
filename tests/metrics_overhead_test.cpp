//===- tests/metrics_overhead_test.cpp - Metrics cost budget ------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// The obs/ layer's cost budget: a streamed Sequential HB+WCP+Eraser
// session over a >= 1M-event binary file may take at most 5% (and 20 ms)
// longer with metrics on than with them off.
//
// The test compares the median walls of 51 interleaved on/off pairs. On a
// shared 4-vCPU VM this session's wall spreads from 0.08 to 0.25 s,
// because the vCPUs' speeds differ by up to 1.7x and drift, so the best
// of three runs per side breached the budget in 11-18% of measurements
// although metrics on was no slower on average. Replaying 600 recorded
// pairs with a regression added to the metrics-on walls, the median rule
// never breached without one, and it caught every regression past the
// bound more often than best-of-3 did (+25 ms: 0.74-1.00 vs 0.57-0.59,
// x1.2: 0.90-1.00 vs 0.59-0.64). A wall-clock test: CMake registers it
// RUN_SERIAL, and it skips in Debug and sanitizer builds.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "gen/Workloads.h"
#include "io/TraceFile.h"

#include <cstdio>

using namespace rapid;
using namespace rapid::testutil;

namespace {

void streamSession(const std::string &Path, bool Metrics) {
  AnalysisConfig Cfg;
  Cfg.addDetector(DetectorKind::Hb)
      .addDetector(DetectorKind::Wcp)
      .addDetector(DetectorKind::Eraser);
  Cfg.Metrics = Metrics;
  AnalysisSession S(Cfg);
  Status Fed = S.feedFile(Path);
  AnalysisResult R = S.finish();
  EXPECT_TRUE(Fed.ok()) << Fed.str();
  EXPECT_TRUE(R.ok()) << R.firstError().str();
}

TEST(MetricsOverheadTest, EnabledMetricsCostAtMostFivePercent) {
  if (!timingBudgetsApply())
    GTEST_SKIP() << "wall-clock budgets bind in optimized builds only";
  Trace T = makeWorkload(workloadSpec("montecarlo"), 4.4);
  ASSERT_GE(T.size(), 1000000u);
  const std::string Path =
      ::testing::TempDir() + "rapidpp_metrics_overhead.bin";
  ASSERT_EQ(saveTraceFile(T, Path), "");

  auto [Enabled, Disabled] =
      medianWalls(51, [&] { streamSession(Path, true); },
                  [&] { streamSession(Path, false); });
  std::remove(Path.c_str());
  std::printf("%llu events, median of 51: metrics on %.3f s, off %.3f s\n",
              (unsigned long long)T.size(), Enabled, Disabled);
  // The relative budget binds only above timer jitter (20 ms).
  EXPECT_FALSE(Enabled > 1.05 * Disabled && Enabled - Disabled > 0.02)
      << "metrics on " << Enabled << " s vs off " << Disabled << " s";
}

} // namespace
