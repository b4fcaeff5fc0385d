//===- bench/bench_table1.cpp - Reproduce Table 1 (E1) ------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// Regenerates the paper's Table 1 over the 18 workload models: per
// benchmark the trace shape (#events/#threads/#locks), the distinct race
// pairs found by WCP and HB, the races found by the windowed
// maximal-causality predictor (the RVPredict stand-in) at two
// window/budget settings plus the max over a parameter sweep, the peak
// WCP queue occupancy (column 11) and the analysis times.
//
// Absolute numbers differ from the paper (their traces came from JVM
// runs; ours are synthetic models at a configurable scale), but the
// planted race structure makes columns 6-7 match the paper exactly, and
// the *shape* — WCP ≥ HB everywhere, WCP > HB on eclipse/jigsaw/xalan,
// the windowed predictor trailing both on large traces, queues staying
// tiny — is the reproduction target. gen_test's PlantedRaceCountsAreExact
// pins columns 6-7 for every model.
//
// Environment: RAPID_SCALE (default 0.03) scales the large traces;
// RAPID_FULL=1 runs the predictor sweep for the max column (slower).
//
//===----------------------------------------------------------------------===//

#include "detect/DetectorRunner.h"
#include "gen/Workloads.h"
#include "hb/HbDetector.h"
#include "mcm/WindowedPredictor.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"
#include "trace/TraceStats.h"
#include "wcp/WcpDetector.h"

#include <cstdio>
#include <cstdlib>

using namespace rapid;

int main() {
  double Scale = 0.03;
  if (const char *S = std::getenv("RAPID_SCALE"))
    Scale = std::atof(S);
  bool FullSweep = std::getenv("RAPID_FULL") != nullptr;

  std::printf("Table 1 reproduction (scale %.3f for the large models; "
              "paper values in 'paper W/H')\n\n",
              Scale);

  TablePrinter Table({"program", "events", "thrd", "locks", "WCP", "HB",
                      "RV w=1K", "RV w=10K", "RV max", "queue%", "t(WCP)",
                      "t(HB)", "t(RV1K)", "t(RV10K)", "paper W/H"});

  for (const WorkloadSpec &Spec : table1Workloads()) {
    double S = Spec.Events > 100000 ? Scale : 1.0;
    Trace T = makeWorkload(Spec, S);
    TraceStats Stats = computeStats(T);

    WcpDetector Wcp(T);
    RunResult WcpRun = runDetector(Wcp, T);
    HbDetector Hb(T);
    RunResult HbRun = runDetector(Hb, T);

    // The windowed predictor: budget plays the role of RVPredict's SMT
    // solver timeout (60s ~ 20k states, 240s ~ 80k states).
    PredictorOptions Small;
    Small.WindowSize = 1000;
    Small.BudgetPerWindow = 20000;
    PredictorResult Rv1K = runWindowedPredictor(T, Small);

    PredictorOptions Big;
    Big.WindowSize = 10000;
    Big.BudgetPerWindow = 80000;
    PredictorResult Rv10K = runWindowedPredictor(T, Big);

    uint64_t RvMax = std::max(Rv1K.Report.numDistinctPairs(),
                              Rv10K.Report.numDistinctPairs());
    if (FullSweep) {
      for (uint64_t W : {2000u, 5000u}) {
        for (uint64_t B : {20000u, 40000u, 80000u}) {
          PredictorOptions O;
          O.WindowSize = W;
          O.BudgetPerWindow = B;
          RvMax = std::max(RvMax,
                           runWindowedPredictor(T, O).Report
                               .numDistinctPairs());
        }
      }
    }

    char QueuePct[16];
    std::snprintf(QueuePct, sizeof(QueuePct), "%.1f",
                  Wcp.stats().maxQueuePercent(T.size()));
    Table.addRow({Spec.Name, TablePrinter::formatCount(Stats.NumEvents),
                  std::to_string(Stats.NumThreads),
                  std::to_string(Stats.NumLocks),
                  std::to_string(WcpRun.Report.numDistinctPairs()),
                  std::to_string(HbRun.Report.numDistinctPairs()),
                  std::to_string(Rv1K.Report.numDistinctPairs()),
                  std::to_string(Rv10K.Report.numDistinctPairs()),
                  std::to_string(RvMax), QueuePct,
                  formatSeconds(WcpRun.Seconds),
                  formatSeconds(HbRun.Seconds),
                  formatSeconds(Rv1K.Seconds),
                  formatSeconds(Rv10K.Seconds),
                  std::to_string(Spec.PaperWcpRaces) + "/" +
                      std::to_string(Spec.PaperHbRaces)});
  }
  Table.print();

  std::printf("\nShape checks (the paper's qualitative claims):\n"
              " * WCP == HB + (WCP-only gadgets); strictly greater on "
              "eclipse, jigsaw, xalan (boldfaced rows).\n"
              " * The windowed predictor misses far-apart races on the "
              "large models regardless of budget.\n"
              " * Queue occupancy stays a small fraction of the trace "
              "(column 11 of the paper: <3%% almost everywhere).\n"
              " * WCP analysis time is within a small factor of HB.\n");
  return 0;
}
