//===- bench/bench_windowing.cpp - Windowing loses races (E6) -----------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// §4.3's sharpest observation: both HB and WCP expose races whose
// endpoints are millions of events apart ("more than 25 races in eclipse
// with distance at least 4.8 million"), so *any* windowed analysis is
// structurally unable to catch them. This bench runs unwindowed and
// windowed WCP/HB over the far-race models and prints (a) how detection
// decays with window size, and (b) the distance profile of the races the
// unwindowed analysis finds.
//
// Environment: RAPID_SCALE (default 0.05).
//
//===----------------------------------------------------------------------===//

#include "api/AnalysisConfig.h"
#include "gen/Workloads.h"
#include "support/TablePrinter.h"
#include "wcp/WcpDetector.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

using namespace rapid;

int main() {
  double Scale = 0.05;
  if (const char *S = std::getenv("RAPID_SCALE"))
    Scale = std::atof(S);

  for (const char *Name : {"eclipse", "lusearch", "xalan", "bufwriter"}) {
    WorkloadSpec Spec = workloadSpec(Name);
    double S = Spec.Events > 100000 ? Scale : 1.0;
    Trace T = makeWorkload(Spec, S);

    WcpDetector Wcp(T);
    RunResult Full = runDetector(Wcp, T);

    std::printf("%s: %llu events, unwindowed WCP finds %llu pairs "
                "(max distance %llu = %.0f%% of trace)\n",
                Name, (unsigned long long)T.size(),
                (unsigned long long)Full.Report.numDistinctPairs(),
                (unsigned long long)Full.Report.maxPairDistance(),
                100.0 * Full.Report.maxPairDistance() / T.size());

    // Distance profile of the unwindowed findings.
    std::vector<uint64_t> Distances;
    for (const RaceInstance &I : Full.Report.instances())
      Distances.push_back(Full.Report.pairDistance(I.pair()));
    std::sort(Distances.begin(), Distances.end());
    uint64_t Far = Full.Report.numPairsWithDistanceAtLeast(T.size() / 3);
    std::printf("  distance profile: median %llu, far pairs (>1/3 trace): "
                "%llu\n",
                Distances.empty()
                    ? 0ull
                    : (unsigned long long)Distances[Distances.size() / 2],
                (unsigned long long)Far);

    TablePrinter Table({"window", "WCP pairs", "HB pairs",
                        "far pairs caught"});
    for (uint64_t W : {1000u, 5000u, 20000u}) {
      if (W >= T.size())
        continue;
      RaceReport WWcp =
          runDetectorWindowed(makeDetectorFactory(DetectorKind::Wcp), T, W);
      RaceReport WHb =
          runDetectorWindowed(makeDetectorFactory(DetectorKind::Hb), T, W);
      Table.addRow(
          {std::to_string(W), std::to_string(WWcp.numDistinctPairs()),
           std::to_string(WHb.numDistinctPairs()),
           std::to_string(WWcp.numPairsWithDistanceAtLeast(T.size() / 3))});
    }
    Table.addRow({"full",
                  std::to_string(Full.Report.numDistinctPairs()), "-",
                  std::to_string(Far)});
    Table.print();
    std::printf("\n");
  }
  std::printf("Reading: a far pair is caught only by a window wider than "
              "its distance — only the unwindowed linear-time analyses see "
              "them all.\n");
  return 0;
}
