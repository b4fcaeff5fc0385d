//===- examples/race_cli.cpp - RAPID-style command-line tool ------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// The equivalent of the paper's RAPID tool, rebuilt on the session API
// (api/AnalysisSession.h): flags map onto one AnalysisConfig, every run
// mode goes through the same validated entry point, and failures surface
// as structured statuses.
//
// Run `race_cli --help` for the full flag matrix. Every input takes one
// path: a file (or '-' for stdin) streams through AnalysisSession::feedFile,
// so analysis overlaps ingestion — lanes consume published chunks as they
// arrive — and the built-in model goes through feedTrace. --json
// replaces the human-readable output with a machine-readable report
// (lanes, statuses, timings, telemetry); --dry-run validates the flag
// combination and exits (the docs CI job uses it to keep every invocation
// quoted in docs/*.md parseable).
//
//===----------------------------------------------------------------------===//

#include "api/AnalysisSession.h"
#include "gen/Workloads.h"
#include "obs/Metrics.h"
#include "serve/ReportCanon.h"
#include "support/Json.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"
#include "trace/TraceStats.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace rapid;

namespace {

struct Options {
  std::string Path;
  bool RunHb = false;
  bool RunWcp = false;
  bool RunFastTrack = false;
  bool RunEraser = false;
  bool RunSyncP = false;
  bool ShowStats = false;
  bool Json = false;
  bool DryRun = false;
  bool ShowMetrics = false; // --metrics: human-readable telemetry tables.
  bool NoMetrics = false;   // --no-metrics: zero-cost disable.
  std::string TraceOut;     // --trace-out: Perfetto timeline destination.
  std::string ReportOut;    // --report-out: canonical report destination.
};

void printHelp() {
  std::fputs(
      "usage: race_cli [trace-file] [options]\n"
      "\n"
      "Analyzes a trace (.bin or .txt; the built-in 'mergesort' workload\n"
      "model when no file is given) for predictable data races. The file\n"
      "streams through one analysis session: lanes consume published\n"
      "chunks while later ones are still being read, for binary and text\n"
      "traces alike. Pass '-' to read a text trace from stdin; FIFO paths\n"
      "stream the same way.\n"
      "\n"
      "detectors (default: --hb --wcp):\n"
      "  --hb           Djit+-style happens-before\n"
      "  --wcp          weak-causally-precedes (the paper's linear-time "
      "core)\n"
      "  --fasttrack    FastTrack epochs\n"
      "  --eraser       Eraser locksets\n"
      "  --syncp        sync-preserving race prediction (SP-closure;\n"
      "                 finds races WCP provably misses)\n"
      "\n"
      "output:\n"
      "  --stats        print trace statistics first\n"
      "  --json         machine-readable report; includes per-lane\n"
      "                 and session \"telemetry\" objects\n"
      "  --metrics      print the telemetry tables (session counters,\n"
      "                 then one table per lane; see docs/OBSERVABILITY.md\n"
      "                 for the metric catalog)\n"
      "  --no-metrics   disable metric collection entirely (the zero-cost\n"
      "                 path: no atomics, no clock reads)\n"
      "  --trace-out F  write a Chrome/Perfetto trace_event timeline of\n"
      "                 the run to F (open the file at ui.perfetto.dev)\n"
      "  --report-out F write the canonical race report to F — the exact\n"
      "                 bytes race_serverd's Report frames carry, for\n"
      "                 diffing live sessions against offline replays\n"
      "  --dry-run      validate the flag combination and exit 0 without\n"
      "                 reading the trace or analyzing\n"
      "  --help         this text\n"
      "\n"
      "examples:\n"
      "  race_cli trace.bin --hb --wcp\n"
      "  race_cli trace.bin --metrics\n"
      "  race_cli trace.bin --trace-out run.json\n"
      "  race_cli trace.txt --json --fasttrack\n"
      "  race_cli trace.bin --wcp --syncp\n"
      "  cat trace.txt | race_cli - --hb --wcp\n"
      "  race_cli trace.txt --report-out report.txt\n",
      stdout);
}

/// Looks up one metric by name in a telemetry block. Returns false when
/// the sample is absent (metrics disabled, or the lane never registered
/// it).
bool findSample(const std::vector<MetricSample> &Telemetry,
                const char *Name, uint64_t &Value) {
  for (const MetricSample &S : Telemetry)
    if (S.Name == Name) {
      Value = S.Value;
      return true;
    }
  return false;
}

/// Renders a telemetry block as a JSON object: {"name": value, ...}.
/// Samples are already name-sorted by the session, so output is stable.
std::string renderTelemetryJson(const std::vector<MetricSample> &Telemetry,
                                const char *Indent) {
  std::string J = "{";
  for (size_t I = 0; I != Telemetry.size(); ++I) {
    if (I)
      J += ",";
    J += "\n";
    J += Indent;
    J += "  " + jsonQuote(Telemetry[I].Name) + ": " +
         std::to_string(Telemetry[I].Value);
  }
  if (!Telemetry.empty()) {
    J += "\n";
    J += Indent;
  }
  J += "}";
  return J;
}

/// The machine-readable report: one JSON object whose field names are
/// the AnalysisResult's (seconds as fixed-point numbers, see Json.h).
std::string renderJson(const AnalysisResult &R, const AnalysisConfig &Cfg) {
  std::string J;
  J += "{\n";
  J += "  \"tool\": \"race_cli\",\n";
  J += "  \"mode\": \"" + std::string(runModeName(Cfg.Mode)) + "\",\n";
  J += "  \"status\": " + jsonQuote(R.firstError().ok() ? "ok"
                                                      : R.firstError().str()) +
       ",\n";
  J += "  \"events\": " + std::to_string(R.EventsIngested) + ",\n";
  J += "  \"threads_used\": " + std::to_string(R.ThreadsUsed) + ",\n";
  J += "  \"wall_seconds\": " + jsonNum(R.WallSeconds) + ",\n";
  J += "  \"ingest_seconds\": " + jsonNum(R.IngestSeconds) + ",\n";
  J += "  \"lane_seconds_total\": " + jsonNum(R.laneSecondsTotal()) + ",\n";
  J += "  \"telemetry\": " + renderTelemetryJson(R.Telemetry, "  ") + ",\n";
  J += "  \"lanes\": [";
  for (size_t L = 0; L != R.Lanes.size(); ++L) {
    const LaneReport &Lane = R.Lanes[L];
    if (L)
      J += ",";
    J += "\n    {\"detector\": " + jsonQuote(Lane.DetectorName) +
         ", \"status\": " +
         jsonQuote(Lane.LaneStatus.ok() ? "ok" : Lane.LaneStatus.str()) +
         ", \"races\": " + std::to_string(Lane.Report.numDistinctPairs()) +
         ", \"instances\": " + std::to_string(Lane.Report.numInstances()) +
         ", \"maxdist\": " + std::to_string(Lane.Report.maxPairDistance()) +
         ", \"seconds\": " + jsonNum(Lane.Seconds) +
         ", \"events_consumed\": " + std::to_string(Lane.EventsConsumed) +
         ",\n     \"telemetry\": " +
         renderTelemetryJson(Lane.Telemetry, "     ") + "}";
  }
  J += "\n  ]\n}\n";
  return J;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--hb")
      Opts.RunHb = true;
    else if (Arg == "--wcp")
      Opts.RunWcp = true;
    else if (Arg == "--fasttrack")
      Opts.RunFastTrack = true;
    else if (Arg == "--eraser")
      Opts.RunEraser = true;
    else if (Arg == "--syncp")
      Opts.RunSyncP = true;
    else if (Arg == "--stats")
      Opts.ShowStats = true;
    else if (Arg == "--json")
      Opts.Json = true;
    else if (Arg == "--dry-run")
      Opts.DryRun = true;
    else if (Arg == "--metrics")
      Opts.ShowMetrics = true;
    else if (Arg == "--no-metrics")
      Opts.NoMetrics = true;
    else if (Arg == "--trace-out" && I + 1 < Argc)
      Opts.TraceOut = Argv[++I];
    else if (Arg.rfind("--trace-out=", 0) == 0)
      Opts.TraceOut = Arg.substr(std::strlen("--trace-out="));
    else if (Arg == "--report-out" && I + 1 < Argc)
      Opts.ReportOut = Argv[++I];
    else if (Arg.rfind("--report-out=", 0) == 0)
      Opts.ReportOut = Arg.substr(std::strlen("--report-out="));
    else if (Arg == "--help" || Arg == "-h") {
      printHelp();
      return 0;
    }
    else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      return 1;
    } else
      Opts.Path = Arg;
  }
  if (!Opts.RunHb && !Opts.RunWcp && !Opts.RunFastTrack && !Opts.RunEraser &&
      !Opts.RunSyncP)
    Opts.RunHb = Opts.RunWcp = true;
  if (Opts.ShowMetrics && Opts.NoMetrics) {
    std::fprintf(stderr, "error: --metrics and --no-metrics conflict\n");
    return 1;
  }

  // Flags → the one declarative config.
  AnalysisConfig Cfg;
  Cfg.Metrics = !Opts.NoMetrics;
  Cfg.Timeline = !Opts.TraceOut.empty();
  if (Opts.RunHb)
    Cfg.addDetector(DetectorKind::Hb);
  // WCP's queue peaks (paper §4, Table 1 column 11) now ride the lane's
  // Telemetry block (Detector::telemetry), so the plain detector suffices.
  if (Opts.RunWcp)
    Cfg.addDetector(DetectorKind::Wcp);
  if (Opts.RunFastTrack)
    Cfg.addDetector(DetectorKind::FastTrack);
  if (Opts.RunEraser)
    Cfg.addDetector(DetectorKind::Eraser);
  if (Opts.RunSyncP)
    Cfg.addDetector(DetectorKind::SyncP);
  if (Status V = Cfg.validate(); !V.ok()) {
    std::fprintf(stderr, "error: %s\n", V.str().c_str());
    return 1;
  }
  if (Opts.DryRun) {
    std::printf("dry-run ok: mode=%s detectors=%zu\n",
                runModeName(Cfg.Mode), Cfg.Detectors.size());
    return 0;
  }

  // Run: one session for every input. A file (or '-') streams through
  // feedFile, so ingest overlaps analysis; the built-in model is fed from
  // memory. The session stays alive so its trace renders without a copy.
  AnalysisSession Session(Cfg);
  if (Opts.Path.empty()) {
    if (!Opts.Json)
      std::printf("no trace file given; analyzing the built-in "
                  "'mergesort' workload model\n\n");
    (void)Session.feedTrace(makeWorkload(workloadSpec("mergesort")));
  } else {
    // Even on ingest failure, finish and render: the validated/published
    // prefix stays analyzed, and --json consumers always get a report. A
    // failed feed is the session's sticky status, so R.Overall carries it
    // (an ill-formed trace surfaces as its first ValidationError, exit 1)
    // and it is reported once, below.
    (void)Session.feedFile(Opts.Path);
  }
  AnalysisResult R = Session.finish();
  const Trace &T = Session.trace();
  if (!R.Overall.ok() && T.size() == 0 && !Opts.Json) {
    // Nothing was read (a file that cannot be opened, or bad from its
    // first line): there is no prefix to report on, only the error.
    // --json still prints its object, whose status carries the error.
    std::fprintf(stderr, "error: %s\n", R.Overall.str().c_str());
    return 1;
  }

  if (!Opts.TraceOut.empty()) {
    std::string Timeline = Session.exportTimeline();
    std::FILE *F = std::fopen(Opts.TraceOut.c_str(), "wb");
    if (!F || std::fwrite(Timeline.data(), 1, Timeline.size(), F) !=
                  Timeline.size()) {
      std::fprintf(stderr, "error: cannot write trace to '%s'\n",
                   Opts.TraceOut.c_str());
      if (F)
        std::fclose(F);
      return 1;
    }
    std::fclose(F);
    if (!Opts.Json)
      std::printf("timeline written to %s (open at ui.perfetto.dev)\n",
                  Opts.TraceOut.c_str());
  }

  if (!Opts.ReportOut.empty()) {
    const std::string Canon = canonicalReport(R, T);
    std::FILE *F = std::fopen(Opts.ReportOut.c_str(), "wb");
    if (!F ||
        std::fwrite(Canon.data(), 1, Canon.size(), F) != Canon.size()) {
      std::fprintf(stderr, "error: cannot write report to '%s'\n",
                   Opts.ReportOut.c_str());
      if (F)
        std::fclose(F);
      return 1;
    }
    std::fclose(F);
  }

  if (Opts.Json) {
    std::fputs(renderJson(R, Cfg).c_str(), stdout);
    return R.ok() ? 0 : 1;
  }

  if (Opts.ShowStats)
    std::printf("%s\n", computeStats(T).str().c_str());

  bool LaneFailed = false;
  TablePrinter Table({"analysis", "races", "instances", "maxdist", "time"});
  for (const LaneReport &L : R.Lanes) {
    if (!L.LaneStatus.ok()) {
      std::fprintf(stderr, "error: %s lane failed: %s\n",
                   L.DetectorName.c_str(), L.LaneStatus.str().c_str());
      LaneFailed = true;
      continue;
    }
    Table.addRow({L.DetectorName, std::to_string(L.Report.numDistinctPairs()),
                  std::to_string(L.Report.numInstances()),
                  std::to_string(L.Report.maxPairDistance()),
                  formatSeconds(L.Seconds)});
    std::printf("%s findings:\n%s\n", L.DetectorName.c_str(),
                L.Report.str(T).c_str());
  }
  Table.print();
  // WCP runs expose the paper's queue telemetry via the lane's Telemetry
  // block. (Absent when --no-metrics.)
  if (Opts.RunWcp) {
    for (const LaneReport &L : R.Lanes) {
      uint64_t Abstract = 0;
      if (!findSample(L.Telemetry, "wcp.queue_peak_abstract", Abstract))
        continue;
      uint64_t Live = 0;
      findSample(L.Telemetry, "wcp.queue_peak_live", Live);
      double Pct = T.size() == 0 ? 0.0
                                 : 100.0 * static_cast<double>(Live) /
                                       static_cast<double>(T.size());
      std::printf("WCP queue peak: %llu abstract entries (%.2f%% of "
                  "events)\n",
                  (unsigned long long)Abstract, Pct);
      break;
    }
  }
  if (Opts.ShowMetrics) {
    // Session-scope table first, then one per lane — mirroring the
    // --json "telemetry" objects. See docs/OBSERVABILITY.md for what
    // each metric means.
    TablePrinter SessionTable({"session metric", "kind", "value"});
    for (const MetricSample &S : R.Telemetry)
      SessionTable.addRow(
          {S.Name, metricKindName(S.Kind), std::to_string(S.Value)});
    std::printf("\n");
    SessionTable.print();
    for (const LaneReport &L : R.Lanes) {
      if (L.Telemetry.empty())
        continue;
      TablePrinter LaneTable({L.DetectorName + " metric", "kind", "value"});
      for (const MetricSample &S : L.Telemetry)
        LaneTable.addRow(
            {S.Name, metricKindName(S.Kind), std::to_string(S.Value)});
      std::printf("\n");
      LaneTable.print();
    }
  }
  if (!R.Overall.ok()) {
    std::fprintf(stderr, "error: %s\n", R.Overall.str().c_str());
    LaneFailed = true;
  }

  std::printf("\npipeline: %u thread(s)\n", R.ThreadsUsed);
  double LaneTotal = R.laneSecondsTotal();
  std::printf("lane analysis %.3fs total in %.3fs wall", LaneTotal,
              R.WallSeconds);
  if (R.WallSeconds > 0 && LaneTotal > 0)
    std::printf(" (%.2fx concurrency)", LaneTotal / R.WallSeconds);
  std::printf("; ingest %.3fs\n", R.IngestSeconds);
  return LaneFailed ? 1 : 0;
}
