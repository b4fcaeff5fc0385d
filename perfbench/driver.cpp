//===- perfbench/driver.cpp - Closed-loop end-to-end benchmark ------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// A closed loop: each client submits one trace, waits for its final race
// report, checks it, then submits the next. Four workloads, each putting
// a different layer on the critical path. Trace sizes follow the repo's
// own benchmarks and the paper's Table 1, so one workload is large (about
// 1M events, far past the caches) and the others small:
//
//   bin_large      1.05M-event montecarlo traces, bench_pipeline's default
//                  model and size, as binary files streamed (feedFile,
//                  mmap'd) into a Sequential session running HB, WCP,
//                  FastTrack and Eraser: binary decode and publication
//                  feed four detector walks on a large working set.
//   text_decl      text files of the declaration-dense eclipse model at
//                  49k events (Table 1's ftpserver size) into HB + Eraser:
//                  text parsing and lazy interning stay the critical path.
//   sharded_syncp  12k-event derby traces (the ceiling of bench_pipeline's
//                  syncp section, whose closure cost grows quickly) pushed
//                  from memory (feedTrace) into a VarSharded session, 4
//                  shards, HB + WCP + SyncP: clock pass, shard drains and
//                  the sync-preserving closure replay.
//   serve          two clients, one per worker of RaceServer's default
//                  two-thread ingest pool, stream 131k-event xalan traces
//                  (bench_pipeline's serve_resilience size) over a Unix
//                  socket to an in-process RaceServer (HB + WCP) and wait
//                  for the Report frame.
//
// Every report is compared byte for byte (serve/ReportCanon.h) with the
// batch Sequential analysis of the same trace, and each model's batch
// report with the generator's planted HB and WCP race counts.
//
// --trace 0 prints the end-to-end metrics: median and p90 request
// latency, analysed events per second, and setup_s: the median over
// set-ups of the system's own start-up, i.e. one session opened and
// closed (serve: server start plus one client session opened and closed),
// timed between slices of the run. Input generation, trace files and
// reference reports are made before, untimed.
//
// --trace 1 runs the same closed loop and reports per-layer figures from
// its own requests: spans around each call into the system (open, feed,
// finish, check) and, per event, the session's ingest, validation and
// lane telemetry. A serve request's session lives inside the server, so
// for serve that telemetry comes from one in-process replay per input
// with the server's session config. Wire decoding and vector-clock joins
// have no counter and are timed on their own.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --dir DIR
//
// DIR receives the input files and the server socket; pass a short
// relative path (Unix socket paths are limited to 107 bytes). The last
// stdout line is one JSON object: correct, attempted, failed, metrics.
//
//===----------------------------------------------------------------------===//

#include "api/AnalysisSession.h"
#include "gen/Workloads.h"
#include "io/TraceFile.h"
#include "io/WireFormat.h"
#include "serve/RaceServer.h"
#include "serve/ReportCanon.h"
#include "serve/WireClient.h"
#include "support/Prng.h"
#include "vc/VectorClock.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace rapid;

namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

Clock::time_point after(double Seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(Seconds));
}

/// Linearly interpolated quantile \p Q of non-empty \p V.
double quantile(std::vector<double> V, double Q) {
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

enum class Kind { BinLarge, TextDecl, ShardedSyncP, Serve };

struct WorkloadDef {
  const char *Name;
  Kind K;
  unsigned Clients;
  const char *Model; ///< Table 1 model generating the traces.
  uint64_t Events;   ///< Event-count floor per trace.
  /// Distinct traces per run; requests cycle them. Many, so a run's
  /// figures average over traces rather than depend on one seed's.
  unsigned Inputs;
};

const WorkloadDef Workloads[] = {
    {"bin_large", Kind::BinLarge, 1, "montecarlo", 1050000, 8},
    {"text_decl", Kind::TextDecl, 1, "eclipse", 49000, 32},
    {"sharded_syncp", Kind::ShardedSyncP, 1, "derby", 12000, 32},
    {"serve", Kind::Serve, 2, "xalan", 1050000 / 8, 16},
};

/// The run is measured in this many slices, with this many set-ups timed
/// before each; setup_s is the median of all of them.
constexpr unsigned Slices = 10;
constexpr unsigned SetupsPerSlice = 5;
constexpr unsigned SettleMs = 100;

/// A trace of \p W's model with at least W.Events events. The generator
/// treats the count as approximate, so rescale until it is a floor (as
/// bench_pipeline does).
Trace makeInput(const WorkloadDef &W, uint64_t Seed) {
  WorkloadSpec Spec = workloadSpec(W.Model);
  Spec.Seed = Seed;
  double Scale =
      static_cast<double>(W.Events) / static_cast<double>(Spec.Events);
  Trace T = makeWorkload(Spec, Scale);
  for (int Try = 0; Try < 4 && T.size() < W.Events; ++Try) {
    Scale *= 1.05 * static_cast<double>(W.Events) /
             static_cast<double>(T.size());
    T = makeWorkload(Spec, Scale);
  }
  return T;
}

AnalysisConfig sessionConfig(Kind K) {
  AnalysisConfig C;
  C.addDetector(DetectorKind::Hb);
  switch (K) {
  case Kind::BinLarge:
    C.addDetector(DetectorKind::Wcp)
        .addDetector(DetectorKind::FastTrack)
        .addDetector(DetectorKind::Eraser);
    break;
  case Kind::TextDecl:
    // Two lanes that keep pace with the parser, so parsing and interning
    // stay on the critical path.
    C.addDetector(DetectorKind::Eraser);
    break;
  case Kind::ShardedSyncP:
    C.addDetector(DetectorKind::Wcp).addDetector(DetectorKind::SyncP);
    C.Mode = RunMode::VarSharded;
    C.VarShards = 4;
    C.Threads = 4;
    break;
  case Kind::Serve:
    C.addDetector(DetectorKind::Wcp);
    break;
  }
  return C;
}

/// What every request's report must equal: the same lanes, analyzed in
/// one batch Sequential pass (var-sharded reports are bit-identical).
AnalysisConfig referenceConfig(Kind K) {
  AnalysisConfig C = sessionConfig(K);
  C.Mode = RunMode::Sequential;
  C.VarShards = 0;
  return C;
}

struct Input {
  Trace T;
  std::string Path; ///< File workloads: the trace file a session reads.
  std::string Want; ///< Canonical listing of the reference report.
};

/// Builds the run's inputs, trace files and reference reports (untimed).
/// Returns an error that makes measuring impossible, or "". Sets
/// \p Mismatch when a model's planted race counts are not reproduced.
std::string makeInputs(const WorkloadDef &W, uint64_t Seed,
                       const std::string &Dir, std::vector<Input> &Inputs,
                       std::string &Mismatch) {
  const AnalysisConfig Ref = referenceConfig(W.K);
  const WorkloadSpec Spec = workloadSpec(W.Model);
  for (unsigned I = 0; I < W.Inputs; ++I) {
    Input In;
    In.T = makeInput(W, Seed * 0x9e3779b97f4a7c15ULL + I + 1);
    if (W.K == Kind::BinLarge || W.K == Kind::TextDecl) {
      In.Path = Dir + "/input" + std::to_string(I) +
                (W.K == Kind::BinLarge ? ".bin" : ".txt");
      std::string Err = saveTraceFile(In.T, In.Path);
      if (!Err.empty())
        return "writing " + In.Path + ": " + Err;
    }
    AnalysisResult R = analyzeTrace(Ref, In.T);
    if (!R.ok())
      return "reference analysis failed: " + R.firstError().str();
    for (const LaneReport &L : R.Lanes) {
      const uint64_t Pairs = L.Report.numDistinctPairs();
      if (((L.DetectorName == "HB" && Pairs != Spec.expectedHbPairs()) ||
           (L.DetectorName == "WCP" && Pairs != Spec.expectedWcpPairs())) &&
          Mismatch.empty())
        Mismatch = std::string("planted ") + L.DetectorName +
                   " race count of model '" + W.Model +
                   "' not reproduced on input " + std::to_string(I);
    }
    In.Want = canonicalReport(R, In.T);
    Inputs.push_back(std::move(In));
  }
  return "";
}

RaceServerConfig serverConfig(const std::string &SocketPath) {
  RaceServerConfig C;
  C.Session = sessionConfig(Kind::Serve);
  C.SocketPath = SocketPath;
  C.RosterMax = 16;
  return C;
}

/// Sends Finish and reads the final Report frame's canonical listing.
Status awaitReport(WireClient &C, std::string &Canon) {
  Status S = C.sendFinish();
  WireFrame Type = WireFrame::Hello;
  std::string Payload;
  if (S.ok())
    S = C.readFrame(Type, Payload, 60000);
  if (!S.ok())
    return S;
  // Report payload: u8 partial flag, u64 session id, canonical listing.
  if (Type != WireFrame::Report || Payload.size() < 9 || Payload[0] != 0)
    return Status(StatusCode::InvalidState, "expected a final Report frame");
  Canon = Payload.substr(9);
  return Status::success();
}

/// One timed set-up of the system itself: a session opened and closed,
/// behind a freshly started server for serve. The server is returned so
/// the caller stops it outside the timed span.
std::string setUpOnce(const WorkloadDef &W, const std::string &SocketPath,
                      std::unique_ptr<RaceServer> &Server) {
  if (W.K != Kind::Serve) {
    AnalysisSession S(sessionConfig(W.K));
    AnalysisResult R = S.finish();
    return R.ok() ? "" : "empty session: " + R.firstError().str();
  }
  Server = std::make_unique<RaceServer>(serverConfig(SocketPath));
  Status S = Server->start();
  WireClient C;
  if (S.ok())
    S = C.connectUnix(SocketPath, 2000);
  if (S.ok())
    S = C.sendHello();
  std::string Canon;
  if (S.ok())
    S = awaitReport(C, Canon);
  return S.ok() ? "" : "server set-up: " + S.str();
}

/// Per-layer samples by metric name.
using Samples = std::map<std::string, std::vector<double>>;

uint64_t telemetryValue(const std::vector<MetricSample> &Tel,
                        const std::string &Name) {
  for (const MetricSample &S : Tel)
    if (S.Name == Name)
      return S.Value;
  return 0;
}

/// Adds one finished session's layer figures, per event, to \p S: ingest
/// (parse, validate, publish), validation alone, and each lane's own time
/// (consume plus, var-sharded, shard drains) for HB, the slowest lane and
/// all lanes together.
void addSessionLayers(const AnalysisResult &R, uint64_t Events, Samples &S) {
  const double N = static_cast<double>(Events);
  S["ingest_ns_per_event"].push_back(R.IngestSeconds * 1e9 / N);
  S["validate_ns_per_event"].push_back(
      static_cast<double>(telemetryValue(R.Telemetry, "ingest.validate_ns")) /
      N);
  double Slowest = 0, Total = 0;
  for (const LaneReport &L : R.Lanes) {
    const double Ns =
        static_cast<double>(telemetryValue(L.Telemetry, "consume_ns") +
                            telemetryValue(L.Telemetry, "drain_ns"));
    Slowest = std::max(Slowest, Ns);
    Total += Ns;
    if (L.DetectorName == "HB")
      S["hb_lane_ns_per_event"].push_back(Ns / N);
  }
  S["slowest_lane_ns_per_event"].push_back(Slowest / N);
  S["lanes_total_ns_per_event"].push_back(Total / N);
}

/// Time points around the calls one request makes into the system:
/// start, opened, fed, finished, checked.
struct Marks {
  Clock::time_point At[5];
  int N = 0;
  void mark() { At[N++] = Clock::now(); }
};

constexpr const char *SpanNames[4] = {"span_open_ms", "span_feed_ms",
                                      "span_finish_ms", "span_check_ms"};

/// One closed-loop request. Returns "" when the final report equals the
/// reference, else what went wrong. The check span covers canonicalizing
/// and comparing the report and, in-process, the session's teardown.
/// In-process sessions add their layer figures to \p Layers, when it is
/// non-null, after the last mark.
std::string request(Kind K, const AnalysisConfig &Cfg, const Input &In,
                    const std::string &SocketPath, Marks &M,
                    Samples *Layers) {
  std::string Got;
  AnalysisResult R;
  M.mark();
  if (K == Kind::Serve) {
    WireClient C;
    Status S = C.connectUnix(SocketPath, 2000);
    if (S.ok())
      S = C.sendHello();
    M.mark();
    if (S.ok())
      S = C.sendTrace(In.T);
    M.mark();
    if (S.ok())
      S = awaitReport(C, Got);
    M.mark();
    if (!S.ok())
      return S.str();
  } else {
    AnalysisSession S(Cfg);
    M.mark();
    Status Fed =
        K == Kind::ShardedSyncP ? S.feedTrace(In.T) : S.feedFile(In.Path);
    M.mark();
    R = S.finish();
    M.mark();
    if (!Fed.ok())
      return Fed.str();
    if (!R.ok())
      return R.firstError().str();
    Got = canonicalReport(R, S.trace());
  }
  const bool Same = Got == In.Want;
  M.mark();
  if (Layers && K != Kind::Serve)
    addSessionLayers(R, In.T.size(), *Layers);
  return Same ? "" : "report differs from the batch reference";
}

struct LoopResult {
  std::vector<double> LatencyMs;
  Samples Layers; ///< Spans and, when traced, session layer figures.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Events = 0;
  double WallSeconds = 0;
  std::string FirstError;

  void add(const LoopResult &O) {
    LatencyMs.insert(LatencyMs.end(), O.LatencyMs.begin(), O.LatencyMs.end());
    for (const auto &[Name, V] : O.Layers)
      Layers[Name].insert(Layers[Name].end(), V.begin(), V.end());
    Attempted += O.Attempted;
    Failed += O.Failed;
    Events += O.Events;
    WallSeconds += O.WallSeconds;
    if (FirstError.empty())
      FirstError = O.FirstError;
  }
};

/// Runs W.Clients closed-loop clients until \p Seconds have passed, each
/// issuing at least \p MinRequests requests.
LoopResult closedLoop(const WorkloadDef &W, const std::vector<Input> &Inputs,
                      const std::string &SocketPath, double Seconds,
                      uint64_t MinRequests, bool Traced) {
  const AnalysisConfig Cfg = sessionConfig(W.K);
  std::vector<LoopResult> PerClient(W.Clients);
  const Clock::time_point Start = Clock::now();
  const Clock::time_point Deadline = after(Seconds);
  std::vector<std::thread> Clients;
  for (unsigned C = 0; C < W.Clients; ++C)
    Clients.emplace_back([&, C] {
      LoopResult &Out = PerClient[C];
      for (uint64_t Req = 0; Req < MinRequests || Clock::now() < Deadline;
           ++Req) {
        const Input &In = Inputs[(Req * W.Clients + C) % Inputs.size()];
        Marks M;
        Samples Layers;
        std::string Err = request(W.K, Cfg, In, SocketPath, M,
                                  Traced ? &Layers : nullptr);
        ++Out.Attempted;
        if (!Err.empty()) {
          ++Out.Failed;
          if (Out.FirstError.empty())
            Out.FirstError = Err;
          continue;
        }
        Out.LatencyMs.push_back(msBetween(M.At[0], M.At[4]));
        for (int I = 0; I < 4; ++I)
          Layers[SpanNames[I]].push_back(msBetween(M.At[I], M.At[I + 1]));
        for (const auto &[Name, V] : Layers)
          Out.Layers[Name].insert(Out.Layers[Name].end(), V.begin(), V.end());
        Out.Events += In.T.size();
      }
    });
  for (std::thread &T : Clients)
    T.join();
  LoopResult All;
  for (const LoopResult &R : PerClient)
    All.add(R);
  All.WallSeconds = msBetween(Start, Clock::now()) / 1e3;
  return All;
}

// ---- Layers without a counter -----------------------------------------------

template <typename Fn> double timeNs(Fn &&F) {
  const Clock::time_point T0 = Clock::now();
  F();
  return std::chrono::duration<double, std::nano>(Clock::now() - T0).count();
}

/// Times decoding \p T's wire frames (Events payloads) once.
std::string timeWireDecode(const Trace &T, Samples &S) {
  const std::string Frames = encodeTraceFrames(T);
  uint64_t Decoded = 0;
  Status Wire;
  const double Ns = timeNs([&] {
    FrameDecoder D;
    D.append(Frames.data(), Frames.size());
    WireFrameView F;
    std::vector<Event> Batch;
    while (Wire.ok() && D.next(F) == 1) {
      if (F.Type != WireFrame::Events)
        continue;
      uint64_t Seq = 0;
      Batch.clear();
      Wire = decodeEventsPayload(F.Payload, Seq, Batch);
      Decoded += Batch.size();
    }
  });
  if (!Wire.ok() || Decoded != T.size())
    return "wire decode: " + Wire.str();
  S["wire_decode_ns_per_event"].push_back(Ns / static_cast<double>(T.size()));
  return "";
}

/// Times vector-clock joins at \p T's clock width, bumping one component
/// before each so no join is a no-op.
std::string timeVcJoin(const Trace &T, Samples &S) {
  const uint32_t Width = std::max<uint32_t>(T.numThreads(), 1);
  VectorClock A(Width), B(Width);
  Prng Rng(T.size());
  for (uint32_t I = 0; I < Width; ++I) {
    A.set(ThreadId(I), static_cast<ClockValue>(Rng.nextBelow(1000)));
    B.set(ThreadId(I), static_cast<ClockValue>(Rng.nextBelow(1000)));
  }
  constexpr uint32_t Joins = 4096;
  uint64_t Changed = 0;
  const double Ns = timeNs([&] {
    for (uint32_t I = 0; I < Joins; ++I) {
      VectorClock &Src = (I & 1) ? A : B;
      VectorClock &Dst = (I & 1) ? B : A;
      Src.set(ThreadId(I % Width), 1000 + I);
      Changed += Dst.joinWith(Src);
    }
  });
  if (Changed == 0)
    return "vector-clock joins changed nothing";
  S["vc_join_ns"].push_back(Ns / Joins);
  return "";
}

/// The per-layer figures a traced run adds after its closed loop; returns
/// "" or the first wrong output.
std::string extraLayers(const WorkloadDef &W, const std::vector<Input> &Inputs,
                        Samples &S) {
  for (const Input &In : Inputs) {
    if (W.K == Kind::Serve) {
      AnalysisSession Replay(sessionConfig(W.K));
      Status Fed = Replay.feedTrace(In.T);
      AnalysisResult R = Replay.finish();
      if (!Fed.ok() || !R.ok() || canonicalReport(R, In.T) != In.Want)
        return "in-process replay of a serve input differs from the "
               "reference";
      addSessionLayers(R, In.T.size(), S);
    }
    for (int Rep = 0; Rep < 3; ++Rep) {
      std::string Err = timeWireDecode(In.T, S);
      if (Err.empty())
        Err = timeVcJoin(In.T, S);
      if (!Err.empty())
        return Err;
    }
  }
  return "";
}

const char *layerUnit(const std::string &Name) {
  return Name.rfind("span_", 0) == 0 ? "ms" : "ns";
}

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::string J = std::string("{\"correct\": ") +
                  (Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(Attempted) +
                  ", \"failed\": " + std::to_string(Failed) +
                  ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", Metrics[I].Value);
    J += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " + Buf +
         ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
}

int usage(const std::string &Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "bin_large|text_decl|sharded_syncp|serve --seed N --seconds S "
               "--trace 0|1 --dir DIR\n",
               Why.c_str());
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName, Dir;
  uint64_t Seed = 1;
  double Seconds = 0;
  int Traced = -1;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Flag = Argv[I];
    const char *Value = Argv[I + 1];
    if (Flag == "--workload")
      WorkloadName = Value;
    else if (Flag == "--seed")
      Seed = std::strtoull(Value, nullptr, 10);
    else if (Flag == "--seconds")
      Seconds = std::strtod(Value, nullptr);
    else if (Flag == "--trace")
      Traced = std::atoi(Value);
    else if (Flag == "--dir")
      Dir = Value;
    else
      return usage("unknown flag " + Flag);
  }
  const WorkloadDef *W = nullptr;
  for (const WorkloadDef &D : Workloads)
    if (WorkloadName == D.Name)
      W = &D;
  if (!W)
    return usage("unknown or missing --workload");
  if (!(Seconds > 0) || (Traced != 0 && Traced != 1) || Dir.empty())
    return usage("needs --seconds > 0, --trace 0 or 1, and --dir");

  std::vector<Input> Inputs;
  std::string Wrong;
  if (std::string Err = makeInputs(*W, Seed, Dir, Inputs, Wrong);
      !Err.empty()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", Err.c_str());
    return 1;
  }

  // serve: the server every request talks to, started once, untimed.
  const std::string SocketPath = Dir + "/serve.sock";
  std::unique_ptr<RaceServer> Server;
  if (W->K == Kind::Serve) {
    Server = std::make_unique<RaceServer>(serverConfig(SocketPath));
    if (Status S = Server->start(); !S.ok()) {
      std::fprintf(stderr, "perfbench: server start failed: %s\n",
                   S.str().c_str());
      return 1;
    }
  }

  // One untimed request per input fills caches and the server's pool;
  // its failures still count.
  const LoopResult Warm = closedLoop(*W, Inputs, SocketPath, 0,
                                     W->Inputs / W->Clients, false);
  // The run is cut into slices with timed set-ups between them, so
  // setup_s samples the host across the whole run, as latency does.
  LoopResult L;
  std::vector<double> SetupSeconds;
  for (unsigned Slice = 0; Slice < Slices; ++Slice) {
    // Sessions the last slice finished may still be tearing down (the
    // server's do so in the background); wait so that work is not charged
    // to set-up.
    std::this_thread::sleep_for(std::chrono::milliseconds(SettleMs));
    for (unsigned R = 0; R < SetupsPerSlice; ++R) {
      std::unique_ptr<RaceServer> Fresh; // Stopped after timing.
      const Clock::time_point T0 = Clock::now();
      std::string Err = setUpOnce(*W, Dir + "/setup.sock", Fresh);
      SetupSeconds.push_back(msBetween(T0, Clock::now()) / 1e3);
      if (!Err.empty()) {
        std::fprintf(stderr, "perfbench: set-up failed: %s\n", Err.c_str());
        return 1;
      }
    }
    L.add(closedLoop(*W, Inputs, SocketPath, Seconds / Slices, 1,
                     Traced == 1));
  }
  const uint64_t Attempted = Warm.Attempted + L.Attempted;
  const uint64_t Failed = Warm.Failed + L.Failed;
  if (Wrong.empty())
    Wrong = !Warm.FirstError.empty() ? Warm.FirstError : L.FirstError;
  if (L.LatencyMs.empty()) {
    std::fprintf(stderr, "perfbench: no request succeeded: %s\n",
                 Wrong.c_str());
    return 1;
  }

  std::vector<Metric> Out;
  if (!Traced) {
    Out.push_back({"latency_p50_ms", median(L.LatencyMs), "ms"});
    Out.push_back({"latency_p90_ms", quantile(L.LatencyMs, 0.9), "ms"});
    Out.push_back({"throughput_mev_s",
                   static_cast<double>(L.Events) / L.WallSeconds / 1e6,
                   "Mev/s"});
    Out.push_back({"setup_s", median(SetupSeconds), "s"});
  } else {
    Samples S = L.Layers;
    std::string Err = extraLayers(*W, Inputs, S);
    if (Wrong.empty())
      Wrong = Err;
    for (const auto &[Name, Values] : S)
      Out.push_back({Name, median(Values), layerUnit(Name)});
  }
  Server.reset();

  if (!Wrong.empty())
    std::fprintf(stderr, "perfbench: wrong output: %s\n", Wrong.c_str());
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %llu requests (%llu failed) in "
               "%.3f s\n",
               W->Name, static_cast<unsigned long long>(Seed),
               static_cast<unsigned long long>(L.Attempted),
               static_cast<unsigned long long>(L.Failed), L.WallSeconds);
  printResult(Wrong.empty() && Failed == 0, Attempted, Failed, Out);
  return 0;
}
