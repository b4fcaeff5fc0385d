//===- tests/pipeline_test.cpp - Multi-lane runs, chunked reader, pool ------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// The multi-lane contract is *determinism*: analyzeTrace runs fanning one
// trace out to several detector lanes must be bit-for-bit identical (same
// race pairs, same witness indices, in the same order) to the sequential
// single-detector runs they replace — across run modes, thread counts,
// shard counts, window sizes and scheduling. These tests pin that contract
// on the paper figures and on randomized traces against runDetector and
// the classic windowed loop, and cover the streaming chunked reader
// against the one-shot loader byte for byte.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "api/AnalysisSession.h"
#include "gen/PaperTraces.h"
#include "gen/RandomTraceGen.h"
#include "gen/Workloads.h"
#include "hb/FastTrackDetector.h"
#include "hb/HbDetector.h"
#include "io/BinaryFormat.h"
#include "io/TraceFile.h"
#include "lockset/EraserDetector.h"
#include "pipeline/ChunkedReader.h"
#include "support/ThreadPool.h"
#include "wcp/WcpDetector.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>

using namespace rapid;

namespace {

// The standard four-lane fan-out: every streaming detector in the repo.
struct NamedFactory {
  const char *Name;
  DetectorFactory Make;
};

std::vector<NamedFactory> allLanes() {
  return {
      {"HB", [](const Trace &T) { return std::make_unique<HbDetector>(T); }},
      {"WCP", [](const Trace &T) { return std::make_unique<WcpDetector>(T); }},
      {"FastTrack",
       [](const Trace &T) { return std::make_unique<FastTrackDetector>(T); }},
      {"Eraser",
       [](const Trace &T) { return std::make_unique<EraserDetector>(T); }},
  };
}

AnalysisConfig allLanesConfig(RunMode Mode, unsigned Threads) {
  AnalysisConfig Cfg;
  Cfg.Mode = Mode;
  Cfg.Threads = Threads;
  for (NamedFactory &F : allLanes())
    Cfg.addDetector(F.Make, F.Name);
  return Cfg;
}

using testutil::expectSameReport;

void expectLanesMatchSequential(const Trace &T, const AnalysisConfig &Cfg,
                                const std::string &Label) {
  AnalysisResult R = analyzeTrace(Cfg, T);
  ASSERT_TRUE(R.ok()) << Label << ": " << R.firstError().str();
  std::vector<NamedFactory> Lanes = allLanes();
  ASSERT_EQ(R.Lanes.size(), Lanes.size());
  for (size_t L = 0; L != Lanes.size(); ++L) {
    std::unique_ptr<Detector> D = Lanes[L].Make(T);
    RunResult Want = runDetector(*D, T);
    expectSameReport(R.Lanes[L].Report, Want.Report, T,
                     Label + "/" + Lanes[L].Name);
  }
}

void expectSameTrace(const Trace &A, const Trace &B) {
  ASSERT_EQ(A.size(), B.size());
  ASSERT_EQ(A.numThreads(), B.numThreads());
  ASSERT_EQ(A.numLocks(), B.numLocks());
  ASSERT_EQ(A.numVars(), B.numVars());
  ASSERT_EQ(A.numLocs(), B.numLocs());
  for (EventIdx I = 0; I != A.size(); ++I) {
    const Event &X = A.event(I);
    const Event &Y = B.event(I);
    ASSERT_EQ(static_cast<int>(X.Kind), static_cast<int>(Y.Kind)) << I;
    ASSERT_TRUE(X.Thread == Y.Thread) << I;
    ASSERT_EQ(X.Target, Y.Target) << I;
    ASSERT_TRUE(X.Loc == Y.Loc) << I;
  }
  for (uint32_t I = 0; I != A.numThreads(); ++I)
    ASSERT_EQ(A.threadName(ThreadId(I)), B.threadName(ThreadId(I)));
  for (uint32_t I = 0; I != A.numLocs(); ++I)
    ASSERT_EQ(A.locName(LocId(I)), B.locName(LocId(I)));
}

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "rapidpp_" + Name;
}

Trace mediumRandomTrace(uint64_t Seed) {
  RandomTraceParams Params;
  Params.Seed = Seed;
  Params.NumThreads = 2 + Seed % 4;
  Params.NumLocks = 2 + Seed % 3;
  Params.OpsPerThread = 60;
  Params.WithForkJoin = Seed % 2 == 0;
  return randomTrace(Params);
}

} // namespace

// ---- Multi-detector fan-out -------------------------------------------------

TEST(PipelineTest, UnshardedParallelMatchesSequentialOnPaperTraces) {
  for (const PaperTrace &P : allPaperTraces())
    expectLanesMatchSequential(P.T, allLanesConfig(RunMode::Sequential, 4),
                               P.Name);
}

class PipelineRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineRandomTest, UnshardedParallelMatchesSequential) {
  Trace T = mediumRandomTrace(GetParam());
  expectLanesMatchSequential(T, allLanesConfig(RunMode::Sequential, 4),
                             "random seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Random, PipelineRandomTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(PipelineTest, ThreadCountDoesNotChangeResults) {
  // Only the pool-backed modes have a thread count to vary: window tasks
  // and shard drains land on different workers in a different order, and
  // the merged reports must not notice.
  Trace T = makeWorkload(workloadSpec("account"));
  for (RunMode Mode : {RunMode::Windowed, RunMode::VarSharded}) {
    auto configFor = [Mode](unsigned Threads) {
      AnalysisConfig Cfg = allLanesConfig(Mode, Threads);
      if (Mode == RunMode::Windowed)
        Cfg.WindowEvents = 256;
      else
        Cfg.VarShards = 4;
      return Cfg;
    };
    AnalysisResult RefRun = analyzeTrace(configFor(1), T);
    ASSERT_TRUE(RefRun.ok()) << RefRun.firstError().str();
    for (unsigned N : {2u, 4u, 8u}) {
      AnalysisResult R = analyzeTrace(configFor(N), T);
      ASSERT_TRUE(R.ok()) << R.firstError().str();
      ASSERT_EQ(R.Lanes.size(), RefRun.Lanes.size());
      for (size_t L = 0; L != R.Lanes.size(); ++L)
        expectSameReport(R.Lanes[L].Report, RefRun.Lanes[L].Report, T,
                         std::string(runModeName(Mode)) +
                             " threads=" + std::to_string(N));
    }
  }
}

TEST(PipelineTest, VarShardedLanesMatchSequentialForAnyShardAndThreadCount) {
  // The per-variable sharded lane mode must be invisible in the results:
  // capture-capable lanes (HB, WCP) go through the clock pass + shard
  // check + merge machinery, the rest (FastTrack, Eraser) fall back to a
  // sequential walk, and every lane's report stays
  // bit-identical to runDetector for any shard or thread count.
  for (uint64_t Seed : {4u, 9u}) {
    Trace T = mediumRandomTrace(Seed);
    for (uint32_t Shards : {1u, 3u, 8u}) {
      for (unsigned Threads : {1u, 4u}) {
        AnalysisConfig Cfg = allLanesConfig(RunMode::VarSharded, Threads);
        Cfg.VarShards = Shards;
        AnalysisResult R = analyzeTrace(Cfg, T);
        EXPECT_EQ(R.VarShards, Shards);
        std::vector<NamedFactory> Lanes = allLanes();
        ASSERT_EQ(R.Lanes.size(), Lanes.size());
        for (size_t L = 0; L != Lanes.size(); ++L) {
          EXPECT_TRUE(R.Lanes[L].LaneStatus.ok())
              << R.Lanes[L].LaneStatus.str();
          std::unique_ptr<Detector> D = Lanes[L].Make(T);
          RunResult Want = runDetector(*D, T);
          expectSameReport(R.Lanes[L].Report, Want.Report, T,
                           "varshards=" + std::to_string(Shards) +
                               " threads=" + std::to_string(Threads) + "/" +
                               Lanes[L].Name);
        }
      }
    }
  }
}

// ---- Windowed mode ----------------------------------------------------------

TEST(PipelineTest, ShardedParallelMatchesWindowedReference) {
  // Reference: the classic sequential windowed loop — fresh detector per
  // window, indices translated to the parent trace, merged in window
  // order. The windowed mode on a 4-worker pool must reproduce it exactly.
  Trace T = makeWorkload(workloadSpec("bufwriter"), 0.05);
  for (uint64_t W : {64u, 500u, 4096u}) {
    for (NamedFactory &F : allLanes()) {
      RaceReport Want = testutil::windowedReference(F.Make, T, W);
      AnalysisConfig Cfg;
      Cfg.Mode = RunMode::Windowed;
      Cfg.WindowEvents = W;
      Cfg.Threads = 4;
      Cfg.addDetector(F.Make);
      AnalysisResult R = analyzeTrace(Cfg, T);
      ASSERT_EQ(R.Lanes.size(), 1u);
      EXPECT_EQ(R.Lanes[0].DetectorName,
                std::string(F.Name) + "[w=" + std::to_string(W) + "]");
      expectSameReport(R.Lanes[0].Report, Want, T,
                       std::string(F.Name) + " w=" + std::to_string(W));
    }
  }
}

// ---- Streaming ingestion ----------------------------------------------------

TEST(ChunkedReaderTest, TextMatchesWholeFileLoad) {
  Trace T = mediumRandomTrace(7);
  std::string Path = tempPath("chunk.txt");
  ASSERT_EQ(saveTraceFile(T, Path), "");
  TraceLoadResult Whole = loadTraceFile(Path);
  ASSERT_TRUE(Whole.Ok) << Whole.Error;
  // Deliberately hostile chunk sizes: 7-byte reads split every line.
  ChunkedReaderOptions Opts;
  Opts.ChunkBytes = 7;
  Opts.MaxEventsPerChunk = 3;
  TraceLoadResult Chunked = loadTraceFileChunked(Path, Opts);
  ASSERT_TRUE(Chunked.Ok) << Chunked.Error;
  expectSameTrace(Chunked.T, Whole.T);
  std::remove(Path.c_str());
}

TEST(ChunkedReaderTest, BinaryMatchesWholeFileLoadCaseInsensitive) {
  Trace T = mediumRandomTrace(11);
  // Upper-case extension must still select the binary codec (both when
  // saving and when loading), per the case-insensitive dispatch fix.
  std::string Path = tempPath("chunk.BIN");
  ASSERT_EQ(saveTraceFile(T, Path), "");
  TraceLoadResult Whole = loadTraceFile(Path);
  ASSERT_TRUE(Whole.Ok) << Whole.Error;
  ChunkedReaderOptions Opts;
  Opts.ChunkBytes = 5; // Smaller than one 13-byte event record.
  Opts.MaxEventsPerChunk = 4;
  TraceLoadResult Chunked = loadTraceFileChunked(Path, Opts);
  ASSERT_TRUE(Chunked.Ok) << Chunked.Error;
  expectSameTrace(Chunked.T, Whole.T);
  std::remove(Path.c_str());
}

TEST(ChunkedReaderTest, DeliversBoundedBatches) {
  Trace T = mediumRandomTrace(3);
  std::string Path = tempPath("batches.bin");
  ASSERT_EQ(saveTraceFile(T, Path), "");
  ChunkedReaderOptions Opts;
  Opts.MaxEventsPerChunk = 10;
  ChunkedTraceReader Reader(Path, Opts);
  uint64_t Calls = 0;
  while (!Reader.done()) {
    uint64_t Got = Reader.nextChunk();
    EXPECT_LE(Got, 10u);
    Calls += Got > 0;
  }
  ASSERT_TRUE(Reader.ok()) << Reader.error();
  EXPECT_EQ(Reader.eventsDelivered(), T.size());
  EXPECT_GE(Calls, T.size() / 10);
  expectSameTrace(Reader.take(), T);
  std::remove(Path.c_str());
}

TEST(ChunkedReaderTest, MissingFileSurfacesErrnoText) {
  TraceLoadResult R = loadTraceFileChunked("/nonexistent/dir/trace.txt");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("cannot open"), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("No such file"), std::string::npos) << R.Error;
  // The one-shot loader reports the same way.
  TraceLoadResult R2 = loadTraceFile("/nonexistent/dir/trace.txt");
  EXPECT_FALSE(R2.Ok);
  EXPECT_NE(R2.Error.find("No such file"), std::string::npos) << R2.Error;
}

TEST(ChunkedReaderTest, CorruptHugeEventCountFailsGracefully) {
  // A crafted header declaring ~2^64 events must produce a parse error,
  // not an allocation throw — in both the one-shot and chunked loaders.
  Trace T = mediumRandomTrace(1);
  std::string Bytes = writeBinaryTrace(T);
  // The u64 count sits right before the first 13-byte event record.
  size_t CountPos = Bytes.size() - T.size() * 13 - 8;
  for (size_t I = 0; I != 8; ++I)
    Bytes[CountPos + I] = static_cast<char>(0xFF);
  BinaryParseResult R = parseBinaryTrace(Bytes);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("truncated"), std::string::npos) << R.Error;

  std::string Path = tempPath("huge.bin");
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fwrite(Bytes.data(), 1, Bytes.size(), F);
  std::fclose(F);
  TraceLoadResult Chunked = loadTraceFileChunked(Path);
  EXPECT_FALSE(Chunked.Ok);
  EXPECT_NE(Chunked.Error.find("truncated"), std::string::npos)
      << Chunked.Error;
  std::remove(Path.c_str());
}

TEST(ChunkedReaderTest, MalformedLineReportsLineNumber) {
  std::string Path = tempPath("bad.txt");
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fputs("T0|w(x)|L1\n# comment\nT1|frobnicate(x)|L2\n", F);
  std::fclose(F);
  TraceLoadResult R = loadTraceFileChunked(Path, {16, 2});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("line 3"), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("frobnicate"), std::string::npos) << R.Error;
  std::remove(Path.c_str());
}

TEST(ChunkedReaderTest, EmptyBinFileMatchesOneShotLoaderError) {
  std::string Path = tempPath("empty.bin");
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fclose(F);
  TraceLoadResult Whole = loadTraceFile(Path);
  TraceLoadResult Chunked = loadTraceFileChunked(Path);
  EXPECT_FALSE(Whole.Ok);
  EXPECT_FALSE(Chunked.Ok);
  EXPECT_EQ(Whole.Error, Chunked.Error);
  EXPECT_NE(Chunked.Error.find("bad magic"), std::string::npos)
      << Chunked.Error;
  std::remove(Path.c_str());
}

// ---- Thread pool ------------------------------------------------------------

TEST(ThreadPoolTest, ExecutesEveryTaskIncludingNestedSubmits) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.numThreads(), 4u);
  std::atomic<int> Count{0};
  for (int I = 0; I != 100; ++I)
    Pool.submit([&Count] { ++Count; });
  // Tasks may fan out further tasks; wait() must cover those too.
  Pool.submit([&Pool, &Count] {
    for (int I = 0; I != 50; ++I)
      Pool.submit([&Count] { ++Count; });
  });
  Pool.wait();
  EXPECT_EQ(Count.load(), 150);
  EXPECT_EQ(Pool.tasksExecuted(), 151u);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossBatches) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  for (int Batch = 0; Batch != 3; ++Batch) {
    for (int I = 0; I != 20; ++I)
      Pool.submit([&Count] { ++Count; });
    Pool.wait();
    EXPECT_EQ(Count.load(), (Batch + 1) * 20);
  }
  EXPECT_LE(Pool.tasksStolen(), Pool.tasksExecuted());
}

TEST(ThreadPoolTest, DefaultConcurrencyIsPositive) {
  EXPECT_GE(ThreadPool::defaultConcurrency(), 1u);
  ThreadPool Pool; // Default-sized pool constructs and drains cleanly.
  Pool.submit([] {});
  Pool.wait();
}
