//===- tests/pipeline_test.cpp - Multi-lane runs, chunked reader, pool ------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// The multi-lane contract is *determinism*: analyzeTrace runs fanning one
// trace out to several detector lanes must be bit-for-bit identical (same
// race pairs, same witness indices, in the same order) to the sequential
// single-detector runs they replace — across run modes, thread counts,
// shard counts and scheduling. These tests pin that contract on the paper
// figures and on randomized traces against runDetector, and cover the
// streaming chunked reader against the in-memory decoders byte for byte.
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
#include "io/TextFormat.h"
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
  for (uint32_t I = 0; I != A.numLocks(); ++I)
    ASSERT_EQ(A.lockName(LockId(I)), B.lockName(LockId(I)));
  for (uint32_t I = 0; I != A.numVars(); ++I)
    ASSERT_EQ(A.varName(VarId(I)), B.varName(VarId(I)));
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
  // Only the pool-backed mode has a thread count to vary: shard drains
  // land on different workers in a different order, and the merged
  // reports must not notice.
  Trace T = makeWorkload(workloadSpec("account"));
  auto configFor = [](unsigned Threads) {
    AnalysisConfig Cfg = allLanesConfig(RunMode::VarSharded, Threads);
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
                       "var-sharded threads=" + std::to_string(N));
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

// ---- Streaming ingestion ----------------------------------------------------

TEST(ChunkedReaderTest, TextMatchesInMemoryDecoder) {
  Trace T = mediumRandomTrace(7);
  std::string Path = tempPath("chunk.txt");
  ASSERT_EQ(saveTraceFile(T, Path), "");
  TextParseResult Whole = parseTextTrace(testutil::fileBytes(Path));
  ASSERT_TRUE(Whole.Ok) << Whole.Error;
  // Deliberately hostile chunk sizes: 7-byte reads split every line.
  ChunkedReaderOptions Opts;
  Opts.ChunkBytes = 7;
  Opts.MaxEventsPerChunk = 3;
  Trace Chunked;
  Status St = testutil::readTraceFile(Path, Chunked, Opts);
  ASSERT_TRUE(St.ok()) << St.str();
  expectSameTrace(Chunked, Whole.T);
  std::remove(Path.c_str());
}

TEST(ChunkedReaderTest, BinaryMatchesInMemoryDecoderCaseInsensitive) {
  Trace T = mediumRandomTrace(11);
  // Upper-case extension must still select the binary codec (both when
  // saving and when loading), per the case-insensitive dispatch fix.
  std::string Path = tempPath("chunk.BIN");
  ASSERT_EQ(saveTraceFile(T, Path), "");
  BinaryParseResult Whole = parseBinaryTrace(testutil::fileBytes(Path));
  ASSERT_TRUE(Whole.Ok) << Whole.Error;
  ChunkedReaderOptions Opts;
  Opts.ChunkBytes = 5; // Smaller than one 13-byte event record.
  Opts.MaxEventsPerChunk = 4;
  Trace Chunked;
  Status St = testutil::readTraceFile(Path, Chunked, Opts);
  ASSERT_TRUE(St.ok()) << St.str();
  expectSameTrace(Chunked, Whole.T);
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
  ASSERT_TRUE(Reader.ok()) << Reader.status().str();
  EXPECT_EQ(Reader.eventsDelivered(), T.size());
  EXPECT_GE(Calls, T.size() / 10);
  expectSameTrace(Reader.take(), T);
  std::remove(Path.c_str());
}

TEST(ChunkedReaderTest, MissingFileSurfacesErrnoText) {
  Trace T;
  Status St = testutil::readTraceFile("/nonexistent/dir/trace.txt", T);
  EXPECT_EQ(St.Code, StatusCode::IoError) << St.str();
  EXPECT_NE(St.Message.find("cannot open"), std::string::npos) << St.str();
  EXPECT_NE(St.Message.find("No such file"), std::string::npos) << St.str();
}

TEST(ChunkedReaderTest, CorruptHugeEventCountFailsGracefully) {
  // A crafted header declaring ~2^64 events must produce a parse error,
  // not an allocation throw — in both the in-memory decoder and the file
  // reader.
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
  Trace Chunked;
  Status St = testutil::readTraceFile(Path, Chunked);
  EXPECT_EQ(St.Code, StatusCode::ParseError) << St.str();
  EXPECT_NE(St.Message.find("truncated"), std::string::npos) << St.str();
  std::remove(Path.c_str());
}

TEST(ChunkedReaderTest, MalformedLineReportsLineNumber) {
  std::string Path = tempPath("bad.txt");
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fputs("T0|w(x)|L1\n# comment\nT1|frobnicate(x)|L2\n", F);
  std::fclose(F);
  Trace T;
  Status St = testutil::readTraceFile(Path, T, {16, 2});
  EXPECT_EQ(St.Code, StatusCode::ParseError) << St.str();
  EXPECT_NE(St.Message.find("line 3"), std::string::npos) << St.str();
  EXPECT_NE(St.Message.find("frobnicate"), std::string::npos) << St.str();
  std::remove(Path.c_str());
}

TEST(ChunkedReaderTest, EmptyBinFileMatchesInMemoryDecoderError) {
  std::string Path = tempPath("empty.bin");
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fclose(F);
  BinaryParseResult Whole = parseBinaryTrace(testutil::fileBytes(Path));
  Trace T;
  Status Chunked = testutil::readTraceFile(Path, T);
  EXPECT_FALSE(Whole.Ok);
  EXPECT_EQ(Chunked.Code, StatusCode::ParseError) << Chunked.str();
  EXPECT_EQ(Whole.Error, Chunked.Message);
  EXPECT_NE(Chunked.Message.find("bad magic"), std::string::npos)
      << Chunked.str();
  std::remove(Path.c_str());
}

// ---- Parallel text slices ---------------------------------------------------
//
// Text files longer than one ChunkedTraceReader::kTextSliceBytes slice are
// decoded slice by slice into local name tables and merged in file order.
// Each case below compares the reader, on both backends, with the
// line-by-line parseTextTrace of the same bytes.

/// Text of at least \p MinBytes whose lines mix, across slice boundaries:
/// default locations, fresh and reused explicit ones, explicit names of
/// the form "L<k>" that collide with default ones (before and after the
/// default is minted), comments, blank and CRLF lines, forks and joins
/// that introduce threads (child and parent both new, in some), and
/// locks and variables first named late. The
/// last line is unterminated. \p BadAtByte > 0 puts one malformed line at
/// the first line start at or past that offset; \p EventsBefore receives
/// the number of event lines before it.
std::string sliceText(size_t MinBytes, size_t BadAtByte = 0,
                      uint64_t *EventsBefore = nullptr) {
  std::string Text;
  uint64_t Events = 0;
  uint32_t NextChild = 1;
  bool BadDone = false;
  for (uint64_t I = 0; Text.size() < MinBytes; ++I) {
    if (BadAtByte != 0 && !BadDone && Text.size() >= BadAtByte) {
      Text += "T1|frobnicate(x3)|site\n";
      if (EventsBefore)
        *EventsBefore = Events;
      BadDone = true;
    }
    if (I % 53 == 0) {
      Text += "# comment " + std::to_string(I) + "\n";
      continue;
    }
    if (I % 41 == 0) {
      Text += I % 2 ? "\n" : "   \r\n";
      continue;
    }
    std::string Thread = "T" + std::to_string(I % NextChild);
    std::string Line;
    if (I % 509 == 0) {
      // Every other fork comes from a parent seen for the first time, so
      // the child-before-parent interning order shows in the ids.
      Line = (I % 2 ? "P" + std::to_string(I) : std::string("T0")) +
             "|fork(T" + std::to_string(NextChild++) + ")";
    } else if (I % 997 == 0 && NextChild > 2) {
      Line = "T0|join(T" + std::to_string(NextChild - 1) + ")|J" +
             std::to_string(I);
    } else if (I % 7 == 0) {
      Line = Thread + "|acq(m" + std::to_string(I / 2000) + ")";
    } else if (I % 7 == 1) {
      Line = Thread + "|rel(m" + std::to_string((I - 1) / 2000) + ")|rl";
    } else {
      Line = Thread + (I % 3 ? "|w(x" : "|r(x") + std::to_string(I % 301) +
             ")";
      switch (I % 6) {
      case 0:
        Line += "|site" + std::to_string(I); // Fresh explicit name.
        break;
      case 1:
        Line += "|hot" + std::to_string(I % 11); // Reused explicit name.
        break;
      case 2: // Names the default location of an event three ahead...
        Line += "|L" + std::to_string(Events + 3);
        break;
      case 3: // ... and of one already minted.
        Line += "|L" + std::to_string(Events > 5 ? Events - 5 : 0);
        break;
      default:
        break; // Default location.
      }
    }
    Text += Line;
    Text += I % 13 == 0 ? "\r\n" : "\n";
    ++Events;
  }
  Text += "T1|r(xlast)"; // Unterminated final line.
  return Text;
}

void writeBytes(const std::string &Path, const std::string &Bytes) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fwrite(Bytes.data(), 1, Bytes.size(), F);
  std::fclose(F);
}

TEST(ChunkedReaderTest, ParallelSlicesMatchInMemoryDecoder) {
  const size_t Slices = 6;
  std::string Text = sliceText(Slices * ChunkedTraceReader::kTextSliceBytes);
  TextParseResult Whole = parseTextTrace(Text);
  ASSERT_TRUE(Whole.Ok) << Whole.Error;
  std::string Path = tempPath("slices.txt");
  writeBytes(Path, Text);
  for (bool UseMmap : {true, false}) {
    for (uint64_t MaxEvents : {uint64_t(64 * 1024), uint64_t(1000)}) {
      SCOPED_TRACE("mmap=" + std::to_string(UseMmap) +
                   " batch=" + std::to_string(MaxEvents));
      ChunkedReaderOptions Opts;
      Opts.UseMmap = UseMmap;
      Opts.MaxEventsPerChunk = MaxEvents;
      ChunkedTraceReader Reader(Path, Opts);
      EXPECT_EQ(Reader.mapped(), UseMmap);
      uint64_t Batches = 0;
      while (!Reader.done()) {
        uint64_t Got = Reader.nextChunk();
        EXPECT_LE(Got, MaxEvents);
        Batches += Got > 0;
      }
      ASSERT_TRUE(Reader.ok()) << Reader.status().str();
      // One batch per slice at least: the merge never joins two slices.
      EXPECT_GE(Batches, Slices);
      EXPECT_EQ(Reader.eventsDelivered(), Whole.T.size());
      expectSameTrace(Reader.take(), Whole.T);
    }
  }
  std::remove(Path.c_str());
}

TEST(ChunkedReaderTest, ParseErrorInLateSliceMatchesInMemoryDecoder) {
  const size_t Slice = ChunkedTraceReader::kTextSliceBytes;
  uint64_t Before = 0;
  std::string Text = sliceText(6 * Slice, 4 * Slice + Slice / 2, &Before);
  TextParseResult Whole = parseTextTrace(Text);
  ASSERT_FALSE(Whole.Ok);
  ASSERT_NE(Whole.Error.find("frobnicate"), std::string::npos);
  // The delivered prefix is what a parse of the bytes before the bad line
  // gives.
  size_t BadLine = Text.find("T1|frobnicate");
  TextParseResult Prefix = parseTextTrace(Text.substr(0, BadLine));
  ASSERT_TRUE(Prefix.Ok) << Prefix.Error;
  ASSERT_EQ(Prefix.T.size(), Before);
  std::string Path = tempPath("slices_bad.txt");
  writeBytes(Path, Text);
  for (bool UseMmap : {true, false}) {
    SCOPED_TRACE("mmap=" + std::to_string(UseMmap));
    ChunkedReaderOptions Opts;
    Opts.UseMmap = UseMmap;
    ChunkedTraceReader Reader(Path, Opts);
    while (!Reader.done())
      Reader.nextChunk();
    EXPECT_EQ(Reader.status().Code, StatusCode::ParseError);
    EXPECT_EQ(Reader.status().Message, Whole.Error);
    EXPECT_EQ(Reader.eventsDelivered(), Before);
    expectSameTrace(Reader.take(), Prefix.T);
  }
  std::remove(Path.c_str());
}

TEST(ChunkedReaderTest, SessionPublishesTextPerSliceAndBinaryPer64k) {
  // Past one 64k-event binary chunk, and many text slices long.
  WorkloadSpec Spec = workloadSpec("eclipse");
  Trace T = makeWorkload(Spec, 80000.0 / static_cast<double>(Spec.Events));
  ASSERT_GT(T.size(), 64u * 1024);
  auto Batches = [](const std::string &Path) -> uint64_t {
    AnalysisConfig Cfg;
    Cfg.addDetector(DetectorKind::Hb);
    AnalysisSession S(Cfg);
    Status St = S.feedFile(Path);
    EXPECT_TRUE(St.ok()) << Path << ": " << St.str();
    AnalysisResult R = S.finish();
    EXPECT_TRUE(R.ok()) << R.firstError().str();
    for (const MetricSample &M : R.Telemetry)
      if (M.Name == "publish.batches")
        return M.Value;
    ADD_FAILURE() << "no publish.batches";
    return 0;
  };
  std::string Text = tempPath("publish_slices.txt");
  std::string Bin = tempPath("publish_slices.bin");
  ASSERT_EQ(saveTraceFile(T, Text), "");
  ASSERT_EQ(saveTraceFile(T, Bin), "");
  uint64_t TextBytes = testutil::fileBytes(Text).size();
  ASSERT_GE(TextBytes, 3 * ChunkedTraceReader::kTextSliceBytes);
  EXPECT_GE(Batches(Text), TextBytes / ChunkedTraceReader::kTextSliceBytes);
  EXPECT_EQ(Batches(Bin), (T.size() + 64 * 1024 - 1) / (64 * 1024));
  std::remove(Text.c_str());
  std::remove(Bin.c_str());
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
