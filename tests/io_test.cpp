//===- tests/io_test.cpp - Trace IO round trips --------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "gen/PaperTraces.h"
#include "gen/RandomTraceGen.h"
#include "io/BinaryFormat.h"
#include "io/TextFormat.h"
#include "io/TraceFile.h"
#include "pipeline/ChunkedReader.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

using namespace rapid;

static void expectSameTrace(const Trace &A, const Trace &B) {
  ASSERT_EQ(A.size(), B.size());
  for (EventIdx I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A.eventStr(I), B.eventStr(I)) << "event " << I;
  }
}

TEST(TextFormatTest, ParsesBasicLines) {
  TextParseResult R = parseTextTrace("T0|acq(l)|3\n"
                                     "T0|r(x)|4\n"
                                     "T0|rel(l)|5\n"
                                     "# comment\n"
                                     "\n"
                                     "T0|fork(T1)|6\n"
                                     "T1|w(x)|7\n"
                                     "T0|join(T1)|8\n");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.T.size(), 6u);
  EXPECT_EQ(R.T.event(0).Kind, EventKind::Acquire);
  EXPECT_EQ(R.T.event(3).Kind, EventKind::Fork);
  EXPECT_EQ(R.T.threadName(R.T.event(3).targetThread()), "T1");
  EXPECT_EQ(R.T.locName(R.T.event(1).Loc), "4");
}

TEST(TextFormatTest, LocIsOptional) {
  TextParseResult R = parseTextTrace("T0|w(x)\nT1|r(x)\n");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_NE(R.T.event(0).Loc, R.T.event(1).Loc);
}

TEST(TextFormatTest, ReportsLineNumbersOnErrors) {
  TextParseResult R = parseTextTrace("T0|w(x)|1\nT0|frobnicate(x)|2\n");
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("line 2"), std::string::npos);
  EXPECT_NE(R.Error.find("frobnicate"), std::string::npos);
}

TEST(TextFormatTest, RejectsMalformedStructure) {
  EXPECT_FALSE(parseTextTrace("just words\n").Ok);
  EXPECT_FALSE(parseTextTrace("T0|w x|1\n").Ok);
  EXPECT_FALSE(parseTextTrace("T0|w()|1\n").Ok);
  EXPECT_FALSE(parseTextTrace("|w(x)|1\n").Ok);
}

TEST(TextFormatTest, RoundTripsPaperFigures) {
  for (const PaperTrace &P : allPaperTraces()) {
    std::string Text = writeTextTrace(P.T);
    TextParseResult R = parseTextTrace(Text);
    ASSERT_TRUE(R.Ok) << P.Name << ": " << R.Error;
    expectSameTrace(P.T, R.T);
  }
}

TEST(BinaryFormatTest, RoundTripsRandomTraces) {
  for (uint64_t Seed : {1u, 5u, 9u}) {
    RandomTraceParams Params;
    Params.Seed = Seed;
    Params.WithForkJoin = Seed % 2;
    Trace T = randomTrace(Params);
    std::string Bytes = writeBinaryTrace(T);
    BinaryParseResult R = parseBinaryTrace(Bytes);
    ASSERT_TRUE(R.Ok) << R.Error;
    expectSameTrace(T, R.T);
  }
}

TEST(BinaryFormatTest, RejectsGarbage) {
  EXPECT_FALSE(parseBinaryTrace("not a trace").Ok);
  EXPECT_FALSE(parseBinaryTrace("").Ok);
}

TEST(BinaryFormatTest, RejectsTruncation) {
  Trace T = paperFig2b().T;
  std::string Bytes = writeBinaryTrace(T);
  for (size_t Cut : {Bytes.size() - 1, Bytes.size() / 2, size_t(9)}) {
    BinaryParseResult R = parseBinaryTrace(Bytes.substr(0, Cut));
    EXPECT_FALSE(R.Ok) << "cut at " << Cut;
  }
}

TEST(BinaryFormatTest, RejectsCorruptEventRecords) {
  Trace T = paperFig2b().T;
  std::string Bytes = writeBinaryTrace(T);
  // Stomp the final event's thread id with garbage.
  Bytes[Bytes.size() - 12] = static_cast<char>(0xff);
  Bytes[Bytes.size() - 11] = static_cast<char>(0xff);
  EXPECT_FALSE(parseBinaryTrace(Bytes).Ok);
}

TEST(TraceFileTest, DispatchesByExtension) {
  Trace T = paperFig1b().T;
  std::string TextPath = ::testing::TempDir() + "/io_test_trace.txt";
  std::string BinPath = ::testing::TempDir() + "/io_test_trace.bin";
  ASSERT_EQ(saveTraceFile(T, TextPath), "");
  ASSERT_EQ(saveTraceFile(T, BinPath), "");

  Trace FromText;
  Status ST = testutil::readTraceFile(TextPath, FromText);
  ASSERT_TRUE(ST.ok()) << ST.str();
  expectSameTrace(T, FromText);

  Trace FromBin;
  Status SB = testutil::readTraceFile(BinPath, FromBin);
  ASSERT_TRUE(SB.ok()) << SB.str();
  expectSameTrace(T, FromBin);
}

TEST(TraceFileTest, MissingFileReportsError) {
  Trace T;
  Status St = testutil::readTraceFile("/nonexistent/path/trace.txt", T);
  EXPECT_EQ(St.Code, StatusCode::IoError);
  EXPECT_NE(St.Message.find("cannot open"), std::string::npos) << St.str();
}

// ---- Round-trip property tests ----------------------------------------------
//
// Generated traces of varied shapes must survive every codec path: text
// and binary round-trips, the text -> binary -> text composition, and the
// chunked reader at pathological chunk sizes where every line and every
// 13-byte binary event record straddles a refill boundary.

namespace {

RandomTraceParams roundTripParams(uint64_t Seed) {
  RandomTraceParams P;
  P.Seed = Seed;
  P.NumThreads = 2 + Seed % 5;
  P.NumLocks = 1 + Seed % 4;
  P.NumVars = 1 + (Seed * 3) % 8;
  P.OpsPerThread = 15 + (Seed * 7) % 45;
  P.MaxLockNesting = 1 + Seed % 3;
  P.WithForkJoin = Seed % 2 == 1;
  return P;
}

} // namespace

TEST(RoundTripPropertyTest, TextAndBinaryCodecsComposeOverGeneratedTraces) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    Trace T = randomTrace(roundTripParams(Seed));

    TextParseResult FromText = parseTextTrace(writeTextTrace(T));
    ASSERT_TRUE(FromText.Ok) << "seed " << Seed << ": " << FromText.Error;
    expectSameTrace(T, FromText.T);

    BinaryParseResult FromBin = parseBinaryTrace(writeBinaryTrace(T));
    ASSERT_TRUE(FromBin.Ok) << "seed " << Seed << ": " << FromBin.Error;
    expectSameTrace(T, FromBin.T);

    // Cross-codec composition: text-parsed trace through the binary
    // codec and back — id tables re-interned by the text parser must
    // still produce the same events.
    BinaryParseResult Crossed =
        parseBinaryTrace(writeBinaryTrace(FromText.T));
    ASSERT_TRUE(Crossed.Ok) << "seed " << Seed << ": " << Crossed.Error;
    expectSameTrace(T, Crossed.T);

    // Idempotence of the rendered forms.
    EXPECT_EQ(writeTextTrace(T), writeTextTrace(FromBin.T)) << Seed;
    EXPECT_EQ(writeBinaryTrace(T), writeBinaryTrace(FromBin.T)) << Seed;
  }
}

TEST(RoundTripPropertyTest, ChunkedReaderSurvivesPathologicalChunkSizes) {
  Trace T = randomTrace(roundTripParams(5));
  for (const char *Ext : {".txt", ".bin"}) {
    std::string Path =
        ::testing::TempDir() + "rapidpp_roundtrip_chunks" + Ext;
    ASSERT_EQ(saveTraceFile(T, Path), "");
    // 1 byte: every text line and every binary record straddles refills;
    // 13 bytes: binary records alternate between aligned and straddling
    // (the header shifts the first record off the 13-byte grid).
    for (size_t ChunkBytes : {size_t(1), size_t(2), size_t(13)}) {
      for (uint64_t MaxEvents : {uint64_t(1), uint64_t(7)}) {
        ChunkedReaderOptions Opts;
        Opts.ChunkBytes = ChunkBytes;
        Opts.MaxEventsPerChunk = MaxEvents;
        Opts.UseMmap = false; // Pin the buffered backend's refill seams.
        Trace Got;
        Status St = testutil::readTraceFile(Path, Got, Opts);
        ASSERT_TRUE(St.ok()) << Ext << " chunk=" << ChunkBytes << ": "
                             << St.str();
        ASSERT_EQ(Got.size(), T.size())
            << Ext << " chunk=" << ChunkBytes << " batch=" << MaxEvents;
        expectSameTrace(T, Got);
      }
    }
    std::remove(Path.c_str());
  }
}

// The mmap backend (io/MappedFile) must be byte-for-byte equivalent to
// the buffered backend on regular files, for both codecs and under small
// event batches (the session's publication granularity).
TEST(RoundTripPropertyTest, MappedReaderMatchesBufferedReader) {
  for (uint64_t Seed : {uint64_t(3), uint64_t(11)}) {
    Trace T = randomTrace(roundTripParams(Seed));
    for (const char *Ext : {".txt", ".bin"}) {
      std::string Path = ::testing::TempDir() + "rapidpp_mmap_rt" + Ext;
      ASSERT_EQ(saveTraceFile(T, Path), "");
      for (uint64_t MaxEvents : {uint64_t(1), uint64_t(64 * 1024)}) {
        ChunkedReaderOptions MapOpts;
        MapOpts.MaxEventsPerChunk = MaxEvents;
        ChunkedTraceReader Mapped(Path, MapOpts);
        EXPECT_TRUE(Mapped.mapped())
            << Ext << ": regular files must select the mmap backend";
        while (!Mapped.done())
          Mapped.nextChunk();
        ASSERT_TRUE(Mapped.ok()) << Ext << ": " << Mapped.status().str();

        ChunkedReaderOptions BufOpts = MapOpts;
        BufOpts.UseMmap = false;
        Trace Buffered;
        Status St = testutil::readTraceFile(Path, Buffered, BufOpts);
        ASSERT_TRUE(St.ok()) << Ext << ": " << St.str();

        Trace FromMap = Mapped.take();
        expectSameTrace(T, FromMap);
        expectSameTrace(Buffered, FromMap);
      }
      std::remove(Path.c_str());
    }
  }
}

TEST(RoundTripPropertyTest, MappedReaderHandlesEdgeFiles) {
  // Empty file: text yields an empty trace; the mapping is a zero-length
  // view, not an error.
  std::string Empty = ::testing::TempDir() + "rapidpp_mmap_empty.txt";
  { std::FILE *F = std::fopen(Empty.c_str(), "wb"); ASSERT_NE(F, nullptr);
    std::fclose(F); }
  ChunkedTraceReader Reader(Empty);
  EXPECT_TRUE(Reader.mapped());
  while (!Reader.done())
    Reader.nextChunk();
  EXPECT_TRUE(Reader.ok()) << Reader.status().str();
  EXPECT_EQ(Reader.take().size(), 0u);
  std::remove(Empty.c_str());

  // Missing file: same structured IoError as the buffered path.
  ChunkedTraceReader Missing("/nonexistent/dir/rapidpp_mmap.bin");
  EXPECT_FALSE(Missing.ok());
  EXPECT_FALSE(Missing.mapped());
  EXPECT_EQ(Missing.status().Code, StatusCode::IoError);

  // Truncated binary: the mapped parse reports the same ParseError the
  // buffered parse does.
  Trace T = randomTrace(roundTripParams(7));
  std::string Path = ::testing::TempDir() + "rapidpp_mmap_trunc.bin";
  std::string Bytes = writeBinaryTrace(T);
  Bytes.resize(Bytes.size() - 5);
  { std::FILE *F = std::fopen(Path.c_str(), "wb"); ASSERT_NE(F, nullptr);
    std::fwrite(Bytes.data(), 1, Bytes.size(), F); std::fclose(F); }
  for (bool UseMmap : {true, false}) {
    ChunkedReaderOptions Opts;
    Opts.UseMmap = UseMmap;
    ChunkedTraceReader Trunc(Path, Opts);
    EXPECT_EQ(Trunc.mapped(), UseMmap);
    while (!Trunc.done())
      Trunc.nextChunk();
    EXPECT_FALSE(Trunc.ok());
    EXPECT_EQ(Trunc.status().Code, StatusCode::ParseError)
        << "mmap=" << UseMmap;
  }
  std::remove(Path.c_str());
}
