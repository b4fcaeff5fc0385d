//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#ifndef RAPID_TESTS_TESTUTIL_H
#define RAPID_TESTS_TESTUTIL_H

#include "api/AnalysisSession.h"
#include "detect/DetectorRunner.h"
#include "pipeline/ChunkedReader.h"
#include "support/Timer.h"
#include "trace/Trace.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceValidator.h"
#include "vc/VectorClock.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace rapid::testutil {

/// Finalizes \p B's trace after streaming it through the exact §2.1-axiom
/// gate session ingestion applies (StreamingTraceValidator) — a test trace
/// the validator would reject never reaches a detector in production, so
/// it should not reach one in a test either. Fails the current test on
/// violation (and still returns the trace so the failure is attributed to
/// the builder, not a crash downstream). Negative tests that deliberately
/// need ill-formed input keep calling TraceBuilder::take() directly.
inline Trace takeValid(TraceBuilder &B, bool RequireClosedSections = false) {
  Trace T = B.take();
  StreamingTraceValidator V;
  for (EventIdx I = 0; I != T.size(); ++I)
    V.feed(T.event(I), I, T);
  V.finish(T, RequireClosedSections);
  EXPECT_TRUE(V.ok()) << "test trace violates the trace axioms:\n"
                      << V.result().str();
  return T;
}

/// Loads the whole file at \p Path by running the one file loader, a
/// ChunkedTraceReader, to done(). Returns the reader's status; on success
/// \p Out holds the trace.
inline Status readTraceFile(const std::string &Path, Trace &Out,
                            ChunkedReaderOptions Opts = {}) {
  ChunkedTraceReader Reader(Path, Opts);
  while (!Reader.done())
    Reader.nextChunk();
  if (Reader.ok())
    Out = Reader.take();
  return Reader.status();
}

/// The raw bytes of the file at \p Path (empty if it cannot be read):
/// the input for the in-memory decoders parseTextTrace/parseBinaryTrace,
/// which serve as the reference the reader is compared against.
inline std::string fileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Bytes;
  Bytes << In.rdbuf();
  return Bytes.str();
}

/// Bit-for-bit report equality — the determinism contract every parallel
/// mode is held to: same distinct pairs, same instance count, the same
/// witness event pairs in the same discovery order, same distances.
/// Shared by the pipeline and differential suites so "bit-identical"
/// means one thing.
inline void expectSameReport(const RaceReport &Got, const RaceReport &Want,
                             const Trace &T, const std::string &Label) {
  EXPECT_EQ(Got.numDistinctPairs(), Want.numDistinctPairs()) << Label;
  EXPECT_EQ(Got.numInstances(), Want.numInstances()) << Label;
  ASSERT_EQ(Got.instances().size(), Want.instances().size()) << Label;
  for (size_t I = 0; I != Want.instances().size(); ++I) {
    const RaceInstance &G = Got.instances()[I];
    const RaceInstance &W = Want.instances()[I];
    std::string Where = Label + " #" + std::to_string(I) + ": got " +
                        G.str(T) + ", want " + W.str(T);
    EXPECT_EQ(G.EarlierIdx, W.EarlierIdx) << Where;
    EXPECT_EQ(G.LaterIdx, W.LaterIdx) << Where;
    EXPECT_TRUE(G.EarlierLoc == W.EarlierLoc) << Where;
    EXPECT_TRUE(G.LaterLoc == W.LaterLoc) << Where;
    EXPECT_TRUE(G.Var == W.Var) << Where;
    EXPECT_EQ(Got.pairDistance(W.pair()), Want.pairDistance(W.pair()))
        << Label << " #" << I;
  }
}

/// Runs detector type \p D over \p T and returns its report.
template <typename D> RaceReport run(const Trace &T) {
  D Detector(T);
  return runDetector(Detector, T).Report;
}

/// Names of variables involved in any reported race.
template <typename ReportT>
std::set<std::string> racyVars(const ReportT &Report, const Trace &T) {
  std::set<std::string> Out;
  for (const RaceInstance &I : Report.instances())
    Out.insert(T.varName(I.Var));
  return Out;
}

/// Runs a streaming detector event-by-event, capturing the post-event
/// C-timestamp of each event's thread (used by the Theorem 2 tests).
template <typename D>
std::vector<VectorClock> captureTimestamps(const Trace &T) {
  D Detector(T);
  std::vector<VectorClock> Times;
  Times.reserve(T.size());
  for (EventIdx I = 0; I != T.size(); ++I) {
    Detector.processEvent(T.event(I), I);
    Times.emplace_back();
    Detector.currentC(T.event(I).Thread, Times.back());
  }
  return Times;
}

/// Median walls, in seconds, of \p A and of \p B over \p Pairs runs of
/// each, interleaved with the order alternating (A B, B A, ...) so that
/// drift in the host's speed lands on both sides.
inline std::pair<double, double> medianWalls(int Pairs,
                                             const std::function<void()> &A,
                                             const std::function<void()> &B) {
  std::vector<double> Walls[2];
  for (int I = 0; I != Pairs; ++I)
    for (int Side : {I % 2, 1 - I % 2}) {
      Timer Clock;
      (Side == 0 ? A : B)();
      Walls[Side].push_back(Clock.seconds());
    }
  auto Median = [](std::vector<double> &W) {
    std::nth_element(W.begin(), W.begin() + W.size() / 2, W.end());
    return W[W.size() / 2];
  };
  return {Median(Walls[0]), Median(Walls[1])};
}

/// Whether wall-clock budgets bind in this build: only optimized,
/// uninstrumented builds measure what the budgets are about.
inline bool timingBudgetsApply() {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) ||                     \
    defined(__SANITIZE_THREAD__)
  return false;
#else
  return true;
#endif
}

} // namespace rapid::testutil

#endif // RAPID_TESTS_TESTUTIL_H
