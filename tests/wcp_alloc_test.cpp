//===- tests/wcp_alloc_test.cpp - Heap traffic of the detector walks ---------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// Pins how often the HB and WCP walks call operator new. The binary
// replaces the global operator new/delete with counting versions, and
// the count is taken only around runDetector over traces whose tables
// are declared up front (the benchmark's trace recipe: a Table 1 model
// rescaled until it reaches an event floor). The bounds are in
// allocations per event, so they hold on a loaded host as well as an
// idle one.
//
// WCP's per-event path is allocation-free by construction: clocks of up
// to VectorClock::kInlineThreads threads live inline, queue entries hold
// epochs and snapshot ids, snapshots are reused from a pool, a lock's
// queue, rule-(a) cells and cursors are vectors that keep their
// capacity, and critical-section frames are a plain stack. What remains
// is growth (those vectors, the snapshot pool, thread and lock tables,
// race reports). The same file pins the bytes of per-lock state the WCP
// walk holds (wcp.state_bytes).
//
//===----------------------------------------------------------------------===//

#include "detect/DetectorRunner.h"
#include "gen/Workloads.h"
#include "hb/FastTrackDetector.h"
#include "hb/HbDetector.h"
#include "trace/TraceBuilder.h"
#include "wcp/WcpDetector.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

namespace {

std::atomic<uint64_t> Allocations{0};

void *countedAlloc(std::size_t Size) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}
void *operator new[](std::size_t Size, const std::nothrow_t &T) noexcept {
  return operator new(Size, T);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

using namespace rapid;

namespace {

/// A trace of \p Model with at least \p Events events and its tables
/// declared up front: the model rescaled until the floor is reached.
Trace makeInput(const char *Model, uint64_t Events, uint64_t Seed) {
  WorkloadSpec Spec = workloadSpec(Model);
  Spec.Seed = Seed;
  double Scale =
      static_cast<double>(Events) / static_cast<double>(Spec.Events);
  Trace T = makeWorkload(Spec, Scale);
  for (int Try = 0; Try < 4 && T.size() < Events; ++Try) {
    Scale *= 1.05 * static_cast<double>(Events) /
             static_cast<double>(T.size());
    T = makeWorkload(Spec, Scale);
  }
  return T;
}

/// Allocations per event of one runDetector walk of a fresh \p D over
/// \p T (the detector's construction is not counted).
template <typename D> double allocationsPerEvent(const Trace &T) {
  D Detector(T);
  const uint64_t Before = Allocations.load(std::memory_order_relaxed);
  RunResult R = runDetector(Detector, T);
  const uint64_t After = Allocations.load(std::memory_order_relaxed);
  EXPECT_GT(R.Report.numDistinctPairs(), 0u) << "the walk found no race";
  return static_cast<double>(After - Before) / static_cast<double>(T.size());
}

/// Empty tables of \p Threads threads, \p Locks locks and \p Vars
/// variables, as a trace declares them up front.
Trace declaredTables(uint32_t Threads, uint32_t Locks, uint32_t Vars) {
  TraceBuilder B;
  for (uint32_t I = 0; I != Threads; ++I)
    B.declareThread("T" + std::to_string(I));
  for (uint32_t I = 0; I != Locks; ++I)
    B.declareLock("l" + std::to_string(I));
  for (uint32_t I = 0; I != Vars; ++I)
    B.declareVar("x" + std::to_string(I));
  return B.take();
}

/// Allocations made by constructing a \p D against \p T.
template <typename D> uint64_t constructionAllocations(const Trace &T) {
  const uint64_t Before = Allocations.load(std::memory_order_relaxed);
  {
    D Detector(T);
  }
  return Allocations.load(std::memory_order_relaxed) - Before;
}

} // namespace

// A detector is built on the ingest path, at a session's first publish,
// so its constructor must not pay per declared lock: lock state grows on
// first touch in the walk. eclipse's tables (8,263 locks, 14 threads, so
// every full-width clock is on the heap) with one lock or with all of
// them must cost the same allocations, O(threads + vars).
TEST(WcpAllocTest, ConstructionIsIndependentOfTheLockCount) {
  const uint32_t Threads = 14, Vars = 64;
  ASSERT_GT(Threads, VectorClock::kInlineThreads);
  Trace Many = declaredTables(Threads, 8263, Vars);
  Trace One = declaredTables(Threads, 1, Vars);
  const uint64_t Bound = 4 * (Threads + Vars) + 16;
  auto check = [&](const char *Name, uint64_t WithMany, uint64_t WithOne) {
    RecordProperty(std::string(Name) + "_construction_allocs",
                   std::to_string(WithMany));
    EXPECT_EQ(WithMany, WithOne) << Name << " allocates per declared lock";
    EXPECT_LE(WithMany, Bound) << Name;
  };
  check("hb", constructionAllocations<HbDetector>(Many),
        constructionAllocations<HbDetector>(One));
  check("fasttrack", constructionAllocations<FastTrackDetector>(Many),
        constructionAllocations<FastTrackDetector>(One));
  check("wcp", constructionAllocations<WcpDetector>(Many),
        constructionAllocations<WcpDetector>(One));
}

TEST(WcpAllocTest, XalanWalksStayOffTheHeap) {
  // serve's trace: 131k-event xalan (2,494 locks, lock-dense).
  Trace T = makeInput("xalan", 1050000 / 8, 1);
  ASSERT_GE(T.size(), 1050000u / 8);
  ASSERT_LE(T.numThreads(), VectorClock::kInlineThreads);
  const double Wcp = allocationsPerEvent<WcpDetector>(T);
  const double Hb = allocationsPerEvent<HbDetector>(T);
  RecordProperty("wcp_allocs_per_event", std::to_string(Wcp));
  RecordProperty("hb_allocs_per_event", std::to_string(Hb));
  EXPECT_LE(Wcp, 0.1) << "WCP allocations per event on xalan";
  EXPECT_LE(Hb, 0.05) << "HB allocations per event on xalan";
}

TEST(WcpAllocTest, MontecarloWalksStayOffTheHeap) {
  // bin_large's trace: 1.05M-event montecarlo.
  Trace T = makeInput("montecarlo", 1050000, 1);
  ASSERT_GE(T.size(), 1050000u);
  ASSERT_LE(T.numThreads(), VectorClock::kInlineThreads);
  const double Wcp = allocationsPerEvent<WcpDetector>(T);
  const double Hb = allocationsPerEvent<HbDetector>(T);
  RecordProperty("wcp_allocs_per_event", std::to_string(Wcp));
  RecordProperty("hb_allocs_per_event", std::to_string(Hb));
  EXPECT_LE(Wcp, 0.05) << "WCP allocations per event on montecarlo";
  EXPECT_LE(Hb, 0.05) << "HB allocations per event on montecarlo";
}

TEST(WcpAllocTest, XalanStateBytesStayCompact) {
  // The peak bytes of per-lock state (lock table, queue entries, rule-(a)
  // cells, cursors, snapshots) on serve's trace. Measured the same way
  // on the detector that kept two inline clocks per queue entry and per
  // lock and 56-byte cells in per-lock vectors: 7,641,576 bytes (lock
  // table 2,494 x 232 B, entry blocks of 8 x 104 B, cell and cursor
  // vector capacities). The versioned layout must stay within a third.
  constexpr uint64_t kInlineClockLayoutBytes = 7641576;
  Trace T = makeInput("xalan", 1050000 / 8, 1);
  WcpDetector D(T);
  runDetector(D, T);
  RecordProperty("wcp_state_bytes", std::to_string(D.stateBytes()));
  EXPECT_GT(D.stateBytes(), 0u);
  EXPECT_LE(3 * D.stateBytes(), kInlineClockLayoutBytes);
}
