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
// to VectorClock::kInlineThreads threads live inline, queues reuse the
// blocks their pops empty, rule-(a) cells keep their first releaser's
// clock inline, and critical-section frames are reused. What remains is
// growth (a block per eight entries of a queue nobody collects, tables,
// variable lists, race reports) and the rare second releaser of a cell.
//
//===----------------------------------------------------------------------===//

#include "detect/DetectorRunner.h"
#include "gen/Workloads.h"
#include "hb/HbDetector.h"
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

} // namespace

TEST(WcpAllocTest, XalanWalksStayOffTheHeap) {
  // serve's trace: 131k-event xalan (2,494 locks, lock-dense).
  Trace T = makeInput("xalan", 1050000 / 8, 1);
  ASSERT_GE(T.size(), 1050000u / 8);
  ASSERT_LE(T.numThreads(), VectorClock::kInlineThreads);
  const double Wcp = allocationsPerEvent<WcpDetector>(T);
  const double Hb = allocationsPerEvent<HbDetector>(T);
  RecordProperty("wcp_allocs_per_event", std::to_string(Wcp));
  RecordProperty("hb_allocs_per_event", std::to_string(Hb));
  EXPECT_LE(Wcp, 0.5) << "WCP allocations per event on xalan";
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
