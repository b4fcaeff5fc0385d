//===- tests/vc_test.cpp - Vector clocks and epochs ---------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Prng.h"
#include "vc/Epoch.h"
#include "vc/VectorClock.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace rapid;

TEST(VectorClockTest, BottomIsLeastElement) {
  VectorClock Bot(4), V(4);
  V.set(ThreadId(2), 7);
  EXPECT_TRUE(Bot.lessOrEqual(V));
  EXPECT_FALSE(V.lessOrEqual(Bot));
  EXPECT_TRUE(Bot.lessOrEqual(Bot));
}

TEST(VectorClockTest, JoinIsPointwiseMax) {
  VectorClock A(3), B(3);
  A.set(ThreadId(0), 5);
  A.set(ThreadId(1), 2);
  B.set(ThreadId(1), 9);
  B.set(ThreadId(2), 1);
  VectorClock J = join(A, B);
  EXPECT_EQ(J.get(ThreadId(0)), 5u);
  EXPECT_EQ(J.get(ThreadId(1)), 9u);
  EXPECT_EQ(J.get(ThreadId(2)), 1u);
}

TEST(VectorClockTest, ComparisonIsPartialNotTotal) {
  VectorClock A(2), B(2);
  A.set(ThreadId(0), 1);
  B.set(ThreadId(1), 1);
  EXPECT_FALSE(A.lessOrEqual(B));
  EXPECT_FALSE(B.lessOrEqual(A));
}

TEST(VectorClockTest, ComponentAssignment) {
  VectorClock V(3);
  V.set(ThreadId(1), 4);
  EXPECT_EQ(V.get(ThreadId(1)), 4u);
  V.set(ThreadId(1), 2); // Assignment, not join: may decrease.
  EXPECT_EQ(V.get(ThreadId(1)), 2u);
}

TEST(VectorClockTest, ClearResetsToBottom) {
  VectorClock V(3);
  V.set(ThreadId(0), 9);
  V.clear();
  EXPECT_EQ(V, VectorClock(3));
}

TEST(VectorClockTest, StrRendering) {
  VectorClock V(3);
  V.set(ThreadId(1), 2);
  EXPECT_EQ(V.str(), "[0, 2, 0]");
}

// Implicit-zero extension (growable clocks): components at or beyond the
// physical size behave as 0, and every operation is legal across clocks
// of different physical sizes.
TEST(VectorClockTest, ImplicitZeroReadsAndGrowth) {
  VectorClock V(2);
  EXPECT_EQ(V.get(ThreadId(7)), 0u); // Beyond physical size: implicit 0.
  V.set(ThreadId(7), 0);             // Zero assignment past the end...
  EXPECT_EQ(V.size(), 2u);           // ...is the identity, no growth.
  V.set(ThreadId(4), 9);
  EXPECT_EQ(V.size(), 5u); // Nonzero assignment grows to fit.
  EXPECT_EQ(V.get(ThreadId(4)), 9u);
  EXPECT_EQ(V.get(ThreadId(2)), 0u); // Filled-in components start at 0.
  EXPECT_EQ(V.get(ThreadId(3)), 0u);
}

TEST(VectorClockTest, MixedSizeJoinAndComparison) {
  VectorClock Small(2), Big(5);
  Small.set(ThreadId(0), 3);
  Big.set(ThreadId(1), 4);
  Big.set(ThreadId(4), 2);

  // Join grows the receiver only as far as needed; values land pointwise.
  VectorClock J = Small;
  J.joinWith(Big);
  EXPECT_EQ(J.get(ThreadId(0)), 3u);
  EXPECT_EQ(J.get(ThreadId(1)), 4u);
  EXPECT_EQ(J.get(ThreadId(4)), 2u);

  // A narrow clock compares against a wide one (and vice versa) with
  // implicit-zero tails.
  EXPECT_TRUE(Small.lessOrEqual(J));
  EXPECT_TRUE(Big.lessOrEqual(J));
  EXPECT_FALSE(J.lessOrEqual(Small));
  VectorClock WideZeros(8);
  EXPECT_TRUE(WideZeros.lessOrEqual(Small)); // All-zero tail ⊑ anything.
  EXPECT_TRUE(VectorClock(0).lessOrEqual(Small));
}

TEST(VectorClockTest, EqualityIsSemanticAcrossSizes) {
  VectorClock A(2), B(6);
  A.set(ThreadId(1), 5);
  B.set(ThreadId(1), 5);
  EXPECT_EQ(A, B); // Trailing zeros are invisible.
  EXPECT_EQ(VectorClock(0), VectorClock(9));
  B.set(ThreadId(5), 1);
  EXPECT_NE(A, B);
}

// The growth laws compose with the lattice laws: a clock and its
// zero-extended copy are interchangeable in every operation.
TEST(VectorClockTest, ZeroExtensionIsObservationallyEquivalent) {
  VectorClock V(3);
  V.set(ThreadId(0), 2);
  V.set(ThreadId(2), 7);
  VectorClock Wide(10);
  Wide.joinWith(V); // Wide == V semantically, physically size 10.
  EXPECT_EQ(V, Wide);
  VectorClock Probe(4);
  Probe.set(ThreadId(3), 1);
  EXPECT_EQ(join(Probe, V), join(Probe, Wide));
  EXPECT_EQ(V.lessOrEqual(Probe), Wide.lessOrEqual(Probe));
  EXPECT_EQ(Probe.lessOrEqual(V), Probe.lessOrEqual(Wide));
}

// Lattice laws, checked on random clocks.
class VectorClockLatticeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VectorClockLatticeTest, JoinLaws) {
  Prng Rng(GetParam());
  uint32_t N = 1 + Rng.nextBelow(8);
  auto random = [&] {
    VectorClock V(N);
    for (uint32_t I = 0; I < N; ++I)
      V.set(ThreadId(I), static_cast<ClockValue>(Rng.nextBelow(100)));
    return V;
  };
  VectorClock A = random(), B = random(), C = random();
  // Commutativity / associativity / idempotence.
  EXPECT_EQ(join(A, B), join(B, A));
  EXPECT_EQ(join(join(A, B), C), join(A, join(B, C)));
  EXPECT_EQ(join(A, A), A);
  // Join is the least upper bound.
  EXPECT_TRUE(A.lessOrEqual(join(A, B)));
  EXPECT_TRUE(B.lessOrEqual(join(A, B)));
  VectorClock U = join(A, B);
  if (A.lessOrEqual(C) && B.lessOrEqual(C)) {
    EXPECT_TRUE(U.lessOrEqual(C));
  }
  // Order is antisymmetric.
  if (A.lessOrEqual(B) && B.lessOrEqual(A)) {
    EXPECT_EQ(A, B);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, VectorClockLatticeTest,
                         ::testing::Range<uint64_t>(1, 30));

TEST(EpochTest, NoneIsBottom) {
  VectorClock V(3);
  EXPECT_TRUE(Epoch::none().lessOrEqual(V));
}

TEST(EpochTest, ComparesAgainstOwnComponent) {
  VectorClock V(3);
  V.set(ThreadId(1), 5);
  EXPECT_TRUE(Epoch(5, ThreadId(1)).lessOrEqual(V));
  EXPECT_FALSE(Epoch(6, ThreadId(1)).lessOrEqual(V));
  EXPECT_FALSE(Epoch(1, ThreadId(2)).lessOrEqual(V));
}

// Inline/heap boundary: random operation sequences over clocks of
// physical sizes 0-17 (the inline limit is 8), each mirrored on a plain
// std::vector model with the documented physical-size rules, so clocks
// spill to the heap and shrink back through assignment in both
// directions.
namespace {

using Model = std::vector<uint32_t>;

uint32_t modelGet(const Model &M, uint32_t T) {
  return T < M.size() ? M[T] : 0;
}

bool modelJoin(Model &Dst, const Model &Src) {
  if (Src.size() > Dst.size())
    Dst.resize(Src.size(), 0);
  bool Changed = false;
  for (size_t I = 0; I != Src.size(); ++I) {
    if (Src[I] > Dst[I]) {
      Dst[I] = Src[I];
      Changed = true;
    }
  }
  return Changed;
}

bool modelLessOrEqual(const Model &A, const Model &B) {
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I] > modelGet(B, static_cast<uint32_t>(I)))
      return false;
  return true;
}

void expectMatches(const VectorClock &V, const Model &M,
                   const std::string &Where) {
  ASSERT_EQ(V.size(), M.size()) << Where;
  for (uint32_t T = 0; T != 20; ++T)
    ASSERT_EQ(V.get(ThreadId(T)), modelGet(M, T)) << Where << " t=" << T;
  for (uint32_t I = 0; I != V.size(); ++I)
    ASSERT_EQ(V.data()[I], M[I]) << Where << " data()[" << I << "]";
}

class VectorClockInlineBoundaryTest
    : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(VectorClockInlineBoundaryTest, MatchesVectorModelAcrossInlineLimit) {
  static_assert(VectorClock::kInlineThreads == 8,
                "sizes below are chosen around an inline limit of 8");
  Prng Rng(GetParam());
  constexpr size_t Slots = 4;
  std::vector<VectorClock> Clocks;
  std::vector<Model> Models;
  for (size_t I = 0; I != Slots; ++I) {
    const uint32_t N = static_cast<uint32_t>(Rng.nextBelow(18));
    Clocks.emplace_back(N);
    Models.emplace_back(N, 0);
  }
  for (int Step = 0; Step != 400; ++Step) {
    const size_t A = Rng.nextBelow(Slots), B = Rng.nextBelow(Slots);
    const std::string Where = "seed " + std::to_string(GetParam()) +
                              " step " + std::to_string(Step);
    switch (Rng.nextBelow(8)) {
    case 0: { // set, sometimes to zero, up to component 16 (size 17).
      const uint32_t T = static_cast<uint32_t>(Rng.nextBelow(17));
      const ClockValue N =
          Rng.chance(1, 4) ? 0 : static_cast<ClockValue>(Rng.nextBelow(50));
      Clocks[A].set(ThreadId(T), N);
      if (T < Models[A].size() || N != 0) {
        if (T >= Models[A].size())
          Models[A].resize(T + 1, 0);
        Models[A][T] = N;
      }
      break;
    }
    case 1: {
      const bool Changed = Clocks[A].joinWith(Clocks[B]);
      ASSERT_EQ(Changed, modelJoin(Models[A], Models[B])) << Where;
      break;
    }
    case 2: { // Copy construction.
      VectorClock Copy(Clocks[B]);
      expectMatches(Copy, Models[B], Where + " copy");
      Clocks[A] = Copy;
      Models[A] = Models[B];
      break;
    }
    case 3: // Copy assignment (A == B is a self-assignment).
      Clocks[A] = Clocks[B];
      Models[A] = Models[B];
      break;
    case 4: { // Move construction and move assignment.
      VectorClock Source(Clocks[B]);
      VectorClock Moved(std::move(Source));
      expectMatches(Moved, Models[B], Where + " move-construct");
      Source = Clocks[A]; // A moved-from clock is assignable again.
      expectMatches(Source, Models[A], Where + " reuse");
      Clocks[A] = std::move(Moved);
      Models[A] = Models[B];
      break;
    }
    case 5: { // Self-assignment through an alias.
      VectorClock &Alias = Clocks[A];
      Clocks[A] = Alias;
      break;
    }
    case 6: // A fresh clock of a random size 0-17.
      Models[A].assign(Rng.nextBelow(18), 0);
      Clocks[A] = VectorClock(static_cast<uint32_t>(Models[A].size()));
      break;
    case 7:
      Clocks[A].clear();
      std::fill(Models[A].begin(), Models[A].end(), 0);
      break;
    }
    for (size_t I = 0; I != Slots; ++I) {
      expectMatches(Clocks[I], Models[I], Where + " slot " +
                                              std::to_string(I));
      for (size_t J = 0; J != Slots; ++J) {
        ASSERT_EQ(Clocks[I].lessOrEqual(Clocks[J]),
                  modelLessOrEqual(Models[I], Models[J]))
            << Where;
        ASSERT_EQ(Clocks[I] == Clocks[J],
                  modelLessOrEqual(Models[I], Models[J]) &&
                      modelLessOrEqual(Models[J], Models[I]))
            << Where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorClockInlineBoundaryTest,
                         ::testing::Range<uint64_t>(1, 41));
