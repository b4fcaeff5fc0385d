//===- wcp/WcpState.h - State of Algorithm 1 --------------------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The state components of the paper's Algorithm 1 (§3.2):
///
///   * per thread t:  local clock N_t, WCP-predecessor clock P_t, HB clock
///     H_t (with the invariants C_t = P_t[t := N_t] and H_t(t) = N_t);
///   * per lock ℓ:    P_ℓ and H_ℓ, the P/H times of the last rel(ℓ), and
///     a small open-addressed table keyed by variable x whose cell holds
///     L^r_{ℓ,x} and L^w_{ℓ,x}, the joins of the HB times of releases of ℓ
///     whose critical sections read/wrote x (a cell exists once some
///     section of ℓ touched x);
///   * per (ℓ, t):    FIFO queues Acq_ℓ(t) and Rel_ℓ(t) of the C-times of
///     acquires / H-times of releases performed by *other* threads.
///
/// The queues are realized as one shared per-lock buffer with per-thread
/// cursors: the value enqueued for every t' ≠ t is identical, so storing it
/// once per critical section implements the same abstract queues with a
/// factor-T less memory. Queue-length telemetry (Table 1 column 11) is
/// reported in terms of the *abstract* per-(ℓ,t) queues so the numbers are
/// comparable with the paper.
///
/// Per-event processing does not allocate for traces of at most
/// VectorClock::kInlineThreads threads: clocks are inline, a shared queue
/// reuses the blocks its pops empty, a thread's critical-section frames
/// are reused with their variable lists, and a rule-(a) cell stores its
/// first releasing thread's clock inline. What remains is growth: a new
/// block per eight entries of a queue that only grows, a table or
/// variable list that fills up, a second releasing thread of one cell.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_WCP_WCPSTATE_H
#define RAPID_WCP_WCPSTATE_H

#include "support/Ids.h"
#include "vc/VectorClock.h"

#include <algorithm>
#include <cstddef>
#include <new>
#include <utility>
#include <vector>

namespace rapid {

/// One critical section's times, shared across the abstract per-thread
/// queues of its lock.
struct WcpQueueEntry {
  VectorClock AcquireTime; ///< C_a of the acquire (enqueued at acquire).
  VectorClock ReleaseTime; ///< H_r of the release (set at release).
  ThreadId Thread;         ///< Thread that performed the critical section.
  bool HasRelease = false;

  WcpQueueEntry(const VectorClock &AcquireTime, ThreadId Thread)
      : AcquireTime(AcquireTime), Thread(Thread) {}
};

/// A lock's shared queue: a FIFO over fixed-size blocks of entries.
/// Entries are constructed in place when pushed and never move, so a push
/// only writes (no read of a cold slot, no relocation of older entries
/// when the queue grows). A block emptied by pops is kept as a spare for
/// the next block the queue needs, so a queue whose length stays bounded
/// stops allocating, and an unused lock holds no block at all.
class WcpEntryQueue {
public:
  WcpEntryQueue() = default;
  WcpEntryQueue(WcpEntryQueue &&Other) noexcept
      : Blocks(std::move(Other.Blocks)),
        Spare(std::exchange(Other.Spare, nullptr)),
        First(std::exchange(Other.First, 0)),
        Head(std::exchange(Other.Head, 0)),
        Count(std::exchange(Other.Count, 0)) {}
  WcpEntryQueue(const WcpEntryQueue &) = delete;
  WcpEntryQueue &operator=(const WcpEntryQueue &) = delete;
  ~WcpEntryQueue() {
    while (Count != 0)
      popFront();
    for (size_t I = First; I != Blocks.size(); ++I)
      freeBlock(Blocks[I]);
    freeBlock(Spare);
  }

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  WcpQueueEntry &operator[](size_t I) {
    assert(I < Count && "queue index out of range");
    const size_t Pos = Head + I;
    return Blocks[First + Pos / kBlock][Pos % kBlock];
  }
  WcpQueueEntry &front() { return (*this)[0]; }

  /// Appends an open section's entry: acquire time \p AcquireTime, by
  /// \p Thread.
  WcpQueueEntry &pushBack(const VectorClock &AcquireTime, ThreadId Thread) {
    const size_t Pos = Head + Count;
    if (First + Pos / kBlock == Blocks.size()) {
      Blocks.push_back(Spare ? Spare : allocBlock());
      Spare = nullptr;
    }
    WcpQueueEntry *Slot = &Blocks[First + Pos / kBlock][Pos % kBlock];
    ++Count;
    return *new (Slot) WcpQueueEntry(AcquireTime, Thread);
  }

  void popFront() {
    assert(Count != 0 && "pop from an empty queue");
    front().~WcpQueueEntry();
    --Count;
    if (++Head == kBlock) {
      retireFrontBlock();
      Head = 0;
    } else if (Count == 0) {
      Head = 0; // Empty: refill the front block from its start.
    }
  }

private:
  static constexpr size_t kBlock = 8; ///< Entries per block.

  static WcpQueueEntry *allocBlock() {
    return static_cast<WcpQueueEntry *>(
        ::operator new(kBlock * sizeof(WcpQueueEntry)));
  }
  static void freeBlock(WcpQueueEntry *B) { ::operator delete(B); }

  /// Drops the (empty) front block, keeping it as the spare if there is
  /// none, and compacts the block list once half of it is dead.
  void retireFrontBlock() {
    if (Spare)
      freeBlock(Blocks[First]);
    else
      Spare = Blocks[First];
    if (2 * ++First >= Blocks.size()) {
      Blocks.erase(Blocks.begin(),
                   Blocks.begin() + static_cast<std::ptrdiff_t>(First));
      First = 0;
    }
  }

  /// Blocks[First, end) hold the entries; each block is raw storage for
  /// kBlock entries, of which the live ones are constructed.
  std::vector<WcpQueueEntry *> Blocks;
  WcpQueueEntry *Spare = nullptr; ///< An emptied block kept for reuse.
  size_t First = 0; ///< Index of the front block in Blocks.
  size_t Head = 0;  ///< Index of the front entry in the front block.
  size_t Count = 0;
};

/// One L^r_{ℓ,x} / L^w_{ℓ,x} cell, split per releasing thread.
///
/// Rule (a) of WCP fires only when the release's critical section contains
/// an event *conflicting* with the current access, and conflicting events
/// are by definition cross-thread (§2.1). Since every event in CS(r) is by
/// t(r), contributions from the reader/writer's own thread must not be
/// joined (they would claim HB-only predecessors as WCP predecessors and
/// mask genuine races). The paper's pseudocode leaves this implicit in the
/// conflict premise; we keep the join split per releasing thread. Nearly
/// every cell has exactly one releasing thread, so the first one's clock
/// is stored inline and only later ones go to a list.
struct WcpReleaseClocks {
  static constexpr uint32_t kNoThread = ThreadId::invalid().value();
  uint32_t FirstThread = kNoThread;
  VectorClock First; ///< FirstThread's join (⊥ while there is none).
  std::vector<std::pair<uint32_t, VectorClock>> Others;

  /// Joins \p H into the cell of releasing thread \p T.
  void add(uint32_t T, const VectorClock &H) {
    if (FirstThread == kNoThread)
      FirstThread = T;
    if (FirstThread == T) {
      First.joinWith(H);
      return;
    }
    for (auto &[Tid, Clock] : Others) {
      if (Tid == T) {
        Clock.joinWith(H);
        return;
      }
    }
    Others.emplace_back(T, H);
  }

  /// Joins every cell except \p ExcludeThread's into \p Out. Returns true
  /// iff \p Out changed (feeds the P-epoch that keeps capture-mode
  /// snapshot dedup O(1) across accesses; see ClockBroadcast).
  bool joinIntoExcluding(VectorClock &Out, uint32_t ExcludeThread) const {
    bool Changed = false;
    if (FirstThread != ExcludeThread)
      Changed |= Out.joinWith(First);
    for (const auto &[Tid, Clock] : Others)
      if (Tid != ExcludeThread)
        Changed |= Out.joinWith(Clock);
    return Changed;
  }
};

/// The rule-(a) clocks of one (ℓ, x).
struct WcpVarReleases {
  static constexpr uint32_t kEmpty = VarId::invalid().value();
  uint32_t Var = kEmpty; ///< x, or kEmpty for an unused slot.
  WcpReleaseClocks Read;  ///< L^r_{ℓ,x}.
  WcpReleaseClocks Write; ///< L^w_{ℓ,x}.
};

/// One lock's L^r/L^w cells, keyed by variable: open addressing with
/// linear probing over a power-of-two slot array, at most 3/4 full. A
/// lock's sections touch few variables, so the table stays a few slots
/// wide and a lookup is one or two probes.
class WcpReleaseTable {
public:
  /// The cell of \p X, or nullptr if no section of the lock touched it.
  const WcpVarReleases *find(VarId X) const {
    if (Slots.empty())
      return nullptr;
    for (size_t I = home(X.value());; I = (I + 1) & (Slots.size() - 1)) {
      const WcpVarReleases &S = Slots[I];
      if (S.Var == X.value())
        return &S;
      if (S.Var == WcpVarReleases::kEmpty)
        return nullptr;
    }
  }

  /// The cell of \p X, created empty (both clocks ⊥) on first use.
  WcpVarReleases &cell(VarId X) {
    if (4 * (Used + 1) > 3 * Slots.size())
      rehash(Slots.empty() ? 4 : 2 * Slots.size());
    size_t I = home(X.value());
    while (Slots[I].Var != X.value()) {
      if (Slots[I].Var == WcpVarReleases::kEmpty) {
        Slots[I].Var = X.value();
        ++Used;
        break;
      }
      I = (I + 1) & (Slots.size() - 1);
    }
    return Slots[I];
  }

private:
  /// Fibonacci hashing: the top bits of X·⌊2^32/φ⌋.
  size_t home(uint32_t X) const { return (X * 0x9e3779b9u) >> Shift; }

  void rehash(size_t NewSlots) {
    std::vector<WcpVarReleases> Old(NewSlots);
    Old.swap(Slots);
    Shift = 32;
    for (size_t N = NewSlots; N > 1; N >>= 1)
      --Shift;
    for (WcpVarReleases &S : Old) {
      if (S.Var == WcpVarReleases::kEmpty)
        continue;
      size_t I = home(S.Var);
      while (Slots[I].Var != WcpVarReleases::kEmpty)
        I = (I + 1) & (Slots.size() - 1);
      Slots[I] = std::move(S);
    }
  }

  std::vector<WcpVarReleases> Slots;
  uint32_t Used = 0;
  uint32_t Shift = 32;
};

/// One thread's view of one lock's shared queue.
struct WcpLockThread {
  /// Logical index of the first entry the thread has not yet consumed.
  /// Entries by the thread itself are skipped (they are not in its
  /// abstract queue).
  uint64_t Cursor = 0;
  /// Acq+Rel entries pending in the thread's abstract queues, counted
  /// once it has touched the lock — the "live" portion of the paper's
  /// column 11 metric (queues of threads that never use the lock are
  /// dead weight a real deployment elides).
  uint64_t Live = 0;
  /// The thread has acquired this lock at least once. Only queues of
  /// touchers can ever pop.
  bool Touched = false;
};

/// Per-lock state. The per-thread array is growable: a thread first seen
/// mid-stream gets the zero state the batch constructor would have given
/// it, and threads beyond the physical size read as that zero state.
struct WcpLockState {
  VectorClock P; ///< P_ℓ: WCP-predecessor time of the last release.
  VectorClock H; ///< H_ℓ: HB time of the last release.

  /// Shared queue buffer; logical index of Entries[i] is Base + i.
  WcpEntryQueue Entries;
  uint64_t Base = 0;

  /// Per-thread cursors, live counts and touched flags, one array so a
  /// lock operation reads one buffer.
  std::vector<WcpLockThread> PerThread;
  /// Threads [0, Cursors) have a cursor of their own; later ones sit
  /// implicitly at 0 for collection (see collectibleEnd).
  uint32_t Cursors = 0;

  WcpReleaseTable Releases; ///< L^r_{ℓ,x} / L^w_{ℓ,x} for every x.

  explicit WcpLockState(uint32_t NumThreads = 0)
      : P(NumThreads), H(NumThreads), PerThread(NumThreads),
        Cursors(NumThreads) {}

  uint64_t logicalEnd() const { return Base + Entries.size(); }
  WcpQueueEntry &entry(uint64_t LogicalIdx) {
    assert(LogicalIdx >= Base && LogicalIdx < logicalEnd() &&
           "queue entry out of range");
    return Entries[LogicalIdx - Base];
  }

  /// Growable component accessors (untouched defaults, exactly the batch
  /// constructor's initial state — except the cursor, which starts at
  /// Base: entries below it were collected under the invariant that
  /// their release times already flow to every possible future thread
  /// through P_ℓ, so skipping them is a semantic no-op; see
  /// WcpDetector::collectLockGarbage).
  WcpLockThread &threadOf(uint32_t T) {
    if (T >= PerThread.size())
      PerThread.resize(T + 1);
    return PerThread[T];
  }
  uint64_t &cursorOf(uint32_t T) {
    if (T >= Cursors) {
      threadOf(T);
      for (; Cursors <= T; ++Cursors)
        PerThread[Cursors].Cursor = Base;
    }
    return PerThread[T].Cursor;
  }
  bool touched(uint32_t T) const {
    return T < PerThread.size() && PerThread[T].Touched;
  }

  /// The largest logical index every thread's cursor has passed (the
  /// collection candidates are [Base, this)). \p NumThreads is the
  /// detector's thread count: threads without a cursor of their own sit
  /// implicitly at 0, so nothing is collectible until every one of them
  /// has a cursor past Base (matching the fixed-size behavior exactly).
  /// The actual collection lives in WcpDetector::collectLockGarbage —
  /// it additionally requires each entry's release time to be covered by
  /// its own thread's P, which makes collection safe even for threads
  /// declared in the future (growable mode).
  uint64_t collectibleEnd(uint32_t NumThreads) const {
    uint64_t Min = Cursors < NumThreads ? 0 : UINT64_MAX;
    for (uint32_t U = 0; U != Cursors; ++U)
      Min = std::min(Min, PerThread[U].Cursor);
    return Min;
  }
};

/// One open critical section of a thread: the lock, the shared queue entry
/// created by its acquire, and the variables read/written inside it so far
/// (including by nested sections, folded in when they close). These become
/// the R/W parameters of the paper's release(t, ℓ, R, W) handler.
struct WcpCsFrame {
  LockId Lock;
  uint64_t EntryLogicalIdx;
  std::vector<uint32_t> ReadVars;
  std::vector<uint32_t> WriteVars;
};

/// Per-thread state.
struct WcpThreadState {
  ClockValue N = 1;   ///< Local clock N_t.
  VectorClock P;      ///< P_t (⊥ initially).
  VectorClock H;      ///< H_t (⊥[t := N_t] initially).
  /// K_t: the *hard* clock — thread order plus fork/join edges only.
  /// Fork/join order events (no correct reordering can flip them) but are
  /// not WCP edges, so this knowledge must not flow into P_ℓ or the
  /// queues; it is consulted directly by the race check and the queue
  /// guard. (Folding it into P_t would leak through rule (c)'s
  /// HB-composition channels and over-order independent threads.)
  VectorClock K;
  /// Capture-mode change epochs of P / K: bumped on every mutation of the
  /// respective clock (spurious bumps are only a missed dedup; a missed
  /// bump would be unsound, so every joinWith/set site bumps). An access
  /// whose epoch matches the thread's last broadcast snapshot reuses it
  /// without the O(threads) content compare — the common case, since P/K
  /// mutate only at sync events and (for P) rule-(a) joins that actually
  /// add something.
  uint64_t PEpoch = 1;
  uint64_t KEpoch = 1;
  bool IncrementNext = false; ///< Previous event was a release/fork.
  /// CsStack[0, Depth) are the open critical sections, innermost last.
  /// Frames past Depth are retired: the next acquire reuses one, keeping
  /// its ReadVars/WriteVars capacity.
  std::vector<WcpCsFrame> CsStack;
  uint32_t Depth = 0;

  explicit WcpThreadState(uint32_t NumThreads = 0)
      : P(NumThreads), H(NumThreads), K(NumThreads) {}
};

/// Telemetry the Table 1 harness reads off the detector.
struct WcpStats {
  /// Peak of Σ_{ℓ,t} |Acq_ℓ(t)| + |Rel_ℓ(t)| over the run, counting the
  /// abstract queues of *every* thread, as the pseudocode literally
  /// maintains them.
  uint64_t MaxAbstractQueueEntries = 0;
  /// Peak counting only queues of threads that have acquired the lock —
  /// the entries a deployment actually has to retain, and the number
  /// comparable to the paper's column 11 (their thread-confined locks
  /// would otherwise dominate the metric the same way ours do).
  uint64_t MaxLiveQueueEntries = 0;
  /// Live peak as a percentage of events (the paper's "RV Queue Length
  /// (%)" metric).
  double maxQueuePercent(uint64_t NumEvents) const {
    if (NumEvents == 0)
      return 0.0;
    return 100.0 * static_cast<double>(MaxLiveQueueEntries) /
           static_cast<double>(NumEvents);
  }
  /// Peak of the largest single lock's shared (deduplicated) buffer.
  uint64_t MaxSharedQueueEntries = 0;
  /// Peak of the shared buffers' entries summed over *all* locks — what
  /// this implementation actually retains at once.
  uint64_t MaxRetainedQueueEntries = 0;
};

} // namespace rapid

#endif // RAPID_WCP_WCPSTATE_H
