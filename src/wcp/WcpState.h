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
///     a small open-addressed table keyed by variable x whose cell stands
///     for L^r_{ℓ,x} and L^w_{ℓ,x}, the joins of the HB times of releases
///     of ℓ whose critical sections read/wrote x (a cell exists once some
///     section of ℓ touched x). A cell holds no clock: it names the queue
///     entries of the latest two such releases, whose H-times the entries
///     already store (see WcpReleaseClocks for why that is exact);
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
/// reuses the blocks its pops empty, a thread's stack of open critical
/// sections keeps its capacity, and a rule-(a) cell is two queue
/// references. What remains is growth: a new block per eight entries of
/// a queue that only grows, a table that fills up.
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

/// One L^r_{ℓ,x} / L^w_{ℓ,x} cell, held by reference: the logical queue
/// indices of the latest release of ℓ whose section read (or wrote) x,
/// and of the latest such release by a thread other than that one's.
///
/// Rule (a) of WCP fires only when the release's critical section contains
/// an event *conflicting* with the current access, and conflicting events
/// are by definition cross-thread (§2.1). Since every event in CS(r) is by
/// t(r), contributions from the reader/writer's own thread must not be
/// joined (they would claim HB-only predecessors as WCP predecessors and
/// mask genuine races). The paper's pseudocode leaves this implicit in the
/// conflict premise. An access by t therefore needs the join of the
/// H-times of the releases by threads other than t, and two indices give
/// it exactly:
///
///   1. Releases of one lock are totally ordered and their H-times grow
///      along that order (each acquire joins H_ℓ), so the join over other
///      threads' releases is the H-time of the latest one.
///   2. That latest release by a thread other than t is Latest unless
///      Latest is t's own, and then it is Other (see latestExcluding).
///   3. An index below the lock's queue Base names a collected entry,
///      whose H-time the P of every thread in a section on ℓ already
///      covers: a thread that existed at collection popped the entry (or
///      performed it, and collection waits for its P to cover it), and a
///      later thread joins P_ℓ, which covers it, when it acquires ℓ.
///      Skipping it is a no-op join.
///
/// A section's accesses record its entry as they happen, not at its
/// release. Until t releases ℓ, only t can be in a section on ℓ, and t's
/// picks skip its own entries, so nothing reads the record before the
/// release stores the entry's H-time.
struct WcpReleaseClocks {
  static constexpr uint32_t kNoThread = ThreadId::invalid().value();
  static constexpr uint64_t kNone = UINT64_MAX;
  uint64_t Latest = kNone; ///< Queue index of the latest release.
  uint64_t Other = kNone;  ///< ... of the latest by another thread.
  uint32_t LatestThread = kNoThread; ///< The thread of Latest.

  /// Records that the section of queue entry \p Idx, by thread \p T,
  /// accessed x; it is the lock's latest section so far.
  void add(uint32_t T, uint64_t Idx) {
    if (LatestThread != T) {
      Other = Latest;
      LatestThread = T;
    }
    Latest = Idx;
  }

  /// The queue index of the latest recorded release by a thread other
  /// than \p T, or kNone.
  uint64_t latestExcluding(uint32_t T) const {
    return LatestThread != T ? Latest : Other;
  }
};

/// The rule-(a) cells of one (ℓ, x).
struct WcpVarReleases {
  static constexpr uint32_t kEmpty = VarId::invalid().value();
  uint32_t Var = kEmpty; ///< x, or kEmpty for an unused slot.
  WcpReleaseClocks Read;  ///< L^r_{ℓ,x}.
  WcpReleaseClocks Write; ///< L^w_{ℓ,x}.

  /// The write rule's L^r_{ℓ,x} ⊔ L^w_{ℓ,x}: the queue index of the
  /// latest release by a thread other than \p T whose section read or
  /// wrote x, or kNone. The later entry's H-time covers the earlier's.
  uint64_t latestAccessExcluding(uint32_t T) const {
    const uint64_t R = Read.latestExcluding(T);
    const uint64_t W = Write.latestExcluding(T);
    if (R == WcpReleaseClocks::kNone || W == WcpReleaseClocks::kNone)
      return std::min(R, W);
    return std::max(R, W);
  }
};
// Every access inside a critical section writes a cell. One that grew a
// clock or a heap list would bring back the per-variable joins and
// cache misses that naming queue entries removed.
static_assert(sizeof(WcpVarReleases) <= 64, "rule-(a) cell grew");

/// One lock's L^r/L^w cells, keyed by variable: open addressing with
/// linear probing over a power-of-two slot array, at most 3/4 full. A
/// lock's sections touch few variables, so the table stays a few slots
/// wide and a lookup is one or two probes.
class WcpReleaseTable {
public:
  /// The cell of \p X, created empty (no release recorded) on first use.
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
  /// The thread has acquired this lock at least once. Only queues of
  /// touchers can ever pop.
  bool Touched = false;
};

/// Per-lock state, empty until the lock is used: the clocks start as ⊥
/// and the per-thread array grows on first touch. A thread beyond the
/// array's physical size reads as the zero state, so a lock holds no
/// per-thread memory until some thread acquires it.
struct WcpLockState {
  VectorClock P; ///< P_ℓ: WCP-predecessor time of the last release.
  VectorClock H; ///< H_ℓ: HB time of the last release.

  /// Shared queue buffer; logical index of Entries[i] is Base + i.
  WcpEntryQueue Entries;
  uint64_t Base = 0;

  /// Per-thread cursors and touched flags, one array so a lock operation
  /// reads one buffer.
  std::vector<WcpLockThread> PerThread;
  /// Threads [0, Cursors) have a cursor of their own; later ones sit
  /// implicitly at 0 for collection (see collectibleEnd).
  uint32_t Cursors = 0;

  /// Live-queue telemetry, the "live" portion of the paper's column 11
  /// metric: the threads that have acquired ℓ, and the Acq+Rel copies
  /// of the retained entries (one per enqueue, one per release, two off
  /// per collected entry). Every toucher's abstract queues hold all
  /// retained entries but its own and the ones it popped, so a first
  /// contact adds Queued and an enqueue or release adds Touchers - 1.
  uint32_t Touchers = 0;
  uint64_t Queued = 0;

  WcpReleaseTable Releases; ///< L^r_{ℓ,x} / L^w_{ℓ,x} for every x.

  uint64_t logicalEnd() const { return Base + Entries.size(); }
  WcpQueueEntry &entry(uint64_t LogicalIdx) {
    assert(LogicalIdx >= Base && LogicalIdx < logicalEnd() &&
           "queue entry out of range");
    return Entries[LogicalIdx - Base];
  }
  /// The H-time of the release whose section's entry has logical index
  /// \p LogicalIdx, or nullptr for WcpReleaseClocks::kNone and for a
  /// collected entry (one every thread in a section on ℓ already covers;
  /// see WcpReleaseClocks).
  const VectorClock *releaseTime(uint64_t LogicalIdx) {
    if (LogicalIdx == WcpReleaseClocks::kNone || LogicalIdx < Base)
      return nullptr;
    const WcpQueueEntry &E = entry(LogicalIdx);
    assert(E.HasRelease && "rule-(a) cell names an open section");
    return &E.ReleaseTime;
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

/// One open critical section of a thread: the lock and the shared queue
/// entry created by its acquire. The section's accesses name that entry
/// in the lock's rule-(a) cells, so no R/W variable sets are kept.
struct WcpCsFrame {
  LockId Lock;
  uint64_t EntryLogicalIdx;
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
  /// The open critical sections, innermost last.
  std::vector<WcpCsFrame> CsStack;

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
