//===- wcp/WcpState.h - State of Algorithm 1 --------------------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The state components of the paper's Algorithm 1 (§3.2), stored by
/// version:
///
///   * per thread t:  local clock N_t, WCP-predecessor clock P_t, HB clock
///     H_t (with the invariants C_t = P_t[t := N_t] and H_t(t) = N_t), and
///     the version counters PEpoch and HEpoch. P_t changes only at joins,
///     and H_t's non-own part only when t learns another thread's time
///     (an acquire after another thread's release, fork, join), so on
///     lock-dense traces a thread keeps one version across many critical
///     sections;
///   * snapshots:     immutable, reference-counted copies of a thread's
///     P_t or H_t (WcpSnapshots), taken at a release only when the version
///     moved since the thread's last snapshot;
///   * per lock ℓ:    P_ℓ and H_ℓ as references to the releasing thread's
///     snapshots plus its N at the release (H_ℓ is the H snapshot with the
///     releaser's own component set to that N), a small open-addressed
///     table keyed by variable x whose cell stands for L^r_{ℓ,x} and
///     L^w_{ℓ,x} (see WcpReleaseClocks), and per-thread queue cursors;
///   * per (ℓ, t):    FIFO queues Acq_ℓ(t) and Rel_ℓ(t) of the C-times of
///     acquires / H-times of releases performed by *other* threads.
///
/// The queues are realized as one shared per-lock buffer with per-thread
/// cursors: the value enqueued for every t' ≠ t is identical, so storing it
/// once per critical section implements the same abstract queues with a
/// factor-T less memory. An entry stores no clock: C_a is held as the
/// epoch of the acquire, and H_r as an H snapshot with component t set to
/// the N at the release (see WcpQueueEntry for why both are exact). While
/// a lock has one toucher, its rule-(a) cells are not built: the sections
/// log their accesses in their entries (WcpLockState::Releases).
/// Queue-length telemetry (Table 1 column 11) is reported in terms of the
/// *abstract* per-(ℓ,t) queues so the numbers are comparable with the
/// paper.
///
/// Memory: a lock's queue, cells and cursors are vectors that keep their
/// capacity, and snapshots live in one pool whose freed slots are reused.
/// Per-event processing therefore does not allocate for traces of at most
/// VectorClock::kInlineThreads threads once the arrays stop growing; what
/// remains is their growth, the pool's and the lock table's, and race
/// reports.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_WCP_WCPSTATE_H
#define RAPID_WCP_WCPSTATE_H

#include "support/Ids.h"
#include "vc/VectorClock.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rapid {

/// Names no snapshot (an open section's H side, a lock never released).
constexpr uint32_t kWcpNoSnapshot = UINT32_MAX;

/// Immutable clock copies shared by reference count: the thread that took
/// one keeps a reference while its version is current, and every queue
/// entry and lock that names one holds another. A slot whose count drops
/// to zero goes on a free list and is reused (its clock keeps any heap
/// buffer), so snapshots cost no allocation once the pool stops growing.
class WcpSnapshots {
public:
  /// A new snapshot of \p C, holding one reference. Invalidates
  /// references returned by operator[].
  uint32_t take(const VectorClock &C) {
    uint32_t S = FreeHead;
    if (S == kWcpNoSnapshot) {
      S = static_cast<uint32_t>(Slots.size());
      Slots.emplace_back();
    } else {
      FreeHead = Slots[S].NextFree;
    }
    Slots[S].Clock = C;
    Slots[S].Refs = 1;
    return S;
  }
  /// Points \p Ref, the one reference its holder keeps, at a snapshot of
  /// \p C: the slot itself is overwritten when no one else references it.
  void retake(uint32_t &Ref, const VectorClock &C) {
    if (Ref != kWcpNoSnapshot && Slots[Ref].Refs == 1) {
      Slots[Ref].Clock = C;
      return;
    }
    release(Ref);
    Ref = take(C);
  }
  void retain(uint32_t S) { ++Slots[S].Refs; }
  void release(uint32_t S) {
    if (S != kWcpNoSnapshot && --Slots[S].Refs == 0) {
      Slots[S].NextFree = FreeHead;
      FreeHead = S;
    }
  }
  /// Points the reference \p Ref at \p S.
  void assign(uint32_t &Ref, uint32_t S) {
    if (Ref == S)
      return;
    retain(S);
    release(Ref);
    Ref = S;
  }
  const VectorClock &operator[](uint32_t S) const {
    assert(Slots[S].Refs != 0 && "snapshot read after release");
    return Slots[S].Clock;
  }
  /// The pool's slots (a clock wider than kInlineThreads also holds a
  /// heap buffer, not counted).
  uint64_t bytes() const { return Slots.capacity() * sizeof(Slot); }

private:
  struct Slot {
    VectorClock Clock;
    uint32_t Refs = 0;
    uint32_t NextFree = kWcpNoSnapshot;
  };
  std::vector<Slot> Slots;
  uint32_t FreeHead = kWcpNoSnapshot;
};

/// One critical section, shared across the abstract per-thread queues of
/// its lock. Its acquire's C_a is held as the epoch AcquireN@Thread and,
/// once the section closed, its release's H_r as snapshot ReleaseH with
/// component Thread set to ReleaseN (the snapshot's own component never
/// exceeds ReleaseN: it was taken at or before the release).
///
/// Epochs are exact for both, the property FastTrack uses for HB, here
/// for P as well. Every P and H clock of the walk is a join of H-times
/// that threads published: at a release (into H_ℓ and the queue), at a
/// fork (to the child), at a join (the child's last one); P_ℓ is a P
/// clock, and K carries a P along every fork/join edge it follows. N_u
/// advances right after each release and fork of u, so the only
/// publications of u whose u-component is at least N_e, for an event e
/// of u, are the ones at or after e, and each covers H_u at e, which
/// covers P_u at e (P_t ⊑ H_t throughout). Hence, for such a clock V:
///
///   * H_r ⊑ V iff V(u) ≥ N_r, for a release r of u;
///   * C_a ⊑ C_t iff max(P_t(u), K_t(u)) ≥ N_a, for an acquire a of
///     u ≠ t: C_a = P_u at a, with N_a for u, and the thread that knows
///     u at N_a or later learned a P_u from at or after a with it.
///
/// So rule (b)'s guard reads one component, a join of H_r is skipped
/// without reading the snapshot when the target already knows N_r, and
/// collection tests one component.
struct WcpQueueEntry {
  uint32_t Thread;                     ///< Thread of the critical section.
  ClockValue AcquireN;                 ///< N_t at the acquire.
  ClockValue ReleaseN = 0;             ///< N_t at the release.
  uint32_t ReleaseH = kWcpNoSnapshot;  ///< Snapshot of H_t at the release.
  /// While the lock has one toucher, the section logs its accesses here
  /// instead of in the lock's rule-(a) cells (WcpLockState::Logging):
  /// (x << 2) | kLoggedRead | kLoggedWrite for the one variable x it
  /// accessed, or kNotLogged.
  uint32_t Logged = kNotLogged;

  static constexpr uint32_t kNotLogged = UINT32_MAX;
  static constexpr uint32_t kLoggedRead = 1;
  static constexpr uint32_t kLoggedWrite = 2;

  bool hasRelease() const { return ReleaseH != kWcpNoSnapshot; }

  /// Logs a read or write of \p X; false when the section already logged
  /// another variable or X's id does not fit the log.
  bool log(VarId X, bool IsWrite) {
    if (X.value() >= kNotLogged >> 2)
      return false;
    const uint32_t Kind = IsWrite ? kLoggedWrite : kLoggedRead;
    if (Logged == kNotLogged)
      Logged = X.value() << 2 | Kind;
    else if (Logged >> 2 == X.value())
      Logged |= Kind;
    else
      return false;
    return true;
  }
};
static_assert(sizeof(WcpQueueEntry) == 20, "queue entry grew");

/// A lock's shared queue: the entries [Head, end) of one vector. A push
/// into a full vector first drops the popped prefix when at most half of
/// it is live, so pushes and pops cost O(1) amortized, a queue whose
/// length stays bounded stops allocating, and the entries of a lock stay
/// contiguous.
class WcpEntryQueue {
public:
  size_t size() const { return Data.size() - Head; }
  bool empty() const { return Head == Data.size(); }
  WcpQueueEntry &operator[](size_t I) {
    assert(I < size() && "queue index out of range");
    return Data[Head + I];
  }
  WcpQueueEntry &front() { return (*this)[0]; }
  WcpQueueEntry &back() { return Data.back(); }

  /// Appends \p E, adding the bytes of any growth to \p Bytes.
  void pushBack(const WcpQueueEntry &E, uint64_t &Bytes) {
    if (Data.size() == Data.capacity()) {
      if (Head != 0 && 2 * Head >= Data.size()) {
        Data.erase(Data.begin(), Data.begin() + static_cast<ptrdiff_t>(Head));
        Head = 0;
      } else {
        // A lock's first block holds 16 entries: a thread-private lock
        // keeps all of its entries (collection waits for every thread's
        // cursor to pass them), and on xalan most keep about that many.
        const size_t Old = Data.capacity();
        Data.reserve(std::max<size_t>(16, 2 * Old));
        Bytes += (Data.capacity() - Old) * sizeof(WcpQueueEntry);
      }
    }
    Data.push_back(E);
  }
  void popFront() {
    assert(!empty() && "pop from an empty queue");
    if (++Head == Data.size()) {
      Data.clear(); // Empty: refill from the start.
      Head = 0;
    }
  }

private:
  std::vector<WcpQueueEntry> Data;
  size_t Head = 0;
};

/// One L^r_{ℓ,x} / L^w_{ℓ,x} cell, held by reference: the logical queue
/// indices of the latest release of ℓ whose section read (or wrote) x, and of the latest such
/// release by a thread other than that one's.
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
// Every access inside a critical section of a lock with cells reads and
// writes a cell: keep one to a cache line.
static_assert(sizeof(WcpVarReleases) <= 64, "rule-(a) cell grew");

/// One lock's L^r/L^w cells, keyed by variable: open addressing with
/// linear probing over a power-of-two slot array, at most 3/4 full. A
/// lock's sections touch few variables, so the table stays a few slots
/// wide and a lookup is one or two probes.
class WcpReleaseTable {
public:
  /// The cell of \p X, created empty (no release recorded) on first use;
  /// adds the bytes of any growth to \p Bytes.
  WcpVarReleases &cell(VarId X, uint64_t &Bytes) {
    if (4 * (Used + 1) > 3 * Slots.size()) {
      const size_t Old = Slots.size();
      rehash(Old == 0 ? 4 : 2 * Old);
      Bytes += (Slots.size() - Old) * sizeof(WcpVarReleases);
    }
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
    for (const WcpVarReleases &S : Old) {
      if (S.Var == WcpVarReleases::kEmpty)
        continue;
      size_t I = home(S.Var);
      while (Slots[I].Var != WcpVarReleases::kEmpty)
        I = (I + 1) & (Slots.size() - 1);
      Slots[I] = S;
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

/// Per-lock state, empty until the lock is used: no release yet (P_ℓ =
/// H_ℓ = ⊥) and no arrays. A thread beyond the per-thread array's size
/// reads as the zero state, so a lock holds no per-thread memory until
/// some thread acquires it. The fields an acquire, an access and a
/// release read come first; the whole state is two cache lines.
struct WcpLockState {
  static constexpr uint32_t kNoThread = ThreadId::invalid().value();

  /// The last release of ℓ: P_ℓ is snapshot LastP, and H_ℓ is snapshot
  /// LastH with component LastThread set to LastN.
  uint32_t LastThread = kNoThread;
  ClockValue LastN = 0;
  uint32_t LastP = kWcpNoSnapshot;
  uint32_t LastH = kWcpNoSnapshot;

  /// Shared queue buffer; logical index of Entries[i] is Base + i.
  WcpEntryQueue Entries;
  uint64_t Base = 0;

  /// L^r_{ℓ,x} / L^w_{ℓ,x} for every x, once built: while ℓ has had at
  /// most one toucher, every release of ℓ is that thread's own, so no
  /// access in a section on ℓ has anything to join, and the sections log
  /// their accesses in their queue entries (WcpQueueEntry::Logged), which
  /// the acquire already brought into cache. A second toucher, or a
  /// section that does not fit the log, builds the cells from the logs of
  /// the retained entries (WcpDetector::buildCells).
  WcpReleaseTable Releases;

  /// Per-thread cursors and touched flags, one array so a lock operation
  /// reads one buffer.
  std::vector<WcpLockThread> PerThread;
  /// Threads [0, Cursors) have a cursor of their own; later ones sit
  /// implicitly at 0 for collection (see collectibleEnd).
  uint32_t Cursors = 0;
  /// Live-queue telemetry, the "live" portion of the paper's column 11
  /// metric: the threads that have acquired ℓ. Every toucher's abstract
  /// queues hold all retained entries but its own and the ones it popped
  /// (see queuedCopies).
  uint32_t Touchers = 0;
  /// Accesses are logged in the queue entries; the cells are not built.
  bool Logging = true;

  uint64_t logicalEnd() const { return Base + Entries.size(); }
  WcpQueueEntry &entry(uint64_t LogicalIdx) {
    assert(LogicalIdx >= Base && LogicalIdx < logicalEnd() &&
           "queue entry out of range");
    return Entries[LogicalIdx - Base];
  }
  /// The entry of the release a rule-(a) cell names by \p LogicalIdx, or
  /// nullptr for WcpReleaseClocks::kNone and for a collected entry (one
  /// every thread in a section on ℓ already covers; see WcpReleaseClocks).
  const WcpQueueEntry *releaseEntry(uint64_t LogicalIdx) {
    if (LogicalIdx == WcpReleaseClocks::kNone || LogicalIdx < Base)
      return nullptr;
    const WcpQueueEntry &E = entry(LogicalIdx);
    assert(E.hasRelease() && "rule-(a) cell names an open section");
    return &E;
  }

  /// The Acq+Rel copies of the retained entries, one per enqueue and one
  /// per release: at most one section of a lock is open at a time, and
  /// its entry is the last.
  uint64_t queuedCopies() {
    return 2 * Entries.size() -
           (!Entries.empty() && !Entries.back().hasRelease());
  }

  /// Growable component accessors (untouched defaults, exactly the batch
  /// constructor's initial state — except the cursor, which starts at
  /// Base: entries below it were collected under the invariant that
  /// their release times already flow to every possible future thread
  /// through P_ℓ, so skipping them is a semantic no-op; see
  /// WcpDetector::collectLockGarbage). Both add the bytes of any growth
  /// to \p Bytes.
  WcpLockThread &threadOf(uint32_t T, uint64_t &Bytes) {
    if (T >= PerThread.size()) {
      const size_t Old = PerThread.capacity();
      PerThread.resize(T + 1);
      Bytes += (PerThread.capacity() - Old) * sizeof(WcpLockThread);
    }
    return PerThread[T];
  }
  uint64_t &cursorOf(uint32_t T, uint64_t &Bytes) {
    if (T >= Cursors) {
      threadOf(T, Bytes);
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
  /// Versions of P / K / H's non-own part: bumped on every mutation of
  /// the respective clock (spurious bumps only cost a redundant snapshot
  /// or broadcast; a missed bump would be unsound, so every joinWith site
  /// bumps). PEpoch and HEpoch decide when a new snapshot is due; capture
  /// mode reuses a thread's last broadcast clocks while PEpoch/KEpoch
  /// match, without an O(threads) content compare.
  uint64_t PEpoch = 1;
  uint64_t KEpoch = 1;
  uint64_t HEpoch = 1;
  /// The snapshots of P_t and H_t last taken, and the versions they show
  /// (0: none yet). The thread holds one reference to each.
  uint32_t PSnap = kWcpNoSnapshot;
  uint32_t HSnap = kWcpNoSnapshot;
  uint64_t PSnapEpoch = 0;
  uint64_t HSnapEpoch = 0;
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
