//===- examples/interpose/librace_interpose.cpp - LD_PRELOAD shim -------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// A live-attach event source for unmodified pthread programs:
//
//   LD_PRELOAD=./librace_interpose.so RACE_SERVER=/tmp/raced.sock ./app
//
// wraps pthread_create/join, the pthread_mutex lock calls and the
// condvar waits, stamps each captured operation with a global sequence
// number, buffers records in per-thread logs, and a background flusher
// merges consistent cuts into one globally ordered §2.1-valid stream —
// pushed to a race_serverd session as wire frames (RACE_SERVER) and/or
// appended to a text trace (RACE_RECORD) that race_cli replays offline,
// bit-for-bit.
//
// Shared-memory accesses cannot be interposed without compiler help, so
// programs mark the ones to model via race_annotate.h (weak symbol; see
// that header). Environment: RACE_SERVER (unix socket path), RACE_RECORD
// (text trace path), RACE_FLUSH_MS (flush cadence, default 50),
// RACE_RETRY_MAX (reconnect attempts per outage, default 8; 0 = a plain
// connection without resume).
//
// Capture rules that make the merged stream well-formed:
//   - acquire is stamped AFTER the real lock returns (inside the critical
//     section), release BEFORE the real unlock (still inside) — two
//     critical sections on one mutex can never interleave in the stream;
//     trylock/timedlock emit their acquire only when they succeed;
//   - a condvar wait is a release stamped before the real wait and an
//     acquire stamped after it returns (the mutex is held again on every
//     return), for the outermost hold only — glibc does not release a
//     recursive mutex locked more than once;
//   - fork is stamped before the real pthread_create, so the child's
//     first event always lands after it; join after the real join
//     returns, so the child's last event lands before it;
//   - recursive re-locks are depth-counted per thread and only the
//     outermost pair is modeled; an unlock with no modeled lock is
//     skipped, never emitted unmatched.
//
// Known model limits (documented in docs/SERVING.md): a condvar signal
// is not itself an edge (the wakeup's reacquire is); reader-writer locks,
// barriers, semaphores, spinlocks, clocklock and atomics are not modeled.
//
// Streaming goes through WireClient (serve/WireClient.h, linked from the
// position-independent rapid_wire objects), including its resume
// protocol: when the server grants a token, a lost connection is resumed
// exactly-once within RACE_RETRY_MAX attempts. The transport never fails
// the host program, and only the flusher and the exit path ever wait on
// it (bounded by the retry policy and the report timeout). Any permanent
// loss (server unreachable at start, retries exhausted, a tokenless
// session cut off) stops streaming with one warning; RACE_RECORD keeps
// recording.
//
//===----------------------------------------------------------------------===//

#include "serve/WireClient.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include <dlfcn.h>
#include <pthread.h>
#include <sched.h>
#include <time.h>

using namespace rapid;

namespace {

// ---- Real functions ---------------------------------------------------------

using CreateFn = int (*)(pthread_t *, const pthread_attr_t *,
                         void *(*)(void *), void *);
using JoinFn = int (*)(pthread_t, void **);
using MutexFn = int (*)(pthread_mutex_t *);
using TimedLockFn = int (*)(pthread_mutex_t *, const timespec *);
using CondWaitFn = int (*)(pthread_cond_t *, pthread_mutex_t *);
using CondTimedWaitFn = int (*)(pthread_cond_t *, pthread_mutex_t *,
                                const timespec *);

CreateFn RealCreate;
JoinFn RealJoin;
MutexFn RealLock;
MutexFn RealUnlock;
MutexFn RealTryLock;
TimedLockFn RealTimedLock;
CondWaitFn RealCondWait;
CondTimedWaitFn RealCondTimedWait;

template <typename Fn> void resolve(Fn &Out, const char *Name) {
  Out = reinterpret_cast<Fn>(dlsym(RTLD_NEXT, Name));
}

/// Plain dlsym can hand back glibc's GLIBC_2.2.5 compat condvar function,
/// which expects the old pthread_cond_t layout; then ask for the current
/// x86-64 ABI (GLIBC_2.3.2) by version. Any other answer — a sanitizer
/// runtime's interceptor ahead of libc included — is kept as is.
template <typename Fn> void resolveCond(Fn &Out, const char *Name) {
  resolve(Out, Name);
  void *Compat = dlvsym(RTLD_NEXT, Name, "GLIBC_2.2.5");
  if (Compat && reinterpret_cast<void *>(Out) == Compat)
    Out = reinterpret_cast<Fn>(dlvsym(RTLD_NEXT, Name, "GLIBC_2.3.2"));
}

void resolveReals() {
  resolve(RealCreate, "pthread_create");
  resolve(RealJoin, "pthread_join");
  resolve(RealLock, "pthread_mutex_lock");
  resolve(RealUnlock, "pthread_mutex_unlock");
  resolve(RealTryLock, "pthread_mutex_trylock");
  resolve(RealTimedLock, "pthread_mutex_timedlock");
  resolveCond(RealCondWait, "pthread_cond_wait");
  resolveCond(RealCondTimedWait, "pthread_cond_timedwait");
}

/// Wrappers can run before the constructor (from other libraries'
/// initializers), so each one resolves the real functions on first use.
void ensureReals() {
  if (!RealUnlock)
    resolveReals();
}

// ---- State ------------------------------------------------------------------

struct SpinLock {
  std::atomic_flag F = ATOMIC_FLAG_INIT;
  void lock() {
    while (F.test_and_set(std::memory_order_acquire))
      sched_yield();
  }
  void unlock() { F.clear(std::memory_order_release); }
};

/// One captured operation. Seq is the global stamp; merge-sorting cuts by
/// it reproduces a single §2.1-consistent interleaving.
struct Rec {
  uint64_t Seq;
  uint8_t Kind; ///< EventKind value (0 read .. 5 join).
  uint32_t Thread, Target, Loc;
};

/// Per-thread capture log. Buf is guarded by M (owner appends, flusher
/// swaps); HeldDepth is owner-only.
struct ThreadLog {
  SpinLock M;
  std::vector<Rec> Buf;
  uint32_t Tid = 0;
  /// Modeled lock id -> recursion depth (only the 0<->1 edges emit).
  std::unordered_map<uint32_t, uint32_t> HeldDepth;
};

struct State {
  SpinLock RegM;
  std::vector<ThreadLog *> Threads; ///< Every log ever created (leaked).
  std::unordered_map<const void *, uint32_t> MutexIds;
  std::unordered_map<std::string, uint32_t> VarIds, LocIds;
  std::unordered_map<uintptr_t, uint32_t> JoinIds; ///< pthread_t -> tid.
  std::vector<std::string> ThreadNames, LockNames, VarNames, LocNames;
  std::string PendingDecl; ///< Declare payload staged since last flush.

  std::atomic<uint64_t> Seq{1};
  uint32_t RtLoc = 0; ///< Loc id for runtime (non-annotated) events.

  std::FILE *Record = nullptr;
  unsigned FlushMs = 50;
  std::atomic<bool> Stop{false};
  pthread_t Flusher{};
  bool FlusherStarted = false;

  /// The live session. Only one thread uses it at a time (the flusher, or
  /// the destructor after joining it), so it needs no lock. Streaming
  /// turns false for good on the first permanent transport failure.
  WireClient Server;
  bool Streaming = false;
};

State *St; // Heap-allocated, never freed: immune to static-dtor order.

thread_local ThreadLog *TL;
thread_local bool InHook;

/// RAII passthrough guard: wrappers entered while set call the real
/// function without recording (our own internals, nested wrappers).
struct HookGuard {
  bool Owned;
  HookGuard() : Owned(!InHook) { InHook = true; }
  ~HookGuard() {
    if (Owned)
      InHook = false;
  }
};

// ---- Interning (RegM held by caller) ---------------------------------------

void stageDecl(WireDeclareKind K, const std::string &Name) {
  wireDeclareEntry(St->PendingDecl, K, Name);
}

ThreadLog *newThreadLocked() {
  ThreadLog *L = new ThreadLog;
  L->Tid = static_cast<uint32_t>(St->ThreadNames.size());
  St->ThreadNames.push_back("T" + std::to_string(L->Tid + 1));
  stageDecl(WireDeclareKind::Thread, St->ThreadNames.back());
  St->Threads.push_back(L);
  return L;
}

/// Interns an annotation name (a variable or a location) into one table.
uint32_t internNameLocked(std::unordered_map<std::string, uint32_t> &Ids,
                          std::vector<std::string> &Names, WireDeclareKind K,
                          const std::string &Name) {
  auto It = Ids.find(Name);
  if (It != Ids.end())
    return It->second;
  const uint32_t Id = static_cast<uint32_t>(Names.size());
  Names.push_back(Name);
  stageDecl(K, Name);
  Ids.emplace(Name, Id);
  return Id;
}

uint32_t internLocLocked(const std::string &Name) {
  return internNameLocked(St->LocIds, St->LocNames, WireDeclareKind::Loc,
                          Name);
}

ThreadLog *ensureThread() {
  if (!TL) {
    St->RegM.lock();
    TL = newThreadLocked();
    St->RegM.unlock();
  }
  return TL;
}

/// Stamp + append under the owner's log lock — the atomicity the
/// flusher's consistent cut depends on.
void record(ThreadLog *L, uint8_t Kind, uint32_t Target, uint32_t Loc) {
  L->M.lock();
  const uint64_t S = St->Seq.fetch_add(1, std::memory_order_relaxed);
  L->Buf.push_back(Rec{S, Kind, L->Tid, Target, Loc});
  L->M.unlock();
}

/// Interns \p M (takes the registry lock itself).
uint32_t mutexId(const pthread_mutex_t *M) {
  St->RegM.lock();
  auto It = St->MutexIds.find(M);
  if (It == St->MutexIds.end()) {
    const uint32_t New = static_cast<uint32_t>(St->LockNames.size());
    St->LockNames.push_back("M" + std::to_string(New + 1));
    stageDecl(WireDeclareKind::Lock, St->LockNames.back());
    It = St->MutexIds.emplace(M, New).first;
  }
  const uint32_t Id = It->second;
  St->RegM.unlock();
  return Id;
}

/// A lock call (lock, trylock, timedlock) that emits its acquire only on
/// success, stamped while the real lock is held; only the outermost level
/// of a recursive mutex is modeled.
template <typename LockFn> int modelLock(pthread_mutex_t *M, LockFn Lock) {
  ensureReals();
  if (InHook || !St)
    return Lock();
  HookGuard G;
  const int R = Lock();
  if (R == 0) {
    ThreadLog *Self = ensureThread();
    const uint32_t Id = mutexId(M);
    if (++Self->HeldDepth[Id] == 1)
      record(Self, 2 /*acq*/, Id, St->RtLoc);
  }
  return R;
}

/// A condvar wait: release stamped before the real wait (the mutex is
/// still held), acquire after it returns (held again on every return).
/// Only the outermost hold is modeled: glibc's wait does not release a
/// recursive mutex locked more than once.
template <typename WaitFn> int modelWait(pthread_mutex_t *M, WaitFn Wait) {
  ensureReals();
  if (InHook || !St)
    return Wait();
  HookGuard G;
  ThreadLog *Self = ensureThread();
  const uint32_t Id = mutexId(M);
  auto It = Self->HeldDepth.find(Id);
  const bool Outer = It != Self->HeldDepth.end() && It->second == 1;
  if (Outer)
    record(Self, 3 /*rel*/, Id, St->RtLoc);
  const int R = Wait();
  if (Outer)
    record(Self, 2 /*acq*/, Id, St->RtLoc);
  return R;
}

// ---- Flushing ---------------------------------------------------------------

const char *kindOp(uint8_t K) {
  static const char *Ops[] = {"r", "w", "acq", "rel", "fork", "join"};
  return Ops[K];
}

/// Permanent transport failure: warn once and go on recording only.
void stopStreaming(const Status &Why) {
  St->Streaming = false;
  St->Server.close();
  std::fprintf(stderr, "librace_interpose: streaming stopped: %s\n",
               Why.str().c_str());
}

/// One consistent cut: with RegM held, take every thread lock, swap all
/// buffers, release. Any record stamped after the cut has a larger seq
/// than every record inside it (stamps happen under the thread locks),
/// so consecutive cuts are nested prefixes of one global interleaving.
/// Declares are snapshotted in the same RegM critical section — an id an
/// included event references was interned (and staged) before its append,
/// hence before this cut.
void flushOnce() {
  std::string Decl;
  std::vector<Rec> Cut;
  std::string Text;

  St->RegM.lock();
  Decl.swap(St->PendingDecl);
  for (ThreadLog *L : St->Threads)
    L->M.lock();
  for (ThreadLog *L : St->Threads) {
    Cut.insert(Cut.end(), L->Buf.begin(), L->Buf.end());
    L->Buf.clear();
  }
  for (ThreadLog *L : St->Threads)
    L->M.unlock();

  std::sort(Cut.begin(), Cut.end(),
            [](const Rec &A, const Rec &B) { return A.Seq < B.Seq; });

  // Render both outputs while RegM still pins the name tables.
  if (St->Record) {
    for (const Rec &R : Cut) {
      Text += St->ThreadNames[R.Thread];
      Text += '|';
      Text += kindOp(R.Kind);
      Text += '(';
      Text += R.Kind <= 1   ? St->VarNames[R.Target]
              : R.Kind <= 3 ? St->LockNames[R.Target]
                            : St->ThreadNames[R.Target];
      Text += ")|";
      Text += St->LocNames[R.Loc];
      Text += '\n';
    }
  }
  St->RegM.unlock();

  if (St->Streaming) {
    std::string DF;
    if (!Decl.empty())
      wireAppendFrame(DF, WireFrame::Declare, Decl);
    Status S = St->Server.sendDeclareFrames(DF);
    constexpr size_t BatchRecords = 8192;
    for (size_t I = 0; S.ok() && I < Cut.size(); I += BatchRecords) {
      const size_t N = std::min(BatchRecords, Cut.size() - I);
      std::string P;
      P.reserve(12 + N * WireEventRecordSize);
      wireEventsHeader(P, St->Server.eventsSent(), static_cast<uint32_t>(N));
      for (size_t K = 0; K != N; ++K) {
        const Rec &R = Cut[I + K];
        wireEventRecord(P, R.Kind, R.Thread, R.Target, R.Loc);
      }
      std::string EF;
      wireAppendFrame(EF, WireFrame::Events, P);
      S = St->Server.sendEventsFrame(EF);
    }
    if (!S.ok())
      stopStreaming(S);
  }
  if (St->Record && !Text.empty()) {
    std::fwrite(Text.data(), 1, Text.size(), St->Record);
    std::fflush(St->Record);
  }
}

void *flusherMain(void *) {
  InHook = true; // Our internal thread: never record its pthread use.
  while (!St->Stop.load(std::memory_order_relaxed)) {
    timespec TS{0, static_cast<long>(St->FlushMs) * 1000000L};
    nanosleep(&TS, nullptr);
    flushOnce();
  }
  return nullptr;
}

// ---- Init / shutdown --------------------------------------------------------

__attribute__((constructor)) void interposeInit() {
  InHook = true;
  resolveReals();
  St = new State;
  St->RegM.lock();
  St->RtLoc = internLocLocked("rt");
  TL = newThreadLocked(); // The main thread is T1.
  St->RegM.unlock();
  if (const char *Ms = std::getenv("RACE_FLUSH_MS"))
    St->FlushMs = static_cast<unsigned>(std::strtoul(Ms, nullptr, 10));
  if (St->FlushMs == 0)
    St->FlushMs = 50;
  if (const char *Path = std::getenv("RACE_RECORD")) {
    St->Record = std::fopen(Path, "wb");
    if (!St->Record)
      std::fprintf(stderr, "librace_interpose: cannot write '%s'\n", Path);
  }
  if (const char *Path = std::getenv("RACE_SERVER")) {
    const char *Retry = std::getenv("RACE_RETRY_MAX");
    const int RetryMax = Retry ? std::atoi(Retry) : 8;
    Status S;
    if (RetryMax > 0) {
      S = St->Server.connectResumable(Path, 0,
                                      WireRetryPolicy::perProcess(RetryMax));
    } else {
      S = St->Server.connectUnix(Path);
      if (S.ok())
        S = St->Server.sendHello();
    }
    St->Streaming = S.ok();
    if (!S.ok())
      std::fprintf(stderr,
                   "librace_interpose: cannot reach RACE_SERVER '%s': %s "
                   "(recording only)\n",
                   Path, S.str().c_str());
  }
  if (RealCreate &&
      RealCreate(&St->Flusher, nullptr, flusherMain, nullptr) == 0)
    St->FlusherStarted = true;
  InHook = false;
}

__attribute__((destructor)) void interposeFini() {
  InHook = true;
  St->Stop.store(true, std::memory_order_relaxed);
  if (St->FlusherStarted && RealJoin)
    RealJoin(St->Flusher, nullptr);
  flushOnce();
  if (St->Streaming) {
    // Wait for the Report, so the session is finalized (and retained
    // server-side) before this process disappears.
    std::string Report;
    Status S = St->Server.sendFinishReliable();
    if (S.ok())
      S = St->Server.awaitReport(Report);
    if (!S.ok())
      stopStreaming(S);
    St->Server.close();
  }
  if (St->Record) {
    std::fclose(St->Record);
    St->Record = nullptr;
  }
}

} // namespace

// ---- Interposed entry points ------------------------------------------------
//
// The only symbols the shared object exports (everything else is built
// with hidden visibility).

#pragma GCC visibility push(default)
extern "C" {

struct RaceStartArg {
  void *(*Fn)(void *);
  void *Arg;
  ThreadLog *Log;
};

static void *raceTrampoline(void *P) {
  RaceStartArg *A = static_cast<RaceStartArg *>(P);
  TL = A->Log;
  void *(*Fn)(void *) = A->Fn;
  void *Arg = A->Arg;
  delete A;
  return Fn(Arg);
}

int pthread_create(pthread_t *Th, const pthread_attr_t *Attr,
                   void *(*Fn)(void *), void *Arg) {
  ensureReals();
  if (InHook || !St)
    return RealCreate(Th, Attr, Fn, Arg);
  HookGuard G;
  ThreadLog *Self = ensureThread();
  St->RegM.lock();
  ThreadLog *Child = newThreadLocked();
  St->RegM.unlock();
  // Fork stamped before the real create: the child's first event (stamped
  // after the real thread starts) always lands later in the cut order.
  record(Self, 4 /*fork*/, Child->Tid, St->RtLoc);
  RaceStartArg *A = new RaceStartArg{Fn, Arg, Child};
  const int R = RealCreate(Th, Attr, raceTrampoline, A);
  if (R == 0) {
    St->RegM.lock();
    St->JoinIds[reinterpret_cast<uintptr_t>(*Th)] = Child->Tid;
    St->RegM.unlock();
  }
  return R;
}

int pthread_join(pthread_t Th, void **Ret) {
  ensureReals();
  if (InHook || !St)
    return RealJoin(Th, Ret);
  HookGuard G;
  const int R = RealJoin(Th, Ret);
  if (R == 0) {
    ThreadLog *Self = ensureThread();
    St->RegM.lock();
    auto It = St->JoinIds.find(reinterpret_cast<uintptr_t>(Th));
    const bool Known = It != St->JoinIds.end();
    const uint32_t Tid = Known ? It->second : 0;
    St->RegM.unlock();
    // Join stamped after the real join returned: every event of the
    // joined thread is already stamped, so it lands earlier in the cut.
    if (Known)
      record(Self, 5 /*join*/, Tid, St->RtLoc);
  }
  return R;
}

int pthread_mutex_lock(pthread_mutex_t *M) {
  return modelLock(M, [M] { return RealLock(M); });
}

int pthread_mutex_trylock(pthread_mutex_t *M) {
  return modelLock(M, [M] { return RealTryLock(M); });
}

int pthread_mutex_timedlock(pthread_mutex_t *M, const timespec *Abs) {
  return modelLock(M, [M, Abs] { return RealTimedLock(M, Abs); });
}

int pthread_mutex_unlock(pthread_mutex_t *M) {
  ensureReals();
  if (InHook || !St)
    return RealUnlock(M);
  HookGuard G;
  ThreadLog *Self = ensureThread();
  const uint32_t Id = mutexId(M);
  // Release stamped before the real unlock (still inside the critical
  // section). Unmatched unlocks (depth 0: the lock was taken before the
  // shim could see it) are skipped, never emitted as bare releases.
  auto It = Self->HeldDepth.find(Id);
  if (It != Self->HeldDepth.end() && It->second != 0 && --It->second == 0)
    record(Self, 3 /*rel*/, Id, St->RtLoc);
  return RealUnlock(M);
}

int pthread_cond_wait(pthread_cond_t *C, pthread_mutex_t *M) {
  return modelWait(M, [C, M] { return RealCondWait(C, M); });
}

int pthread_cond_timedwait(pthread_cond_t *C, pthread_mutex_t *M,
                           const timespec *Abs) {
  return modelWait(M, [C, M, Abs] { return RealCondTimedWait(C, M, Abs); });
}

void race_annotate_access(int IsWrite, const void *Addr, const char *Var,
                          const char *Loc) {
  if (InHook || !St)
    return;
  HookGuard G;
  ThreadLog *Self = ensureThread();
  char AddrName[32];
  if (!Var) {
    std::snprintf(AddrName, sizeof(AddrName), "V%p", Addr);
    Var = AddrName;
  }
  St->RegM.lock();
  const uint32_t V =
      internNameLocked(St->VarIds, St->VarNames, WireDeclareKind::Var, Var);
  const uint32_t L = Loc ? internLocLocked(Loc) : St->RtLoc;
  St->RegM.unlock();
  record(Self, IsWrite ? 1 : 0, V, L);
}

} // extern "C"
#pragma GCC visibility pop
