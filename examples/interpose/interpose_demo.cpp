//===- examples/interpose/interpose_demo.cpp - Annotated pthread demo ---------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// A small pthread workload for the LD_PRELOAD interposer: N workers wait
// at a condvar start gate, then bump one mutex-protected counter (never
// racy; taken by lock, a trylock spin and timedlock in turn) and one
// deliberately unprotected counter (racy by construction, and annotated
// so the analysis models it). Run it live against a server, recording the
// same stream for offline replay:
//
//   LD_PRELOAD=./librace_interpose.so RACE_SERVER=/tmp/raced.sock
//     RACE_RECORD=/tmp/demo.txt ./interpose_demo        (one command line)
//
// The unprotected accesses are performed with relaxed atomics: the
// *modeled* trace still has the data race (the annotations carry no lock
// protection), but the binary itself stays UB-free and ThreadSanitizer-
// silent — the point is predictive analysis of the modeled trace, not a
// crash demo. Tunables: RACE_DEMO_THREADS (default 4), RACE_DEMO_ITERS
// (default 200), RACE_DEMO_SLEEP_US (default 500).
//
//===----------------------------------------------------------------------===//

#include "race_annotate.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

#include <pthread.h>
#include <sched.h>
#include <time.h>

namespace {

pthread_mutex_t CounterMutex = PTHREAD_MUTEX_INITIALIZER;
long Protected;            // Always accessed under CounterMutex.
unsigned long Racy;        // Accessed lock-free (relaxed atomics).

// The start gate: workers check in and wait until main opens it.
pthread_mutex_t GateMutex = PTHREAD_MUTEX_INITIALIZER;
pthread_cond_t GateCv = PTHREAD_COND_INITIALIZER;
unsigned Ready;
bool Open;

struct WorkerArgs {
  int Iters;
  unsigned SleepUs;
};

void napUs(unsigned Us) {
  if (!Us)
    return;
  timespec TS{static_cast<time_t>(Us / 1000000),
              static_cast<long>(Us % 1000000) * 1000L};
  nanosleep(&TS, nullptr);
}

/// Takes CounterMutex three ways in turn: lock, a trylock spin, and
/// timedlock with a far deadline.
void lockCounter(int I) {
  if (I % 3 == 0) {
    pthread_mutex_lock(&CounterMutex);
  } else if (I % 3 == 1) {
    while (pthread_mutex_trylock(&CounterMutex) != 0)
      sched_yield();
  } else {
    timespec Deadline;
    clock_gettime(CLOCK_REALTIME, &Deadline);
    Deadline.tv_sec += 60;
    while (pthread_mutex_timedlock(&CounterMutex, &Deadline) != 0)
      ;
  }
}

void *worker(void *P) {
  const WorkerArgs *A = static_cast<const WorkerArgs *>(P);
  pthread_mutex_lock(&GateMutex);
  ++Ready;
  pthread_cond_broadcast(&GateCv);
  while (!Open)
    pthread_cond_wait(&GateCv, &GateMutex);
  pthread_mutex_unlock(&GateMutex);

  for (int I = 0; I != A->Iters; ++I) {
    lockCounter(I);
    RACE_WRITE(&Protected, "protected");
    ++Protected;
    pthread_mutex_unlock(&CounterMutex);

    RACE_READ(&Racy, "racy");
    const unsigned long V = __atomic_load_n(&Racy, __ATOMIC_RELAXED);
    RACE_WRITE(&Racy, "racy");
    __atomic_store_n(&Racy, V + 1, __ATOMIC_RELAXED);

    napUs(A->SleepUs);
  }
  return nullptr;
}

unsigned envOr(const char *Name, unsigned Default) {
  const char *V = std::getenv(Name);
  return V ? static_cast<unsigned>(std::strtoul(V, nullptr, 10)) : Default;
}

} // namespace

int main() {
  const unsigned Threads = envOr("RACE_DEMO_THREADS", 4);
  WorkerArgs Args{static_cast<int>(envOr("RACE_DEMO_ITERS", 200)),
                  envOr("RACE_DEMO_SLEEP_US", 500)};

  std::vector<pthread_t> Ids(Threads);
  for (unsigned T = 0; T != Threads; ++T) {
    if (pthread_create(&Ids[T], nullptr, worker, &Args) != 0) {
      std::fprintf(stderr, "pthread_create failed\n");
      return 1;
    }
  }
  // Every worker checks in (and waits, releasing GateMutex inside the
  // wait) before the gate opens; main waits with a deadline.
  pthread_mutex_lock(&GateMutex);
  while (Ready != Threads) {
    timespec Deadline;
    clock_gettime(CLOCK_REALTIME, &Deadline);
    Deadline.tv_sec += 1;
    pthread_cond_timedwait(&GateCv, &GateMutex, &Deadline);
  }
  Open = true;
  pthread_cond_broadcast(&GateCv);
  pthread_mutex_unlock(&GateMutex);

  for (unsigned T = 0; T != Threads; ++T)
    pthread_join(Ids[T], nullptr);

  std::printf("protected=%ld racy=%lu (annotated accesses: %s)\n", Protected,
              __atomic_load_n(&Racy, __ATOMIC_RELAXED),
              race_annotate_access ? "captured" : "not captured");
  return 0;
}
