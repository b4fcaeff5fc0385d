//===- api/AnalysisSession.cpp ------------------------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// The one analysis engine (analyzeTrace, at the bottom, is a session fed
// one in-memory trace): a single-producer / multi-consumer publication
// protocol over stable event storage. The producer (feed/feedFile on the
// caller's thread) appends events to the trace and mirrors the validated
// prefix into an EventStore (support/PublishedStore: chunked, append-only,
// pointers never invalidated), publishing with one atomic watermark store.
// Consumers read the published prefix *in place* — no lock on the hot
// path, no per-batch copy — and park on the store's eventcount when they
// catch up with the producer. The session mutex M guards the trace/id
// tables, validation and the producer's detector construction; no lane
// consumer ever takes it (the zero-event case aside, see below). All
// per-lane state shared with partialResult() sits behind a per-lane
// snapshot mutex; the lane's taken watermark is atomic as well, so
// progress() never takes it.
//
// Every run mode streams, with one consumer thread per lane running the
// shared wait/chunk loop (walkLane) over published ranges in place:
//
//   Sequential   the lane's detector walks each range (sequentialConsumer);
//   VarSharded   one capture consumer per lane runs the clock pass behind
//                ingestion; the captured AccessLog is itself published by
//                watermark, and per-shard drain tasks on the pool replay
//                committed accesses in place (detect/ShardChecker); only
//                the final trace-order merge waits for finish()
//                (varShardConsumer: the detector walk plus a per-chunk
//                commit and partition step; drainVarShard). It is the only
//                mode with a ThreadPool.
//
// Mid-stream table growth (text inputs intern lazily; push feeds may
// declare late) is free: detector state is growable end to end —
// implicit-zero vector clocks, grow-on-first-touch access histories,
// lockset and queue tables — so a lane built against a prefix of the id
// tables keeps analyzing bit-for-bit with one built against the final
// tables; no lane ever rebuilds or replays.
//
// Table visibility: the producer is the only thread that reads the id
// tables to build a detector. At the first publish (the store going from
// 0 events to more) publishLocked builds every lane's detector under M,
// then SnapM, against the tables as they stand, and records the table
// sizes var-sharded capture uses as sizing hints. The watermark store
// that follows orders those writes before each lane's first read of
// Rt.D, so a lane that observed a nonzero watermark finds its detector
// ready and never takes M. A factory that throws fails its own lane
// only. (Lanes used to take M to build their detector at their first
// batch; feedFile holds M for each whole chunk and re-takes it at once,
// so a lane that missed the first gap usually waited until ingestion
// ended — on a 1.05M-event .bin, HB and WCP started after the last chunk
// and half the wall time passed after the feed.) Only a session that
// publishes no event at all builds its detectors lane-side, in
// finishWalkedLane, after ingestion has stopped.
//
// Lock order. The session mutex M nests SnapM inside (M → SnapM). The
// var-sharded lane log mutex LogM also nests SnapM (LogM → SnapM). Shard
// mutexes (SM) and the store's internal wake mutex are leaves. M is never
// held together with LogM/SM.
//
//===----------------------------------------------------------------------===//

#include "api/AnalysisSession.h"

#include "detect/ShardedAccessHistory.h"
#include "obs/Metrics.h"
#include "obs/TraceRecorder.h"
#include "pipeline/ChunkedReader.h"
#include "support/GuardedTask.h"
#include "support/PublishedStore.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "trace/EventStore.h"
#include "trace/TraceValidator.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

using namespace rapid;

namespace {

/// Converts stage seconds to the integer nanoseconds the *_ns metrics use.
uint64_t toNs(double Seconds) {
  return Seconds <= 0 ? 0 : static_cast<uint64_t>(Seconds * 1e9);
}

/// Locks the deferred \p Lk, charging acquisition time to \p WaitNs when
/// metrics are enabled — the producer-side table/validation-lock probe
/// (consumers no longer take the session lock per batch; their only wait
/// is the store park, charged to *.park_ns). The disabled path is the
/// plain lock: no clock reads.
void lockCharged(std::unique_lock<std::mutex> &Lk, Counter WaitNs) {
  if (WaitNs.enabled()) {
    uint64_t T0 = obsNowNs();
    Lk.lock();
    WaitNs.add(obsNowNs() - T0);
  } else {
    Lk.lock();
  }
}

// ---- Session internals ------------------------------------------------------

/// Per-lane runtime shared between its consumer thread and
/// partialResult()/finish(). Fields below SnapM are guarded by it; the
/// detector pointer is written by the producer at the first publish
/// (under SnapM, before the watermark store), walked by the consumer and
/// snapshot-read (report copy, name) under SnapM as well.
struct LaneRuntime {
  std::string Label;    ///< Config name override ("" = detector's name()).
  std::string Fallback; ///< Kind name, for labeling failed lanes.
  DetectorFactory Make;

  std::mutex SnapM;
  std::unique_ptr<Detector> D;
  std::string Name;      ///< Resolved when the detector is built.
  /// Table sizes when the producer built D: var-sharded capture's sizing
  /// hints, published to the lane by the same watermark store as D.
  uint32_t HintThreads = 0;
  uint32_t HintVars = 0;
  RaceReport Final;      ///< Set by the consumer at drain time.
  Status LaneStatus;
  double Seconds = 0;    ///< Processing time, excluding waits.
  uint64_t Consumed = 0; ///< Events the lane's report covers.
  bool Done = false;
  /// Events the lane has taken from the store. Atomic so progress()
  /// reads it without SnapM — the serving layer's lag check must not wait
  /// on a slow (or blocked) lane.
  std::atomic<uint64_t> Taken{0};

  // Cached instrument handles (obs/Metrics.h; null when metrics are off)
  // plus the lane's timeline track. Written once at session start, then
  // only read — safe to use from the lane's consumer and pool tasks.
  Counter ConsumeNs;       ///< Detector processing time.
  Counter ParkNs;          ///< Time parked waiting for published events.
  Counter Batches;         ///< Published ranges processed (in place).
  Counter DrainNs;         ///< Var-sharded: shard replay time.
  Counter DrainBatches;    ///< Var-sharded: drain rounds replayed.
  Gauge CapturedAccesses;  ///< Var-sharded: deferred accesses logged.
  Gauge BroadcastClocks;   ///< Var-sharded: distinct clock snapshots.
  HighWater BatchEventsPeak; ///< Largest batch copied.
  HighWater LagEventsPeak;   ///< Peak published-minus-consumed lag.
  uint32_t Track = TraceRecorder::NoTrack;
};

// ---- Var-sharded-mode streaming state ---------------------------------------

/// One lane's shard-check runtime for the streamed var-sharded mode.
/// Cursors/Error/Seconds are guarded by the lane's LogM; the checker
/// itself by SM (claim under LogM, replay under SM — in place, against
/// the committed log — commit progress under LogM, so capture
/// publication, shard replay and partial snapshots all overlap without
/// sharing). WorkList is a PublishedStore so the drain task can read its
/// claimed range outside LogM while the capture consumer keeps appending:
/// growth never relocates an entry, and the LogM claim handshake provides
/// the happens-before (the store's own watermark is not used here).
struct VarShard {
  PublishedStore<uint32_t> WorkList; ///< Access indices, in trace order.
  uint64_t Claimed = 0;              ///< Handed to the drain task.
  uint64_t Completed = 0;            ///< Replayed into the checker.
  bool Scheduled = false;            ///< A drain task is in flight.
  std::string Error;
  double Seconds = 0;

  std::mutex SM;
  std::unique_ptr<ShardChecker> Checker; ///< Growable; built once.
};

/// Per-lane capture/publication state for the streamed var-sharded mode.
struct VarShardState {
  std::mutex LogM;
  std::condition_variable DrainCV; ///< Drain tasks signal progress.
  AccessLog *Log = nullptr;        ///< Owned via LogHolder; appended by the
                                   ///< capture detector under LogM → SnapM.
  std::unique_ptr<AccessLog> LogHolder;
  uint64_t Partitioned = 0;     ///< Accesses split into WorkLists so far.
  uint64_t CapturedEvents = 0;  ///< Trace events the clock pass covered.
  bool Capturing = false;       ///< Detector accepted beginCapture.
  ShardPlan Plan;               ///< Fixed at session start.
  std::vector<std::unique_ptr<VarShard>> Shards;
  LaneRuntime *Rt = nullptr; ///< Back-pointer for drain-task telemetry.
};

/// Accesses a shard drain task claims per round: small enough to release
/// the shard for partial snapshots and spread work across the pool,
/// large enough to amortize the LogM claim handshake.
constexpr uint64_t kDrainBatch = 4096;

} // namespace

struct AnalysisSession::Impl {
  AnalysisConfig Cfg;
  Status SessionStatus; ///< Sticky: config validation / ingestion failure.
  Timer Wall;
  double IngestSeconds = 0;

  // Trace / table state (guarded by M). Publication itself lives in
  // Store: the producer mirrors the validated prefix into it under M and
  // publishes by watermark (building the lanes' detectors at the first
  // publish); consumers read the store lock-free and never take M.
  std::mutex M;
  Trace Owned;
  const Trace *Live = &Owned; ///< Points into the reader during feedFile.
  EventStore Store;           ///< Published events; watermark == analyzable.
  /// Producer stores seq_cst then Store.wakeAll(); consumer stop
  /// predicates load seq_cst (the store's Dekker handshake, so the last
  /// wake cannot be lost).
  std::atomic<bool> IngestDone{false};
  bool Finished = false;
  bool Ingested = false; ///< Any feed/declare has happened.

  /// Producer-side §2.1 validation: detectors assume the trace axioms
  /// (e.g. releases match held locks), so only the validated prefix is
  /// ever published to lanes. Validated counts events certified OK; the
  /// first violation sticks in SessionStatus and freezes publication.
  StreamingTraceValidator Validator;
  uint64_t Validated = 0;

  std::vector<std::unique_ptr<LaneRuntime>> Lanes;
  std::vector<std::unique_ptr<VarShardState>> VarStates; ///< VarSharded only.
  std::vector<std::thread> Consumers;

  // ---- Observability (obs/) -------------------------------------------------
  // The registry exists for every session (disabled registries hand out
  // null handles — the zero-cost path); the recorder only when
  // Cfg.Timeline. Handles below are cached once in start().
  std::unique_ptr<MetricsRegistry> Reg;
  std::unique_ptr<TraceRecorder> Rec;
  Counter IngestParseNs;    ///< feedFile: time to get the next chunk.
  Counter IngestLockWaitNs; ///< Producer time acquiring the session lock.
  Counter IngestValidateNs; ///< §2.1 streaming validation time.
  Counter PublishBatches;
  Gauge PublishedGauge;     ///< The published watermark.
  HighWater PublishBatchPeak;
  uint32_t IngestTrack = TraceRecorder::NoTrack;
  /// Shard drain tasks (VarSharded only; no other mode has a pool).
  /// Declared last so its destructor drains in-flight tasks before the
  /// state they reference dies.
  std::unique_ptr<ThreadPool> Pool;

  /// AnalysisResult::ThreadsUsed, the one value partialResult() and
  /// finish() both report: the pool width in var-sharded sessions, one
  /// consumer thread per lane otherwise.
  unsigned threadsUsed() const {
    return Pool ? Pool->numThreads()
                : static_cast<unsigned>(std::max<size_t>(Lanes.size(), 1));
  }

  void start();
  template <typename StartFn, typename RangeFn>
  bool walkLane(LaneRuntime &Rt, const char *Span, StartFn &&Start,
                RangeFn &&Range);
  void walkDetector(LaneRuntime &Rt, uint64_t From, uint64_t End);
  void sequentialConsumer(LaneRuntime &Rt);
  void varShardConsumer(LaneRuntime &Rt, VarShardState &VS);
  void drainVarShard(VarShardState &VS, uint32_t S);
  void scheduleDrains(VarShardState &VS, std::vector<uint32_t> &ToSchedule);
  void buildDetectorsLocked();
  void buildDetector(LaneRuntime &Rt);
  void finishWalkedLane(LaneRuntime &Rt);
  void registerObservability();
  void stopConsumers();
  Status ingestGate();
  bool validateNewLocked();
  bool validateNewLockedInner();
  void publishLocked();
  AnalysisResult snapshotLanes(bool Partial);
  void snapshotVarShardLane(VarShardState &VS, LaneReport &Lane);
};

/// Builds every lane's detector against the tables as they stand, at the
/// first publish (see "Table visibility" in the file header). Caller
/// holds M; takes each lane's SnapM inside it. A factory that throws
/// fails its own lane: the lane is marked done with the message,
/// keeps no detector, and its consumer exits at its first batch.
void AnalysisSession::Impl::buildDetectorsLocked() {
  for (auto &Rt : Lanes) {
    std::lock_guard<std::mutex> G(Rt->SnapM);
    std::string Err;
    if (guardedTask(Err, [&] {
          Rt->D = Rt->Make(*Live);
          Rt->Name = Rt->Label.empty() ? Rt->D->name() : Rt->Label;
        })) {
      Rt->HintThreads = Live->numThreads();
      Rt->HintVars = Live->numVars();
    } else {
      Rt->D.reset();
      Rt->LaneStatus = Status(StatusCode::AnalysisError, std::move(Err));
      Rt->Done = true;
    }
  }
}

/// Builds \p Rt's detector on its own consumer thread — only for a
/// session that published no event, once ingestion has stopped. Takes M,
/// then SnapM (M → SnapM is the session's one lock order).
void AnalysisSession::Impl::buildDetector(LaneRuntime &Rt) {
  std::lock_guard<std::mutex> Lk(M);
  std::lock_guard<std::mutex> G(Rt.SnapM);
  Rt.D = Rt.Make(*Live);
  Rt.Name = Rt.Label.empty() ? Rt.D->name() : Rt.Label;
}

/// Retires a walked lane: the detector's finish() and final report. A
/// zero-event session still gets its detector here (runDetector on an
/// empty trace constructs one too).
void AnalysisSession::Impl::finishWalkedLane(LaneRuntime &Rt) {
  if (!Rt.D)
    buildDetector(Rt);
  std::lock_guard<std::mutex> G(Rt.SnapM);
  Rt.D->finish();
  Rt.Final = Rt.D->report();
  Rt.Done = true;
}

namespace {

/// Runs one lane consumer's \p Body; an escaping exception fails that
/// lane (its status carries the message), never the session.
template <typename Fn> void runLane(LaneRuntime &Rt, Fn &&Body) {
  std::string Err;
  if (guardedTask(Err, Body))
    return;
  std::lock_guard<std::mutex> G(Rt.SnapM);
  Rt.LaneStatus = Status(StatusCode::AnalysisError, std::move(Err));
  Rt.Done = true;
}

} // namespace

/// The wait/chunk loop every lane consumer shares: wait for the
/// watermark, then hand each published range to \p Range(From, End) in
/// chunks of at most Cfg.StreamBatchEvents — read in place, no session
/// lock, no batch copy — until ingestion stops and the prefix is drained.
/// \p Range runs outside every lock and takes SnapM itself, so chunking
/// releases SnapM regularly for partialResult(); each chunk is one \p Span
/// timeline span. \p Start runs once, outside every lock, when the lane
/// first has work. By then the producer has built the lane's detector
/// (the watermark this lane observed was stored after it), against the
/// id tables of the first publish; growable detector state admits ids
/// declared later, so table growth never restarts the lane (bit-for-bit
/// with runDetector; see the header comment). Returns false, without
/// walking, when the producer found the lane's factory throwing.
template <typename StartFn, typename RangeFn>
bool AnalysisSession::Impl::walkLane(LaneRuntime &Rt, const char *Span,
                                     StartFn &&Start, RangeFn &&Range) {
  const uint64_t Batch = std::max<uint64_t>(Cfg.StreamBatchEvents, 1);
  uint64_t Taken = 0;
  auto Stopped = [this] {
    return IngestDone.load(std::memory_order_seq_cst);
  };
  for (;;) {
    const uint64_t To = Store.waitPublished(Taken, Rt.ParkNs, Stopped);
    if (To == Taken)
      return true; // Stopped and fully drained.
    if (Taken == 0) {
      if (!Rt.D)
        return false; // Failed at the first publish; its status is set.
      Start();
    }
    while (Taken != To) {
      const uint64_t From = Taken;
      const uint64_t End = std::min(To, From + Batch);
      Rt.Batches.add();
      Rt.BatchEventsPeak.observe(End - From);
      Rt.LagEventsPeak.observe(Store.published() - From);
      int64_t SpanStart = Rec ? Rec->nowUs() : 0;
      Range(From, End);
      Rt.Taken.store(End, std::memory_order_relaxed);
      Taken = End;
      if (Rec) {
        Rec->span(Rt.Track, Span, SpanStart, Rec->nowUs() - SpanStart);
        Rec->counter("lag:" + Rt.Fallback, Rec->nowUs(), To - End);
      }
    }
  }
}

/// Runs \p Rt's detector over published events [From, End) in place.
void AnalysisSession::Impl::walkDetector(LaneRuntime &Rt, uint64_t From,
                                         uint64_t End) {
  std::lock_guard<std::mutex> G(Rt.SnapM);
  Timer Clock;
  Store.forRange(From, End, [&](const Event &E, uint64_t I) {
    Rt.D->processEvent(E, I);
  });
  double Sec = Clock.seconds();
  Rt.Seconds += Sec;
  Rt.ConsumeNs.add(toNs(Sec));
  Rt.Consumed = End;
}

/// One lane of the sequential streaming mode: the plain walk.
void AnalysisSession::Impl::sequentialConsumer(LaneRuntime &Rt) {
  runLane(Rt, [&] {
    if (walkLane(
            Rt, "consume", [] {},
            [&](uint64_t From, uint64_t End) { walkDetector(Rt, From, End); }))
      finishWalkedLane(Rt);
  });
}

// ---- Var-sharded streaming --------------------------------------------------

/// Submits drain tasks for the shards in \p ToSchedule (already marked
/// Scheduled under LogM by the caller; called after LogM is released).
void AnalysisSession::Impl::scheduleDrains(VarShardState &VS,
                                           std::vector<uint32_t> &ToSchedule) {
  for (uint32_t S : ToSchedule)
    Pool->submit([this, &VS, S] { drainVarShard(VS, S); });
  ToSchedule.clear();
}

/// One drain round for shard \p S: claim a bounded run of committed
/// accesses under LogM (cursor bump only — no copy), replay them into the
/// shard's checker under SM reading the log and the broadcast snapshots
/// *in place*, commit completion under LogM. Sound without holding LogM
/// during the replay: WorkList entries below Claimed were appended by the
/// capture consumer under LogM *after* it committed the accesses and
/// snapshots they index, so the claim's LogM acquire happens-after all of
/// that, and the storage itself (PublishedStore chunks) never relocates.
/// Loops until no work is left, then clears Scheduled and exits — the
/// capture consumer re-submits when it commits more.
void AnalysisSession::Impl::drainVarShard(VarShardState &VS, uint32_t S) {
  VarShard &Sh = *VS.Shards[S];
  const AccessLog &Log = *VS.Log;
  const ClockBroadcast &Broadcast = Log.clocks();
  for (;;) {
    uint64_t From, End;
    {
      std::lock_guard<std::mutex> G(VS.LogM);
      if (Sh.Claimed == Sh.WorkList.size()) {
        Sh.Scheduled = false;
        return;
      }
      From = Sh.Claimed;
      End = std::min(Sh.WorkList.size(), From + kDrainBatch);
      Sh.Claimed = End;
    }
    std::string Err;
    double Seconds = 0;
    int64_t SpanStart = Rec ? Rec->nowUs() : 0;
    {
      std::lock_guard<std::mutex> G(Sh.SM);
      guardedTask(Err, [&] {
        Timer Clock;
        for (uint64_t K = From; K != End; ++K) {
          const DeferredAccess &A = Log.access(Sh.WorkList[K]);
          Sh.Checker->replay(A, VarId(VS.Plan.localIdOf(A.Var)),
                             Broadcast.snapshot(A.Clock),
                             A.Hard == DeferredAccess::NoClock
                                 ? nullptr
                                 : &Broadcast.snapshot(A.Hard));
        }
        Seconds = Clock.seconds();
      });
    }
    VS.Rt->DrainBatches.add();
    VS.Rt->DrainNs.add(toNs(Seconds));
    if (Rec)
      Rec->span(Rec->currentThreadTrack(), "drain:s" + std::to_string(S),
                SpanStart, Rec->nowUs() - SpanStart);
    {
      std::lock_guard<std::mutex> G(VS.LogM);
      Sh.Completed = End;
      Sh.Seconds += Seconds;
      if (!Err.empty() && Sh.Error.empty())
        Sh.Error = std::move(Err);
      VS.DrainCV.notify_all();
    }
  }
}

/// One lane of the streamed var-sharded mode: the sequential walk, with
/// race checks deferred into the lane's AccessLog (capture mode). After
/// each chunk the consumer commits the captured prefix (AccessLog::commit
/// — snapshot watermark, then access watermark) and partitions the
/// committed range into per-shard work lists under LogM; per-shard drain
/// tasks replay the deferred checks in place concurrently — the three
/// phases of detect/ShardedAccessHistory.h, spread over time. Detectors
/// without capture support keep the plain walk. Only the trace-order
/// merge is deferred to the very end.
void AnalysisSession::Impl::varShardConsumer(LaneRuntime &Rt,
                                             VarShardState &VS) {
  std::vector<uint32_t> ToSchedule;
  // Consumer-local mirrors of VS fields this thread itself set at attach
  // time (it is their only writer) — no LogM round-trip per chunk.
  AccessLog *Log = nullptr;
  bool Capturing = false;

  // Attach capture, once per session: the log, the broadcast table and
  // the shard checkers are all growable, so the table sizes the producer
  // recorded when it built the detector are sizing hints, not bounds.
  auto AttachCapture = [&] {
    auto NewLog = std::make_unique<AccessLog>(Rt.HintThreads);
    {
      std::lock_guard<std::mutex> G(Rt.SnapM);
      Capturing = Rt.D->beginCapture(*NewLog);
    }
    {
      std::lock_guard<std::mutex> G(VS.LogM);
      VS.LogHolder = std::move(NewLog);
      VS.Log = VS.LogHolder.get();
      VS.Capturing = Capturing;
    }
    Log = VS.Log;
    if (!Capturing)
      return;
    for (uint32_t S = 0; S != VS.Shards.size(); ++S) {
      VarShard &Sh = *VS.Shards[S];
      std::lock_guard<std::mutex> G(Sh.SM);
      Sh.Checker = std::make_unique<ShardChecker>(
          VS.Plan.numLocalVars(S, Rt.HintVars), Rt.HintThreads);
    }
  };

  // Commit outside LogM (writer-side watermark stores), then partition the
  // committed range under LogM — the order drains rely on: every WorkList
  // entry indexes a committed access.
  auto CommitChunk = [&](uint64_t Consumed) {
    const uint64_t CommittedNow = Capturing ? Log->commit() : 0;
    {
      std::lock_guard<std::mutex> LG(VS.LogM);
      VS.CapturedEvents = Consumed;
      if (Log) {
        Rt.CapturedAccesses.set(Log->numAccesses());
        Rt.BroadcastClocks.set(Log->clocks().numSnapshots());
      }
      if (Capturing) {
        for (uint64_t I = VS.Partitioned; I != CommittedNow; ++I) {
          uint32_t S = VS.Plan.shardOf(Log->access(I).Var);
          VarShard &Sh = *VS.Shards[S];
          Sh.WorkList.append(static_cast<uint32_t>(I));
          if (!Sh.Scheduled) {
            Sh.Scheduled = true;
            ToSchedule.push_back(S);
          }
        }
        VS.Partitioned = CommittedNow;
      }
    }
    scheduleDrains(VS, ToSchedule);
  };

  runLane(Rt, [&] {
    if (!walkLane(Rt, "capture", AttachCapture,
                  [&](uint64_t From, uint64_t End) {
                    walkDetector(Rt, From, End);
                    CommitChunk(End);
                  }))
      return;
    if (!Capturing) {
      // Plain-walk lane (no capture support) — or a zero-event session
      // whose detector never attached; either way the walk already
      // happened and finish()/report() is the whole story.
      finishWalkedLane(Rt);
      return;
    }
    {
      std::lock_guard<std::mutex> G(Rt.SnapM);
      Timer Clock;
      Rt.D->finish();
      Rt.Seconds += Clock.seconds();
    }
    {
      // The last chunk committed and partitioned the whole log and
      // scheduled a drain for every shard with work left; wait for the
      // drains to retire it.
      std::unique_lock<std::mutex> G(VS.LogM);
      VS.DrainCV.wait(G, [&] {
        for (auto &Sh : VS.Shards)
          if (Sh->Completed != Sh->WorkList.size())
            return false;
        return true;
      });
    }
    // Phase 3 — the deterministic trace-order merge. Everything is
    // quiescent now (drains exited, no more publication), but the locks
    // are cheap and keep the invariants simple.
    std::string Err;
    std::vector<std::vector<RaceInstance>> PerShard(VS.Shards.size());
    double ShardSeconds = 0;
    for (uint32_t S = 0; S != VS.Shards.size(); ++S) {
      VarShard &Sh = *VS.Shards[S];
      {
        std::lock_guard<std::mutex> G(VS.LogM);
        if (!Sh.Error.empty() && Err.empty())
          Err = "var shard " + std::to_string(S) + ": " + Sh.Error;
        ShardSeconds += Sh.Seconds;
      }
      std::lock_guard<std::mutex> SG(Sh.SM);
      PerShard[S] = std::move(Sh.Checker->findings());
    }
    RaceReport Merged = mergeInTraceOrder(PerShard);
    std::lock_guard<std::mutex> G(Rt.SnapM);
    Rt.Seconds += ShardSeconds;
    if (!Err.empty())
      Rt.LaneStatus = Status(StatusCode::AnalysisError, std::move(Err));
    else
      Rt.Final = std::move(Merged);
    Rt.Done = true;
  });
}

// ---- Session lifecycle ------------------------------------------------------

/// Registers the session's instruments and timeline tracks and caches the
/// handles in Impl / the lane runtimes. One call, before any consumer
/// starts; a disabled registry makes every handle null (the zero-cost
/// path), so instrumented code never re-checks the config.
void AnalysisSession::Impl::registerObservability() {
  Reg = std::make_unique<MetricsRegistry>(Cfg.Metrics);
  if (Cfg.Timeline)
    Rec = std::make_unique<TraceRecorder>();
  MetricsScope Root(Reg.get(), "");
  IngestParseNs = Root.counter("ingest.parse_ns");
  IngestLockWaitNs = Root.counter("ingest.lock_wait_ns");
  IngestValidateNs = Root.counter("ingest.validate_ns");
  PublishBatches = Root.counter("publish.batches");
  PublishBatchPeak = Root.highWater("publish.batch_events_peak");
  PublishedGauge = Root.gauge("publish.events");
  if (Rec)
    IngestTrack = Rec->track("ingest");
  for (size_t L = 0; L != Lanes.size(); ++L) {
    LaneRuntime &Rt = *Lanes[L];
    MetricsScope S(Reg.get(), "lane." + std::to_string(L) + ".");
    Rt.ConsumeNs = S.counter("consume_ns");
    Rt.ParkNs = S.counter("park_ns");
    Rt.Batches = S.counter("batches");
    Rt.BatchEventsPeak = S.highWater("batch_events_peak");
    Rt.LagEventsPeak = S.highWater("lag_events_peak");
    if (Cfg.Mode == RunMode::VarSharded) {
      Rt.DrainNs = S.counter("drain_ns");
      Rt.DrainBatches = S.counter("drain_batches");
      Rt.CapturedAccesses = S.gauge("captured_accesses");
      Rt.BroadcastClocks = S.gauge("broadcast_clocks");
    }
    // Lanes with equal labels share a timeline track; fine — their spans
    // are distinguishable by time, and label collisions are rare.
    if (Rec)
      Rt.Track = Rec->track("lane:" + Rt.Fallback);
  }
}

void AnalysisSession::Impl::start() {
  SessionStatus = Cfg.validate();
  if (!SessionStatus.ok()) {
    Reg = std::make_unique<MetricsRegistry>(false); // Keep Reg non-null.
    return;
  }
  Lanes.reserve(Cfg.Detectors.size());
  for (const DetectorSpec &S : Cfg.Detectors) {
    auto Rt = std::make_unique<LaneRuntime>();
    Rt->Label = S.Name;
    Rt->Fallback = S.Name.empty() ? detectorKindName(S.Kind) : S.Name;
    Rt->Make =
        S.Kind == DetectorKind::Custom ? S.Make : makeDetectorFactory(S.Kind);
    Lanes.push_back(std::move(Rt));
  }
  registerObservability();
  switch (Cfg.Mode) {
  case RunMode::Sequential:
    for (auto &Rt : Lanes)
      Consumers.emplace_back([this, R = Rt.get()] { sequentialConsumer(*R); });
    break;
  case RunMode::VarSharded:
    Pool = std::make_unique<ThreadPool>(Cfg.Threads);
    Pool->attachTelemetry(MetricsScope(Reg.get(), "pool."), Rec.get());
    VarStates.reserve(Lanes.size());
    for (size_t L = 0; L != Lanes.size(); ++L) {
      auto VS = std::make_unique<VarShardState>();
      VS->Rt = Lanes[L].get();
      VS->Plan = ShardPlan(Cfg.VarShards);
      for (uint32_t S = 0; S != Cfg.VarShards; ++S)
        VS->Shards.push_back(std::make_unique<VarShard>());
      VarStates.push_back(std::move(VS));
    }
    for (size_t L = 0; L != Lanes.size(); ++L)
      Consumers.emplace_back(
          [this, R = Lanes[L].get(), V = VarStates[L].get()] {
            varShardConsumer(*R, *V);
          });
    break;
  }
}

void AnalysisSession::Impl::stopConsumers() {
  // seq_cst store, then wake: the store's Dekker handshake — a consumer
  // that registered as a sleeper before this store is woken; one that
  // registers after it sees the flag in its wait predicate.
  IngestDone.store(true, std::memory_order_seq_cst);
  Store.wakeAll();
  for (std::thread &T : Consumers)
    T.join();
  Consumers.clear();
  if (Pool)
    Pool->wait(); // In-flight stragglers, if any.
}

/// Common precondition of every ingest call.
Status AnalysisSession::Impl::ingestGate() {
  if (!SessionStatus.ok())
    return SessionStatus;
  if (Finished)
    return Status(StatusCode::InvalidState,
                  "session is finished; feeds are no longer accepted");
  return Status::success();
}

/// Validates events [Validated, Live->size()) in trace order; stops at
/// the first violation, which sticks in SessionStatus. Returns true while
/// clean. Caller holds M.
bool AnalysisSession::Impl::validateNewLocked() {
  uint64_t T0 = IngestValidateNs.enabled() ? obsNowNs() : 0;
  bool Clean = validateNewLockedInner();
  if (T0)
    IngestValidateNs.add(obsNowNs() - T0);
  return Clean;
}

bool AnalysisSession::Impl::validateNewLockedInner() {
  const std::vector<Event> &Events = Live->events();
  while (Validated < Events.size()) {
    Validator.feed(Events[Validated], Validated, *Live);
    if (!Validator.ok()) {
      const TraceViolation &V = Validator.result().Violations.front();
      SessionStatus =
          Status(StatusCode::ValidationError,
                 "event " + std::to_string(V.Index) + ": " + V.Message +
                     " (events up to " + std::to_string(Validated) +
                     " were analyzed)");
      return false;
    }
    ++Validated;
  }
  return true;
}

/// Advances the published prefix to the validated one: mirrors the newly
/// validated events into the store (stable storage, one copy made on the
/// ingest side), then publishes them with a single watermark store —
/// which is also what wakes parked consumers. Caller holds M; the store's
/// appended count always equals its watermark between calls.
void AnalysisSession::Impl::publishLocked() {
  uint64_t Prev = Store.size();
  if (Validated == Prev)
    return;
  if (Prev == 0)
    buildDetectorsLocked(); // Before the watermark store that publishes D.
  const std::vector<Event> &Events = Live->events();
  for (uint64_t I = Prev; I != Validated; ++I)
    Store.append(Events[I]);
  Store.publish(Validated);
  PublishBatches.add();
  PublishBatchPeak.observe(Validated - Prev);
  PublishedGauge.set(Validated);
  if (Rec)
    Rec->counter("published", Rec->nowUs(), Validated);
}

/// Mid-stream view of a streamed var-sharded lane: merges every finding
/// whose later event lies below the *fully checked* frontier — the
/// smallest trace index any shard has yet to replay past — so the report
/// is exactly the sequential detector's over that prefix (no torn
/// merges).
void AnalysisSession::Impl::snapshotVarShardLane(VarShardState &VS,
                                                 LaneReport &Lane) {
  uint64_t Bound = 0;
  double ShardSeconds = 0;
  {
    std::lock_guard<std::mutex> G(VS.LogM);
    if (!VS.Capturing) {
      // Fallback lane: the live detector report (snapshotLanes already
      // copied it under SnapM).
      return;
    }
    Bound = VS.CapturedEvents;
    for (const std::unique_ptr<VarShard> &Sh : VS.Shards) {
      ShardSeconds += Sh->Seconds;
      if (Sh->Completed != Sh->WorkList.size())
        Bound = std::min(
            Bound, VS.Log->access(Sh->WorkList[Sh->Completed]).Idx);
    }
  }
  std::vector<std::vector<RaceInstance>> PerShard(VS.Shards.size());
  for (size_t S = 0; S != VS.Shards.size(); ++S) {
    VarShard &Sh = *VS.Shards[S];
    std::lock_guard<std::mutex> G(Sh.SM);
    if (!Sh.Checker)
      return; // Checkers are being built; no checked prefix yet.
    for (const RaceInstance &Inst : Sh.Checker->findings()) {
      if (Inst.LaterIdx >= Bound)
        break; // Findings are ascending in LaterIdx within a shard.
      PerShard[S].push_back(Inst);
    }
  }
  Lane.Report = mergeInTraceOrder(PerShard);
  Lane.Seconds += ShardSeconds;
}

AnalysisResult AnalysisSession::Impl::snapshotLanes(bool Partial) {
  AnalysisResult R;
  R.Partial = Partial;
  const bool Metrics = Reg && Reg->enabled();
  R.Lanes.reserve(Lanes.size());
  for (size_t L = 0; L != Lanes.size(); ++L) {
    LaneRuntime &Rt = *Lanes[L];
    LaneReport Lane;
    bool Done;
    std::vector<MetricSample> DetectorTel;
    {
      std::lock_guard<std::mutex> G(Rt.SnapM);
      Lane.DetectorName = Rt.Name.empty() ? Rt.Fallback : Rt.Name;
      Lane.LaneStatus = Rt.LaneStatus;
      Lane.Seconds = Rt.Seconds;
      Lane.EventsConsumed = Rt.Consumed;
      Done = Rt.Done;
      if (Rt.D && !Done)
        Lane.Report = Rt.D->report(); // Mid-stream copy: races so far.
      else
        Lane.Report = Rt.Final;
      if (Metrics && Rt.D)
        Rt.D->telemetry(DetectorTel);
    }
    if (!Done && Cfg.Mode == RunMode::VarSharded)
      snapshotVarShardLane(*VarStates[L], Lane);
    if (Metrics) {
      Lane.Telemetry =
          Reg->snapshotPrefix("lane." + std::to_string(L) + ".");
      Lane.Telemetry.insert(Lane.Telemetry.end(),
                            std::make_move_iterator(DetectorTel.begin()),
                            std::make_move_iterator(DetectorTel.end()));
      std::sort(Lane.Telemetry.begin(), Lane.Telemetry.end(),
                [](const MetricSample &A, const MetricSample &B) {
                  return A.Name < B.Name;
                });
    }
    R.Lanes.push_back(std::move(Lane));
  }
  if (Metrics) {
    // Session-level block: everything that is not a lane.<i>.* metric
    // (ingest/publish/pool scopes).
    R.Telemetry = Reg->snapshot();
    R.Telemetry.erase(
        std::remove_if(R.Telemetry.begin(), R.Telemetry.end(),
                       [](const MetricSample &S) {
                         return S.Name.rfind("lane.", 0) == 0;
                       }),
        R.Telemetry.end());
  }
  return R;
}

// ---- Public surface ---------------------------------------------------------

AnalysisSession::AnalysisSession(AnalysisConfig Config)
    : I(std::make_unique<Impl>()) {
  I->Cfg = std::move(Config);
  I->start();
}

AnalysisSession::~AnalysisSession() {
  if (I)
    I->stopConsumers();
}

const AnalysisConfig &AnalysisSession::config() const { return I->Cfg; }
const Status &AnalysisSession::status() const { return I->SessionStatus; }

ThreadId AnalysisSession::declareThread(std::string_view Name) {
  std::lock_guard<std::mutex> Lk(I->M);
  I->Ingested = true;
  return ThreadId(I->Owned.threadTable().intern(Name));
}
LockId AnalysisSession::declareLock(std::string_view Name) {
  std::lock_guard<std::mutex> Lk(I->M);
  I->Ingested = true;
  return LockId(I->Owned.lockTable().intern(Name));
}
VarId AnalysisSession::declareVar(std::string_view Name) {
  std::lock_guard<std::mutex> Lk(I->M);
  I->Ingested = true;
  return VarId(I->Owned.varTable().intern(Name));
}
LocId AnalysisSession::declareLoc(std::string_view Name) {
  std::lock_guard<std::mutex> Lk(I->M);
  I->Ingested = true;
  return LocId(I->Owned.locTable().intern(Name));
}

Status AnalysisSession::declareTablesFrom(const Trace &T) {
  if (Status G = I->ingestGate(); !G.ok())
    return G;
  std::lock_guard<std::mutex> Lk(I->M);
  if (I->Ingested || I->Owned.size() != 0)
    return Status(StatusCode::InvalidState,
                  "declareTablesFrom requires an empty session");
  I->Owned.adoptTables(T);
  I->Ingested = true;
  return Status::success();
}

Status AnalysisSession::feed(const Event &E) {
  return feed(std::vector<Event>{E});
}

Status AnalysisSession::feed(const std::vector<Event> &Batch) {
  if (Status G = I->ingestGate(); !G.ok())
    return G;
  Timer Ingest;
  int64_t SpanStart = I->Rec ? I->Rec->nowUs() : 0;
  {
    std::unique_lock<std::mutex> Lk(I->M, std::defer_lock);
    lockCharged(Lk, I->IngestLockWaitNs);
    I->Ingested = true;
    for (size_t K = 0; K != Batch.size(); ++K) {
      if (!I->Owned.containsIds(Batch[K]))
        return Status(StatusCode::ValidationError,
                      "event " + std::to_string(K) +
                          " references undeclared ids; declare names (or "
                          "declareTablesFrom) before feeding");
    }
    for (const Event &E : Batch)
      I->Owned.append(E);
    bool Clean = I->validateNewLocked();
    I->publishLocked(); // The watermark store doubles as the wake.
    I->IngestSeconds += Ingest.seconds();
    if (!Clean)
      return I->SessionStatus;
  }
  if (I->Rec)
    I->Rec->span(I->IngestTrack, "feed", SpanStart,
                 I->Rec->nowUs() - SpanStart);
  return Status::success();
}

Status AnalysisSession::feedTrace(const Trace &T) {
  if (Status G = I->ingestGate(); !G.ok())
    return G;
  Timer Ingest;
  int64_t SpanStart = I->Rec ? I->Rec->nowUs() : 0;
  {
    std::unique_lock<std::mutex> Lk(I->M, std::defer_lock);
    lockCharged(Lk, I->IngestLockWaitNs);
    if (I->Ingested || I->Owned.size() != 0)
      return Status(StatusCode::InvalidState,
                    "feedTrace requires an empty session (it adopts the "
                    "trace's id tables)");
    I->Ingested = true;
    I->Owned.adoptTables(T);
    I->Owned.reserve(T.size());
    for (const Event &E : T.events())
      I->Owned.append(E);
    bool Clean = I->validateNewLocked();
    I->publishLocked(); // The watermark store doubles as the wake.
    I->IngestSeconds += Ingest.seconds();
    if (!Clean)
      return I->SessionStatus;
  }
  if (I->Rec)
    I->Rec->span(I->IngestTrack, "feed-trace", SpanStart,
                 I->Rec->nowUs() - SpanStart);
  return Status::success();
}

Status AnalysisSession::feedFile(const std::string &Path) {
  if (Status G = I->ingestGate(); !G.ok())
    return G;
  {
    std::lock_guard<std::mutex> Lk(I->M);
    if (I->Ingested || I->Owned.size() != 0)
      return Status(StatusCode::InvalidState,
                    "feedFile requires an empty session (one file per "
                    "session; it adopts the file's id tables)");
    I->Ingested = true;
  }
  Timer Ingest;
  ChunkedTraceReader Reader(Path);
  // The reader's internal trace becomes the live published trace while
  // the loop runs: each chunk (a binary batch, or one text slice merged
  // from the reader's decoding workers) mutates it under the session
  // mutex, and every validated chunk publishes immediately — for text
  // inputs too, whose id tables intern lazily, slice by slice. Growable
  // detector state makes that safe: lanes built against the tables of an
  // early chunk admit later-interned ids in place, so analysis overlaps
  // ingestion for both formats and no lane ever restarts.
  bool Poisoned = false;
  while (!Reader.done() && !Poisoned) {
    int64_t SpanStart = I->Rec ? I->Rec->nowUs() : 0;
    {
      std::unique_lock<std::mutex> Lk(I->M, std::defer_lock);
      lockCharged(Lk, I->IngestLockWaitNs);
      I->Live = &Reader.current();
      uint64_t P0 = I->IngestParseNs.enabled() ? obsNowNs() : 0;
      Reader.nextChunk();
      if (P0)
        I->IngestParseNs.add(obsNowNs() - P0);
      I->Live = &Reader.current();
      if (Reader.ok()) {
        // Only the §2.1-validated prefix may reach live lanes; a
        // violation freezes publication (and ingestion) right here.
        Poisoned = !I->validateNewLocked();
        I->publishLocked(); // No-op when nothing new validated.
      }
    }
    if (I->Rec)
      I->Rec->span(I->IngestTrack, "chunk", SpanStart,
                   I->Rec->nowUs() - SpanStart);
  }
  Status ReadStatus = Reader.status();
  {
    std::lock_guard<std::mutex> Lk(I->M);
    // Move the trace into the session before the reader dies. On success
    // everything validated publishes (covers the text path); on failure
    // the already published prefix stays analyzable and the first error
    // sticks.
    I->Owned = Reader.take();
    I->Live = &I->Owned;
    if (!Poisoned)
      I->validateNewLocked();
    if (I->SessionStatus.ok() && !ReadStatus.ok())
      I->SessionStatus = ReadStatus;
    I->publishLocked();
    I->IngestSeconds += Ingest.seconds();
  }
  return I->SessionStatus;
}

bool AnalysisSession::finished() const {
  std::lock_guard<std::mutex> Lk(I->M);
  return I->Finished;
}

AnalysisSession::Progress AnalysisSession::progress() const {
  Progress P;
  // Watermark first: it is monotone and lanes never pass it, so the
  // min-consumed read below can only be <= this snapshot.
  P.Published = I->Store.published();
  {
    std::lock_guard<std::mutex> Lk(I->M);
    P.Fed = I->Live->size();
  }
  // No lane lock: each lane's consumed watermark is atomic, so a lane
  // stuck inside a batch (holding its SnapM) never stalls this read. M
  // above is only ever held for bounded producer-side work.
  uint64_t Min = P.Published;
  for (auto &Rt : I->Lanes)
    Min = std::min(Min, Rt->Taken.load(std::memory_order_relaxed));
  P.MinLaneConsumed = Min;
  return P;
}

AnalysisResult AnalysisSession::partialResult() {
  {
    std::lock_guard<std::mutex> Lk(I->M);
    if (I->Finished) {
      AnalysisResult R;
      R.Overall = Status(StatusCode::InvalidState,
                         "session is finished; partialResult is only "
                         "available mid-stream");
      return R;
    }
  }
  AnalysisResult R = I->snapshotLanes(/*Partial=*/true);
  // Read the published watermark *after* the lane snapshots: the
  // watermark is monotone and consumers never pass it, so every lane's
  // EventsConsumed (and every reported race index) stays within
  // EventsIngested in one snapshot.
  R.EventsIngested = I->Store.published();
  {
    // Session status and ingest timing are producer-written under M —
    // partialResult may run concurrently with the producer thread.
    std::lock_guard<std::mutex> Lk(I->M);
    R.Overall = I->SessionStatus;
    R.IngestSeconds = I->IngestSeconds;
  }
  R.ThreadsUsed = I->threadsUsed();
  R.WallSeconds = I->Wall.seconds();
  if (I->Cfg.Mode == RunMode::VarSharded)
    R.VarShards = I->Cfg.VarShards;
  return R;
}

AnalysisResult AnalysisSession::finish() {
  {
    std::lock_guard<std::mutex> Lk(I->M);
    if (I->Finished) {
      AnalysisResult R;
      R.Overall = Status(StatusCode::InvalidState, "finish() already called");
      return R;
    }
    I->Finished = true;
  }
  I->stopConsumers();

  AnalysisResult R = I->snapshotLanes(/*Partial=*/false);
  R.Overall = I->SessionStatus;
  R.EventsIngested = I->Store.published();
  R.ThreadsUsed = I->threadsUsed();
  switch (I->Cfg.Mode) {
  case RunMode::Sequential:
    break;
  case RunMode::VarSharded:
    R.VarShards = I->Cfg.VarShards;
    // No pool exists when the config failed validation (start() bailed
    // before creating one).
    if (I->Pool)
      R.TasksStolen = I->Pool->tasksStolen();
    break;
  }
  R.WallSeconds = I->Wall.seconds();
  R.IngestSeconds = I->IngestSeconds;
  return R;
}

const Trace &AnalysisSession::trace() const { return *I->Live; }

std::string AnalysisSession::exportTimeline() const {
  return I->Rec ? I->Rec->exportJson() : std::string();
}

AnalysisResult rapid::analyzeTrace(const AnalysisConfig &Config,
                                   const Trace &T) {
  AnalysisSession S(Config);
  S.feedTrace(T); // A failure sticks in the session; finish() reports it.
  return S.finish();
}
