//===- pipeline/ChunkedReader.cpp ---------------------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#include "pipeline/ChunkedReader.h"

#include "io/BinaryFormat.h"
#include "io/TextFormat.h"
#include "io/TraceFile.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <system_error>

using namespace rapid;

namespace {

constexpr uint32_t kUnmapped = UINT32_MAX;
/// The local Loc of an event whose line named no location: the merge
/// names it "L<global event index>", as TraceBuilder does.
constexpr LocId kDefaultLoc = LocId::invalid();

/// One slice's name table: dense local ids over views into the slice's
/// bytes, in first-occurrence order, each with its StringInterner hash so
/// the merge does not hash it again. Open addressing, load <= 3/4.
class SliceNames {
public:
  uint32_t intern(std::string_view Name) {
    if (4 * (Names.size() + 1) > 3 * Slots.size())
      grow();
    const uint64_t H = StringInterner::hashName(Name);
    size_t Mask = Slots.size() - 1;
    for (size_t I = H & Mask;; I = (I + 1) & Mask) {
      uint32_t Slot = Slots[I];
      if (Slot == 0) {
        Names.push_back(Name);
        Hashes.push_back(H);
        Slots[I] = static_cast<uint32_t>(Names.size());
        return Slots[I] - 1;
      }
      if (Hashes[Slot - 1] == H && Names[Slot - 1] == Name)
        return Slot - 1;
    }
  }
  /// Interns local id \p Id's name into \p Table.
  uint32_t internInto(StringInterner &Table, uint32_t Id) const {
    return Table.intern(Names[Id], Hashes[Id]);
  }
  uint32_t size() const { return static_cast<uint32_t>(Names.size()); }
  void clear() {
    Names.clear();
    Hashes.clear();
    std::fill(Slots.begin(), Slots.end(), 0);
  }

private:
  void grow() {
    Slots.assign(Slots.empty() ? 64 : 2 * Slots.size(), 0);
    size_t Mask = Slots.size() - 1;
    for (uint32_t Id = 0; Id != Names.size(); ++Id) {
      size_t I = Hashes[Id] & Mask;
      while (Slots[I])
        I = (I + 1) & Mask;
      Slots[I] = Id + 1;
    }
  }

  std::vector<std::string_view> Names;
  std::vector<uint64_t> Hashes;
  std::vector<uint32_t> Slots; ///< Id + 1; 0 = empty.
};

/// Merges local id \p Local of \p Names into \p Table at its first use.
uint32_t globalId(std::vector<uint32_t> &Map, const SliceNames &Names,
                  uint32_t Local, StringInterner &Table) {
  uint32_t &G = Map[Local];
  if (G == kUnmapped)
    G = Names.internInto(Table, Local);
  return G;
}

} // namespace

/// A line-aligned run of text lines, decoded with slice-local ids.
struct ChunkedTraceReader::TextSlice {
  std::string Bytes;     ///< Buffered backend: the slice's own copy.
  std::string_view Text; ///< The slice's lines (into Bytes or the map).
  std::vector<Event> Events;
  SliceNames Threads, Locks, Vars, Locs;
  uint64_t Lines = 0; ///< Lines decoded, the failing one included.
  std::string Error;  ///< The first malformed line's message.
  Status Io;          ///< A read error hit after the slice's last line.

  bool failed() const { return !Error.empty() || !Io.ok(); }

  /// Decodes Text, stopping at the first malformed line. Thread-local
  /// work: touches nothing but the slice.
  void decode() {
    Events.clear();
    Threads.clear();
    Locks.clear();
    Vars.clear();
    Locs.clear();
    Lines = 0;
    Error.clear();
    TextTraceLine L;
    size_t P = 0;
    while (P < Text.size()) {
      size_t End = Text.find('\n', P);
      if (End == std::string_view::npos)
        End = Text.size();
      std::string_view Line = Text.substr(P, End - P);
      P = End + 1;
      ++Lines;
      if (!trimTextTraceLine(Line))
        continue;
      if (!splitTextTraceLine(Line, L, Error))
        return;
      uint32_t Target = L.Kind == EventKind::Fork || L.Kind == EventKind::Join
                            ? Threads.intern(L.Target)
                        : isSync(L.Kind) ? Locks.intern(L.Target)
                                         : Vars.intern(L.Target);
      ThreadId Thread(Threads.intern(L.Thread));
      LocId Loc = L.Loc.empty() ? kDefaultLoc : LocId(Locs.intern(L.Loc));
      Events.push_back(Event(L.Kind, Thread, Target, Loc));
    }
  }
};

ChunkedTraceReader::ChunkedTraceReader(const std::string &Path,
                                       ChunkedReaderOptions Opts)
    : Opts(Opts), Binary(hasTraceSuffix(Path, ".bin")) {
  if (this->Opts.ChunkBytes == 0)
    this->Opts.ChunkBytes = 1;
  if (this->Opts.MaxEventsPerChunk == 0)
    this->Opts.MaxEventsPerChunk = 1;
  if (Path == "-") {
    // stdin: text format through the buffered backend. Not seekable (no
    // size probe) and not ours to close. This is how `race_cli -`
    // and FIFO redirections feed the session without a named file.
    File = stdin;
    OwnsFile = false;
    return;
  }
  if (this->Opts.UseMmap && Map.map(Path)) {
    // mmap backend: the whole file is addressable up front, zero-copy.
    // Eof from the start — there is nothing to refill.
    Mapped = true;
    Eof = true;
    FileSize = Map.size();
    TotalRead = Map.size();
    if (!Binary && FileSize > 0) {
      // Text lines run ~16-30 bytes ("T0|r(x)|L1" plus names); /16 lands
      // within ~2x of the true count either way, which converts the
      // append path's realloc cascade into at most one final doubling.
      Out.reserve(FileSize / 16);
    }
    return;
  }
  File = std::fopen(Path.c_str(), "rb");
  if (!File) {
    St = Status(StatusCode::IoError, "cannot open '" + Path +
                                         "' for reading: " +
                                         std::strerror(errno));
    return;
  }
  // Regular files report their size, which bounds how much we ever
  // reserve; pipes and the like leave FileSize unknown.
  if (std::fseek(File, 0, SEEK_END) == 0) {
    long Size = std::ftell(File);
    if (Size >= 0)
      FileSize = static_cast<uint64_t>(Size);
  }
  std::fseek(File, 0, SEEK_SET);
}

ChunkedTraceReader::~ChunkedTraceReader() {
  stopWorkers();
  if (File && OwnsFile)
    std::fclose(File);
}

Trace ChunkedTraceReader::take() {
  stopWorkers();
  Trace Result = std::move(Out);
  Out = Trace();
  return Result;
}

bool ChunkedTraceReader::refill(Status &Err) {
  if (Eof || !File) // The mmap backend is Eof by construction.
    return false;
  compactBuffer();
  size_t Old = Buf.size();
  Buf.resize(Old + Opts.ChunkBytes);
  size_t Got = std::fread(&Buf[Old], 1, Opts.ChunkBytes, File);
  Buf.resize(Old + Got);
  TotalRead += Got;
  if (Got < Opts.ChunkBytes) {
    if (std::ferror(File)) {
      Err = Status(StatusCode::IoError, "read error");
      return false;
    }
    Eof = true;
  }
  return Got > 0;
}

void ChunkedTraceReader::compactBuffer() {
  // Drop the consumed prefix once it dominates the buffer, keeping refill
  // appends cheap without repeated front-erases. (Buffered backend only:
  // the mmap view is immutable and never refills.)
  if (Pos > 0 && (Pos >= Buf.size() || Pos >= Opts.ChunkBytes)) {
    Buf.erase(0, Pos);
    Pos = 0;
  }
}

uint64_t ChunkedTraceReader::nextChunk() {
  if (done())
    return 0;
  uint64_t Got = Binary ? nextBinaryChunk() : nextTextChunk();
  Delivered += Got;
  return Got;
}

bool ChunkedTraceReader::cutSlice(TextSlice &S) {
  // Read until a whole slice is buffered, then extend it to the end of
  // the line that crosses kTextSliceBytes. Offsets are relative to Pos:
  // refill() may compact the buffer.
  S.Io = Status::success();
  while (!Eof && view().size() - Pos < kTextSliceBytes && refill(S.Io)) {
  }
  size_t Scan = kTextSliceBytes - 1;
  size_t Len = 0;
  for (;;) {
    std::string_view Rest = view().substr(Pos);
    size_t Nl = Scan < Rest.size() ? Rest.find('\n', Scan) : Rest.npos;
    if (Nl != Rest.npos) {
      Len = Nl + 1;
      break;
    }
    if (!S.Io.ok()) {
      // A read error: keep the complete lines, report it after them.
      size_t LastNl = Rest.rfind('\n');
      Len = LastNl == Rest.npos ? 0 : LastNl + 1;
      break;
    }
    if (Eof) {
      Len = Rest.size(); // The final, maybe unterminated, line.
      break;
    }
    Scan = Rest.size();
    refill(S.Io);
  }
  if (Len == 0 && S.Io.ok())
    return false;
  if (Mapped) {
    S.Text = view().substr(Pos, Len);
  } else {
    S.Bytes.assign(view().data() + Pos, Len);
    S.Text = S.Bytes;
  }
  Pos += Len;
  return true;
}

ChunkedTraceReader::SlicePtr ChunkedTraceReader::spareSlice() {
  std::lock_guard<std::mutex> Lk(SliceM);
  if (Spare.empty())
    return std::make_unique<TextSlice>();
  SlicePtr S = std::move(Spare.back());
  Spare.pop_back();
  return S;
}

ChunkedTraceReader::SlicePtr ChunkedTraceReader::nextSlice() {
  if (!Workers.empty()) {
    std::unique_lock<std::mutex> Lk(SliceM);
    SlicePtr &Slot = Ready[Taken % Ready.size()];
    SliceCv.wait(Lk, [&] { return Slot || Taken >= CutEnd; });
    if (!Slot) {
      if (!WorkerFailure.ok())
        St = WorkerFailure;
      return nullptr;
    }
    SlicePtr S = std::move(Slot);
    ++Taken;
    Lk.unlock();
    SliceCv.notify_all(); // Room for one more slice ahead.
    return S;
  }
  // Inline: only slice 0, or every slice when there is no worker.
  SlicePtr S = spareSlice();
  if (!cutSlice(*S))
    return nullptr;
  ++Cut;
  ++Taken;
  if (Cut == 1 && !(Eof && Pos >= view().size())) {
    // More than one slice: hand the rest to workers, which start cutting
    // and decoding while this thread decodes slice 0. A worker that
    // cannot be started leaves the work to the others, or to this
    // thread. SliceM holds them until Ready is sized.
    unsigned Hw = std::thread::hardware_concurrency();
    unsigned N = Hw > 1 ? std::min(3u, Hw - 1) : 0;
    std::lock_guard<std::mutex> Lk(SliceM);
    try {
      for (unsigned I = 0; I != N; ++I)
        Workers.emplace_back([this] { workerLoop(); });
    } catch (const std::system_error &) {
    }
    Ready.resize(2 * Workers.size());
  }
  S->decode();
  if (S->failed() && !Workers.empty()) {
    std::lock_guard<std::mutex> Lk(SliceM);
    CutEnd = std::min(CutEnd, Taken);
  }
  return S;
}

void ChunkedTraceReader::workerLoop() {
  uint64_t Index = UINT64_MAX; ///< The slice this worker is on, if any.
  try {
    for (;;) {
      SlicePtr S = spareSlice();
      {
        std::unique_lock<std::mutex> CutLk(CutM);
        {
          std::unique_lock<std::mutex> Lk(SliceM);
          // Cut only within two slices per worker of the merge.
          SliceCv.wait(Lk, [&] {
            return Stopping || Cut >= CutEnd || Cut < Taken + Ready.size();
          });
          if (Stopping || Cut >= CutEnd)
            return;
          Index = Cut;
        }
        bool Got = cutSlice(*S);
        std::lock_guard<std::mutex> Lk(SliceM);
        if (!Got) {
          CutEnd = std::min(CutEnd, Index);
          SliceCv.notify_all();
          return;
        }
        ++Cut;
      }
      S->decode();
      {
        std::lock_guard<std::mutex> Lk(SliceM);
        if (S->failed())
          CutEnd = std::min(CutEnd, Index + 1); // Later slices are moot.
        Ready[Index % Ready.size()] = std::move(S);
        Index = UINT64_MAX;
      }
      SliceCv.notify_all();
    }
  } catch (const std::exception &E) {
    // Out of memory, say. No slice from this one on is delivered: the
    // merge stops at it and reports the failure, not a short trace.
    {
      std::lock_guard<std::mutex> Lk(SliceM);
      CutEnd = std::min(CutEnd, Index == UINT64_MAX ? Cut : Index);
      if (WorkerFailure.ok())
        WorkerFailure = Status(StatusCode::IoError,
                               std::string("text decoding failed: ") +
                                   E.what());
    }
    SliceCv.notify_all();
  }
}

void ChunkedTraceReader::stopWorkers() {
  if (Workers.empty())
    return;
  {
    std::lock_guard<std::mutex> Lk(SliceM);
    Stopping = true;
  }
  SliceCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
  Workers.clear();
}

uint64_t ChunkedTraceReader::nextTextChunk() {
  for (;;) {
    if (!Merging) {
      Merging = nextSlice();
      if (!Merging) {
        Done = true;
        return 0;
      }
      MergePos = 0;
      ThreadIds.assign(Merging->Threads.size(), kUnmapped);
      LockIds.assign(Merging->Locks.size(), kUnmapped);
      VarIds.assign(Merging->Vars.size(), kUnmapped);
      LocIds.assign(Merging->Locs.size(), kUnmapped);
    }
    // Rewrite local ids to the trace's, interning each name at its first
    // use in file order: the tables grow exactly as a line-by-line parse
    // grows them, up to the last event returned. The target goes first:
    // fork/join intern the child before the parent, as TraceBuilder does.
    const TextSlice &S = *Merging;
    size_t End = std::min<uint64_t>(S.Events.size(),
                                    MergePos + Opts.MaxEventsPerChunk);
    const uint64_t Appended = End - MergePos;
    for (; MergePos != End; ++MergePos) {
      const Event &E = S.Events[MergePos];
      uint32_t Target;
      if (E.Kind == EventKind::Fork || E.Kind == EventKind::Join)
        Target = globalId(ThreadIds, S.Threads, E.Target, Out.threadTable());
      else if (isSync(E.Kind))
        Target = globalId(LockIds, S.Locks, E.Target, Out.lockTable());
      else
        Target = globalId(VarIds, S.Vars, E.Target, Out.varTable());
      ThreadId Thread(
          globalId(ThreadIds, S.Threads, E.Thread.value(), Out.threadTable()));
      LocId Loc;
      if (E.Loc == kDefaultLoc) {
        char Name[24] = {'L'};
        char *NameEnd = std::to_chars(Name + 1, Name + sizeof(Name),
                                      Out.size()).ptr;
        Loc = LocId(Out.locTable().intern(
            std::string_view(Name, static_cast<size_t>(NameEnd - Name))));
      } else {
        Loc = LocId(globalId(LocIds, S.Locs, E.Loc.value(), Out.locTable()));
      }
      Out.append(Event(E.Kind, Thread, Target, Loc));
    }
    if (MergePos == S.Events.size()) {
      if (!S.Error.empty())
        St = Status(StatusCode::ParseError,
                    "line " + std::to_string(LineBase + S.Lines) + ": " +
                        S.Error);
      else if (!S.Io.ok())
        St = S.Io;
      LineBase += S.Lines;
      {
        std::lock_guard<std::mutex> Lk(SliceM);
        Spare.push_back(std::move(Merging));
      }
      if (!ok()) {
        stopWorkers();
        return Appended;
      }
    }
    if (Appended != 0)
      return Appended;
  }
}

uint64_t ChunkedTraceReader::nextBinaryChunk() {
  // Phase 1: accumulate bytes until the variable-length header (name
  // tables + event count) decodes in one piece. Each failed attempt costs
  // a re-parse of the buffered prefix, so grow the buffer geometrically
  // between attempts to keep total header work linear.
  while (!HeaderParsed) {
    std::string_view Head = view().substr(Pos);
    size_t HeaderSize = 0;
    BinaryHeaderStatus S = parseBinaryHeader(Head, Out, RemainingEvents,
                                             HeaderSize, St.Message);
    if (S == BinaryHeaderStatus::Error) {
      St.Code = StatusCode::ParseError;
      return 0;
    }
    if (S == BinaryHeaderStatus::Ok) {
      Pos += HeaderSize;
      HeaderParsed = true;
      // Bound the reservation by what the file can actually hold, so a
      // corrupt count cannot trigger a huge allocation.
      uint64_t Cap = RemainingEvents;
      if (FileSize != UINT64_MAX) {
        uint64_t Consumed = TotalRead - (view().size() - Pos);
        uint64_t BytesLeft = FileSize > Consumed ? FileSize - Consumed : 0;
        Cap = std::min<uint64_t>(Cap, BytesLeft / BinaryEventRecordSize);
      } else {
        Cap = std::min<uint64_t>(Cap, Opts.MaxEventsPerChunk);
      }
      Out.reserve(Cap);
      break;
    }
    if (Eof) {
      // Match parseBinaryTrace's wording: a file too short to even carry
      // magic + version is "not a binary trace", not a truncated one.
      St = Status(StatusCode::ParseError,
                  TotalRead < 8 ? "not a rapidpp binary trace (bad magic)"
                                : "truncated binary trace");
      return 0;
    }
    size_t Target = std::max<size_t>(2 * Head.size(), Opts.ChunkBytes);
    while (!Eof && view().size() - Pos < Target)
      if (!refill(St) && !ok())
        return 0;
    if (!ok())
      return 0;
  }

  uint64_t Appended = 0;
  while (Appended < Opts.MaxEventsPerChunk && RemainingEvents > 0) {
    if (view().size() - Pos < BinaryEventRecordSize) {
      if (refill(St))
        continue;
      if (ok())
        St = Status(StatusCode::ParseError, "truncated binary trace");
      return Appended;
    }
    Event E;
    // Decoders write the message only on failure, so St stays ok here.
    if (!decodeBinaryEvent(view().data() + Pos, Out, E, St.Message)) {
      St.Message += " " + std::to_string(Out.size());
      St.Code = StatusCode::ParseError;
      return Appended;
    }
    Pos += BinaryEventRecordSize;
    Out.append(E);
    --RemainingEvents;
    ++Appended;
  }
  if (RemainingEvents == 0)
    Done = true; // Trailing bytes are ignored, as in parseBinaryTrace.
  return Appended;
}
