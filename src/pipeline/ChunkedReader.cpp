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
#include <cstring>

using namespace rapid;

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
      Builder.reserve(FileSize / 16);
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
  if (File && OwnsFile)
    std::fclose(File);
}

Trace ChunkedTraceReader::take() {
  if (Binary) {
    Trace Out = std::move(BinTrace);
    BinTrace = Trace();
    return Out;
  }
  return Builder.take();
}

bool ChunkedTraceReader::refill() {
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
      St = Status(StatusCode::IoError, "read error");
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

uint64_t ChunkedTraceReader::nextTextChunk() {
  uint64_t Appended = 0;
  while (Appended < Opts.MaxEventsPerChunk) {
    std::string_view V = view();
    size_t Nl = V.find('\n', Pos);
    if (Nl == std::string_view::npos) {
      if (!Eof) {
        if (refill())
          continue;
        if (!ok())
          return Appended;
      }
      // EOF: the remainder (if any) is one final unterminated line.
      V = view();
      if (Pos >= V.size()) {
        Done = true;
        return Appended;
      }
      Nl = V.size();
    }
    std::string_view Line(V.data() + Pos, Nl - Pos);
    Pos = Nl < V.size() ? Nl + 1 : Nl;
    ++LineNo;
    if (!trimTextTraceLine(Line))
      continue;
    std::string LineError;
    if (!parseTextTraceLine(Line, Builder, LineError)) {
      St = Status(StatusCode::ParseError,
                  "line " + std::to_string(LineNo) + ": " + LineError);
      return Appended;
    }
    ++Appended;
  }
  return Appended;
}

uint64_t ChunkedTraceReader::nextBinaryChunk() {
  // Phase 1: accumulate bytes until the variable-length header (name
  // tables + event count) decodes in one piece. Each failed attempt costs
  // a re-parse of the buffered prefix, so grow the buffer geometrically
  // between attempts to keep total header work linear.
  while (!HeaderParsed) {
    std::string_view Head = view().substr(Pos);
    size_t HeaderSize = 0;
    BinaryHeaderStatus S = parseBinaryHeader(Head, BinTrace, RemainingEvents,
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
      BinTrace.reserve(Cap);
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
      if (!refill() && !ok())
        return 0;
    if (!ok())
      return 0;
  }

  uint64_t Appended = 0;
  while (Appended < Opts.MaxEventsPerChunk && RemainingEvents > 0) {
    if (view().size() - Pos < BinaryEventRecordSize) {
      if (refill())
        continue;
      if (ok())
        St = Status(StatusCode::ParseError, "truncated binary trace");
      return Appended;
    }
    Event E;
    // Decoders write the message only on failure, so St stays ok here.
    if (!decodeBinaryEvent(view().data() + Pos, BinTrace, E, St.Message)) {
      St.Message += " " + std::to_string(BinTrace.size());
      St.Code = StatusCode::ParseError;
      return Appended;
    }
    Pos += BinaryEventRecordSize;
    BinTrace.append(E);
    --RemainingEvents;
    ++Appended;
  }
  if (RemainingEvents == 0)
    Done = true; // Trailing bytes are ignored, as in parseBinaryTrace.
  return Appended;
}
