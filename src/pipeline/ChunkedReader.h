//===- pipeline/ChunkedReader.h - Streaming trace ingestion -----*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Streaming ingestion for the analysis pipeline. Two byte-source
/// backends sit behind the decoders:
///
///   mmap     regular files are memory-mapped (io/MappedFile) and parsed
///            zero-copy straight out of the page cache — no refill
///            buffer, no fread copies, and the OS manages residency on
///            multi-hundred-million-event traces. Selected automatically
///            when the path names a regular file (and UseMmap is on).
///   buffered pipes, sockets and mmap-less platforms read in bounded
///            chunks through a refill buffer, so only a bounded window of
///            raw bytes is resident at a time.
///
/// Text is decoded in line-aligned slices of about kTextSliceBytes. Each
/// slice is decoded on its own into slice-local name tables, on up to
/// three worker threads; the caller's thread merges the slices strictly
/// in file order, interning each local name into the trace's tables at
/// its first use, so ids, default locations ("L<event index>") and
/// errors come out exactly as a line-by-line parse gives them. Each
/// nextChunk() returns (part of) one slice, so a session publishes per
/// slice while later slices are still being decoded. At most two decoded
/// slices per worker wait ahead of the merge. A file of one slice, or a
/// host with one hardware thread, decodes inline with no worker.
///
/// Binary input is decoded on the caller's thread in batches of up to
/// MaxEventsPerChunk records.
///
/// Format dispatch matches io/TraceFile (".bin" in any letter case →
/// binary, otherwise text) and reuses the codecs' incremental entry points
/// (splitTextTraceLine, parseBinaryHeader/decodeBinaryEvent), so the two
/// paths cannot drift. The reader is pull-based: each nextChunk() call
/// appends a bounded batch of events to the trace under construction —
/// the seam the ingest-while-analyzing session plugs into.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_PIPELINE_CHUNKEDREADER_H
#define RAPID_PIPELINE_CHUNKEDREADER_H

#include "io/MappedFile.h"
#include "support/Status.h"
#include "trace/Trace.h"

#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace rapid {

/// Tuning knobs for the chunked reader.
struct ChunkedReaderOptions {
  /// Raw bytes read from disk per refill (buffered backend only).
  size_t ChunkBytes = 1 << 20;
  /// Upper bound on events appended per nextChunk() call.
  uint64_t MaxEventsPerChunk = 64 * 1024;
  /// Memory-map regular files and parse zero-copy (the default). Off
  /// forces the buffered backend — tests pin both paths byte-for-byte.
  bool UseMmap = true;
};

/// Pull-based streaming reader for one trace file.
class ChunkedTraceReader {
public:
  /// Bytes per text slice: ~4k lines of ~32 bytes, one PublishedStore
  /// base chunk. A slice ends at the first line end at or past this size.
  static constexpr size_t kTextSliceBytes = 128 * 1024;

  explicit ChunkedTraceReader(const std::string &Path,
                              ChunkedReaderOptions Opts = {});
  /// Stops and joins the text decoding workers, if any.
  ~ChunkedTraceReader();

  ChunkedTraceReader(const ChunkedTraceReader &) = delete;
  ChunkedTraceReader &operator=(const ChunkedTraceReader &) = delete;

  /// False once an IO or parse error has occurred; status() explains.
  bool ok() const { return St.ok(); }
  /// Ok while healthy; IoError for open/read problems, ParseError for
  /// malformed bytes.
  const Status &status() const { return St; }

  /// True when the file is fully consumed (or an error stopped progress).
  bool done() const { return Done || !ok(); }

  /// Decodes the next batch of at most MaxEventsPerChunk events (for
  /// text, from one slice), appending them to the trace under
  /// construction. Returns the number of events appended; 0 means EOF or
  /// error.
  uint64_t nextChunk();

  /// The trace built so far (tables may still grow for text inputs;
  /// binary headers carry all tables up front).
  const Trace &current() const { return Out; }

  /// Total events delivered so far.
  uint64_t eventsDelivered() const { return Delivered; }

  /// True when the file was memory-mapped (regular file, UseMmap on):
  /// parsing runs zero-copy over the mapping.
  bool mapped() const { return Mapped; }

  /// Finalizes and returns the trace; call after done().
  Trace take();

private:
  struct TextSlice;
  using SlicePtr = std::unique_ptr<TextSlice>;

  /// Reads more bytes; false at EOF or on a read error, which lands in
  /// \p Err.
  bool refill(Status &Err);
  uint64_t nextTextChunk();
  uint64_t nextBinaryChunk();
  void compactBuffer();
  /// The live unconsumed byte window: the whole mapping (mmap backend) or
  /// the refill buffer (buffered backend); [Pos, view().size()) is live.
  std::string_view view() const {
    return Mapped ? std::string_view(Map.data(), Map.size())
                  : std::string_view(Buf);
  }

  /// Text slices. Cutting reads the byte source: the caller's thread cuts
  /// slice 0, workers cut the rest under CutM, so slice order is byte
  /// order. False when no byte is left.
  bool cutSlice(TextSlice &S);
  /// The next decoded slice in file order (decoded inline when there is
  /// no worker), or null once none is left.
  SlicePtr nextSlice();
  SlicePtr spareSlice();
  void workerLoop();
  void stopWorkers();

  ChunkedReaderOptions Opts;
  std::FILE *File = nullptr;
  bool OwnsFile = true; ///< False for stdin ("-"): never fclose'd.
  MappedFile Map;       ///< mmap backend; valid when Mapped.
  bool Mapped = false;
  bool Binary = false;
  bool Eof = false;  ///< Underlying file exhausted.
  bool Done = false; ///< Every byte decoded and delivered.
  Status St;
  uint64_t FileSize = UINT64_MAX; ///< From fseek/ftell; MAX if unknown.
  uint64_t TotalRead = 0;         ///< Raw bytes consumed from the file.

  std::string Buf; ///< Buffered backend's refill buffer.
  size_t Pos = 0;  ///< First unconsumed byte of view().

  Trace Out; ///< The trace under construction.
  uint64_t Delivered = 0;

  bool HeaderParsed = false; ///< Binary: container header decoded.
  uint64_t RemainingEvents = 0; ///< Binary: records left per the header.

  // Text merge state (caller's thread only).
  SlicePtr Merging;     ///< The slice being delivered.
  size_t MergePos = 0;  ///< Its next undelivered event.
  uint64_t LineBase = 0; ///< Lines in the slices before Merging.
  /// Merging's local ids → the trace's ids; kUnmapped until first use.
  std::vector<uint32_t> ThreadIds, LockIds, VarIds, LocIds;

  // Text decoding workers. SliceM guards Ready through Stopping; a
  // worker takes CutM before SliceM. CutM guards the byte source above
  // (Buf, Pos, Eof, File) once workers run.
  std::mutex CutM;
  std::mutex SliceM;
  std::condition_variable SliceCv;
  /// Decoded slices ahead of the merge: slice k sits in Ready[k % size].
  std::vector<SlicePtr> Ready;
  std::vector<SlicePtr> Spare; ///< Merged slices kept for reuse.
  uint64_t Cut = 0;   ///< Slices cut so far.
  uint64_t Taken = 0; ///< Slices handed to the merge.
  /// Slices that will ever be cut: known at the end of the bytes, or one
  /// past the first slice that failed.
  uint64_t CutEnd = UINT64_MAX;
  Status WorkerFailure; ///< An exception that ended a worker.
  bool Stopping = false;
  /// The caller's thread only. Declared last: the workers use the
  /// members above.
  std::vector<std::thread> Workers;
};

} // namespace rapid

#endif // RAPID_PIPELINE_CHUNKEDREADER_H
