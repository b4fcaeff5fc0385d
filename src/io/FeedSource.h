//===- io/FeedSource.h - Byte-stream feed sources ---------------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport abstraction of the serving layer: a FeedSource is a
/// byte stream carrying wire frames (io/WireFormat.h) from one producer —
/// an accepted Unix socket, in practice — toward one AnalysisSession.
/// Sources deliberately know nothing about frames or sessions;
/// serve/WireIngestor.h stacks the protocol on top, so a decorated source
/// (io/FaultInjector.h) must yield the same report as the plain one (the
/// round-trip pins in tests/serve_test.cpp).
///
/// Two consumption styles:
///
///   - blocking pumps (tests) just call read() in a loop until 0 (EOF)
///     or a negative error;
///   - the server's poll loop uses pollFd() to wait for readability and
///     keeps the fd non-blocking, in which case read() may also return
///     -EAGAIN-style WouldBlock.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_IO_FEEDSOURCE_H
#define RAPID_IO_FEEDSOURCE_H

#include "support/Status.h"

#include <memory>
#include <string>

namespace rapid {

/// A byte source feeding one session's wire stream.
class FeedSource {
public:
  /// read() results at or below zero.
  static constexpr long Eof = 0;
  static constexpr long WouldBlock = -1; ///< Pollable source, no data yet.
  static constexpr long Failed = -2;     ///< status() has the reason.

  virtual ~FeedSource();

  /// Reads up to \p Max bytes into \p Buf. Returns the byte count, Eof,
  /// WouldBlock (non-blocking fd sources only) or Failed.
  virtual long read(char *Buf, size_t Max) = 0;

  /// The fd readiness-driven consumers poll for readability.
  virtual int pollFd() const = 0;

  /// Human-readable origin ("unix:client#3", ...).
  virtual const std::string &name() const = 0;

  /// The failure behind a Failed read, if any.
  virtual const Status &status() const = 0;
};

/// Wraps an open fd (accepted socket, socketpair end, pipe). Takes
/// ownership and closes it on destruction. Honors whatever blocking mode
/// the fd is already in: a non-blocking fd yields WouldBlock, a blocking
/// one parks in the kernel.
std::unique_ptr<FeedSource> makeFdFeedSource(int Fd, std::string Name);

} // namespace rapid

#endif // RAPID_IO_FEEDSOURCE_H
