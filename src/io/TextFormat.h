//===- io/TextFormat.h - RAPID-style text trace format ----------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reader/writer for the line-oriented trace format RAPID consumes from
/// RVPredict's logger:
///
///   <thread>|<op>(<target>)|<loc>
///
/// e.g. `T0|acq(l1)|34`, `T1|r(x)|102`, `T0|fork(T1)|8`. The loc field is
/// optional (a unique location is synthesized when absent). Lines starting
/// with '#' and blank lines are ignored. Parsing never throws; failures
/// are returned with line numbers.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_IO_TEXTFORMAT_H
#define RAPID_IO_TEXTFORMAT_H

#include "trace/Trace.h"

#include <string>
#include <string_view>

namespace rapid {

/// Result of parsing a textual trace.
struct TextParseResult {
  bool Ok = false;
  std::string Error; ///< "line 12: unknown operation 'foo'".
  Trace T;
};

/// Parses \p Text into a trace.
TextParseResult parseTextTrace(std::string_view Text);

/// One event line split into its fields. The views point into the line.
struct TextTraceLine {
  EventKind Kind = EventKind::Read;
  std::string_view Thread;
  std::string_view Target; ///< Variable, lock or child thread, by Kind.
  std::string_view Loc;    ///< Empty: the default location "L<index>".
};

/// Splits a single already-trimmed, non-empty, non-comment line into
/// \p Out. Returns false and sets \p Error (no line-number prefix; the
/// caller tracks position) on malformed input. Names are not interned
/// here: parseTextTrace hands the fields to a TraceBuilder, and the
/// chunked reader in pipeline/ to slice-local tables.
bool splitTextTraceLine(std::string_view Line, TextTraceLine &Out,
                        std::string &Error);

/// Trims spaces and a trailing '\r' from \p Line in place. Returns false
/// for lines the parser skips (blank or '#' comment).
bool trimTextTraceLine(std::string_view &Line);

/// Renders \p T in the text format (one event per line).
std::string writeTextTrace(const Trace &T);

} // namespace rapid

#endif // RAPID_IO_TEXTFORMAT_H
