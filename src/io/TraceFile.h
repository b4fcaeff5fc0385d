//===- io/TraceFile.h - Save traces by file path ---------------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// File-level helpers shared by the codecs' file paths: saving a trace by
/// extension (".bin" in any letter case → binary, anything else → text)
/// and the suffix test that dispatch rests on. Loading a file is
/// streaming: pipeline/ChunkedReader parses it chunk by chunk, and
/// AnalysisSession::feedFile runs that reader while lanes analyze.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_IO_TRACEFILE_H
#define RAPID_IO_TRACEFILE_H

#include "trace/Trace.h"

#include <string>

namespace rapid {

/// Saves \p T at \p Path; returns an empty string on success, otherwise
/// the error message.
std::string saveTraceFile(const Trace &T, const std::string &Path);

/// True iff \p S ends with \p Suffix, compared case-insensitively (so
/// ".bin", ".BIN" and ".Bin" all select the binary codec). Shared with the
/// chunked reader in pipeline/.
bool hasTraceSuffix(const std::string &S, const char *Suffix);

} // namespace rapid

#endif // RAPID_IO_TRACEFILE_H
