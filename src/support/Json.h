//===- support/Json.h - Minimal JSON emission helpers -----------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two primitives behind the repo's hand-assembled JSON outputs
/// (race_cli --json, the obs/ timeline export): fixed-point number
/// formatting and string quoting/escaping. Shared so the outputs cannot
/// drift in their encoding.
/// Deliberately not a JSON library — emission sites assemble their own
/// objects so the schema stays visible at the call site.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_SUPPORT_JSON_H
#define RAPID_SUPPORT_JSON_H

#include <cstdio>
#include <string>

namespace rapid {

/// Renders \p V with six fractional digits — the precision every JSON
/// timing field in the repo uses.
inline std::string jsonNum(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6f", V);
  return Buf;
}

/// Quotes \p S as a JSON string, escaping quotes, backslashes and
/// control characters (error messages may carry arbitrary bytes).
inline std::string jsonQuote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
      continue;
    }
    Out += C;
  }
  Out += '"';
  return Out;
}

} // namespace rapid

#endif // RAPID_SUPPORT_JSON_H
