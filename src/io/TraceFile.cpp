//===- io/TraceFile.cpp -------------------------------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#include "io/TraceFile.h"

#include "io/BinaryFormat.h"
#include "io/TextFormat.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>

using namespace rapid;

bool rapid::hasTraceSuffix(const std::string &S, const char *Suffix) {
  size_t N = std::char_traits<char>::length(Suffix);
  if (S.size() < N)
    return false;
  for (size_t I = 0; I != N; ++I)
    if (std::tolower(static_cast<unsigned char>(S[S.size() - N + I])) !=
        std::tolower(static_cast<unsigned char>(Suffix[I])))
      return false;
  return true;
}

std::string rapid::saveTraceFile(const Trace &T, const std::string &Path) {
  std::string Bytes =
      hasTraceSuffix(Path, ".bin") ? writeBinaryTrace(T) : writeTextTrace(T);
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return "cannot open '" + Path + "' for writing: " +
           std::string(std::strerror(errno));
  size_t Wrote = std::fwrite(Bytes.data(), 1, Bytes.size(), F);
  bool Bad = Wrote != Bytes.size();
  if (std::fclose(F) != 0)
    Bad = true;
  return Bad ? "write error on '" + Path + "'" : "";
}
