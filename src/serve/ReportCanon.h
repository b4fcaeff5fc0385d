//===- serve/ReportCanon.h - Canonical race-report listing ------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One deterministic text rendering of an AnalysisResult, shared by the
/// server's Report frames and `race_cli --report-out`. This is the
/// serving layer's equality witness: the e2e pin diffs the live server's
/// final report against an offline race_cli run byte for byte, so the
/// rendering deliberately contains *only* replay-deterministic fields —
/// names, counts, event indices — and none of the timing/telemetry that
/// differs between runs.
///
/// Because a session's partialResult() is an exact prefix of its final
/// report per lane, the canonical listing inherits the property line-wise:
/// a partial listing's per-lane `race` lines are a prefix of the final
/// listing's, which is what the mid-stream assertion checks.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_SERVE_REPORTCANON_H
#define RAPID_SERVE_REPORTCANON_H

#include <string>

namespace rapid {

struct AnalysisResult;
class Trace;

/// Renders \p R against \p T's name tables:
///
///   rapidpp-report v1
///   status <ok | code: message>
///   events <n>
///   lanes <k>
///   lane <detector name>
///   lane-status <ok | code: message>
///   consumed <n>
///   pairs <distinct> instances <total>
///   race <var> <earlier loc> <later loc> at <earlier idx> <later idx>
///   ...       (first instance per distinct pair, discovery order)
///   end
///
/// Identical event streams + configs produce identical bytes, whether the
/// events arrived over a socket or from a file.
std::string canonicalReport(const AnalysisResult &R, const Trace &T);

} // namespace rapid

#endif // RAPID_SERVE_REPORTCANON_H
