//===- io/TextFormat.cpp ------------------------------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#include "io/TextFormat.h"

#include "trace/TraceBuilder.h"

using namespace rapid;

bool rapid::trimTextTraceLine(std::string_view &Line) {
  // Trim trailing carriage return and surrounding spaces.
  while (!Line.empty() && (Line.back() == '\r' || Line.back() == ' '))
    Line.remove_suffix(1);
  while (!Line.empty() && Line.front() == ' ')
    Line.remove_prefix(1);
  return !Line.empty() && Line.front() != '#';
}

bool rapid::splitTextTraceLine(std::string_view Line, TextTraceLine &Out,
                               std::string &Error) {
  auto fail = [&](const std::string &Msg) {
    Error = Msg;
    return false;
  };

  // Split into at most three '|'-separated fields.
  size_t Bar1 = Line.find('|');
  if (Bar1 == std::string_view::npos)
    return fail("expected '<thread>|<op>(<target>)[|<loc>]'");
  size_t Bar2 = Line.find('|', Bar1 + 1);
  std::string_view Thread = Line.substr(0, Bar1);
  std::string_view Op = Bar2 == std::string_view::npos
                            ? Line.substr(Bar1 + 1)
                            : Line.substr(Bar1 + 1, Bar2 - Bar1 - 1);
  if (Thread.empty())
    return fail("empty thread name");

  size_t Paren = Op.find('(');
  if (Paren == std::string_view::npos || Op.back() != ')')
    return fail("operation must look like op(target)");
  std::string_view Name = Op.substr(0, Paren);
  std::string_view Target = Op.substr(Paren + 1, Op.size() - Paren - 2);
  if (Target.empty())
    return fail("empty operation target");

  if (Name == "r")
    Out.Kind = EventKind::Read;
  else if (Name == "w")
    Out.Kind = EventKind::Write;
  else if (Name == "acq")
    Out.Kind = EventKind::Acquire;
  else if (Name == "rel")
    Out.Kind = EventKind::Release;
  else if (Name == "fork")
    Out.Kind = EventKind::Fork;
  else if (Name == "join")
    Out.Kind = EventKind::Join;
  else
    return fail("unknown operation '" + std::string(Name) + "'");
  Out.Thread = Thread;
  Out.Target = Target;
  Out.Loc = Bar2 == std::string_view::npos ? std::string_view()
                                           : Line.substr(Bar2 + 1);
  return true;
}

TextParseResult rapid::parseTextTrace(std::string_view Text) {
  TextParseResult Result;
  TraceBuilder Builder;

  size_t Pos = 0;
  uint64_t LineNo = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string_view::npos)
      End = Text.size();
    std::string_view Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    ++LineNo;
    if (!trimTextTraceLine(Line))
      continue;
    std::string Error;
    TextTraceLine L;
    if (!splitTextTraceLine(Line, L, Error)) {
      Result.Ok = false;
      Result.Error = "line " + std::to_string(LineNo) + ": " + Error;
      return Result;
    }
    switch (L.Kind) {
    case EventKind::Read:
      Builder.read(L.Thread, L.Target, L.Loc);
      break;
    case EventKind::Write:
      Builder.write(L.Thread, L.Target, L.Loc);
      break;
    case EventKind::Acquire:
      Builder.acquire(L.Thread, L.Target, L.Loc);
      break;
    case EventKind::Release:
      Builder.release(L.Thread, L.Target, L.Loc);
      break;
    case EventKind::Fork:
      Builder.fork(L.Thread, L.Target, L.Loc);
      break;
    case EventKind::Join:
      Builder.join(L.Thread, L.Target, L.Loc);
      break;
    }
  }

  Result.Ok = true;
  Result.T = Builder.take();
  return Result;
}

std::string rapid::writeTextTrace(const Trace &T) {
  std::string Out;
  for (EventIdx I = 0; I != T.size(); ++I) {
    const Event &E = T.event(I);
    Out += T.threadName(E.Thread);
    Out += '|';
    Out += eventKindName(E.Kind);
    Out += '(';
    switch (E.Kind) {
    case EventKind::Read:
    case EventKind::Write:
      Out += T.varName(E.var());
      break;
    case EventKind::Acquire:
    case EventKind::Release:
      Out += T.lockName(E.lock());
      break;
    case EventKind::Fork:
    case EventKind::Join:
      Out += T.threadName(E.targetThread());
      break;
    }
    Out += ')';
    Out += '|';
    Out += T.locName(E.Loc);
    Out += '\n';
  }
  return Out;
}
