#!/usr/bin/env python3
"""Keep the docs honest: link check + CLI invocation check.

Part of rapidpp (PLDI'17 WCP reproduction).

Two failure modes docs rot into, both caught here and run as a CI job on
every push:

  1. intra-repo markdown links pointing at files that moved or were
     renamed — every relative link target in *.md (repo root and docs/)
     must resolve to an existing file;
  2. quoted `race_cli ...` and `race_serverd ...` invocations whose
     flags no longer parse — every invocation found in code blocks or
     inline code spans of README.md, docs/*.md and the agent skills
     (.claude/skills/*/SKILL.md) (fenced lines ending in `\\` continue on
     the next line) is re-executed with `--dry-run` appended (both tools
     validate the flag combination and exit without reading a trace or
     opening a socket), so a renamed or removed flag fails the job the
     moment a doc still advertises it.

Usage: scripts/check_docs.py [--cli PATH_TO_RACE_CLI]
                             [--serverd PATH_TO_RACE_SERVERD]
                             [--root REPO_ROOT]

A tool whose binary is not given is not checked (the link check always
runs).
"""

import argparse
import pathlib
import re
import shlex
import subprocess
import sys

# [text](target) — excluding images is unnecessary; image targets must
# exist too. Ignores absolute URLs and pure anchors below.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# A race_cli / race_serverd command: the binary name — path prefixes
# like `./build/race_cli` count — followed by at least one
# whitespace-separated argument, up to the end of the line / code span.
# `race_cli_json_parses` (ctest names) must not match, hence the \s and
# the no-word/dash guard.
CMD_RE = re.compile(r"(?<![\w-])(race_cli|race_serverd)\s+([^`\n]*)")


def doc_files(root: pathlib.Path):
    yield from sorted(root.glob("*.md"))
    yield from sorted((root / "docs").glob("*.md"))


def user_doc_files(root: pathlib.Path):
    """The user-facing docs whose quoted invocations must stay runnable,
    the skills' build-and-drive notes included. (CHANGES.md and the PR-log
    files mention historical flags in prose — links there are still
    checked, commands are not.)"""
    readme = root / "README.md"
    if readme.exists():
        yield readme
    yield from sorted((root / "docs").glob("*.md"))
    yield from sorted((root / ".claude" / "skills").glob("*/SKILL.md"))


def check_links(root: pathlib.Path) -> list:
    errors = []
    for md in doc_files(root):
        for lineno, line in enumerate(md.read_text().splitlines(), 1):
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                path = target.split("#", 1)[0]
                if not path:
                    continue
                resolved = (md.parent / path).resolve()
                if not resolved.exists():
                    errors.append(
                        f"{md.relative_to(root)}:{lineno}: broken link "
                        f"'{target}' (no such file {path})")
    return errors


def doc_lines(md: pathlib.Path):
    """Yields (lineno, line, in_fence) with fenced `\\` continuations
    joined onto the line that starts the command."""
    in_fence = False
    pending = None  # (lineno, text so far) of a continued fenced line
    for lineno, line in enumerate(md.read_text().splitlines(), 1):
        if pending is None and line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if pending is not None:
            lineno, line = pending[0], pending[1] + " " + line.strip()
            pending = None
        if in_fence and line.endswith("\\"):
            pending = (lineno, line[:-1].rstrip())
            continue
        yield lineno, line, in_fence


def invocations(region: str):
    """Yields (tool, args) for every invocation in region. A tool path
    that is an option's value (`check_docs.py --cli build/race_cli`) names
    the binary rather than running it, so it is skipped."""
    pos = 0
    while (m := CMD_RE.search(region, pos)):
        token_start = max(region.rfind(" ", 0, m.start()),
                          region.rfind("\t", 0, m.start())) + 1
        before = region[:token_start].split()
        if before and before[-1].startswith("-"):
            pos = m.end(1)
            continue
        yield m.group(1), m.group(2)
        pos = m.end()


def extract_commands(root: pathlib.Path):
    """Yields (file, lineno, tool, argv, error) for every quoted
    race_cli / race_serverd invocation."""
    for md in user_doc_files(root):
        for lineno, line, in_fence in doc_lines(md):
            # Outside fences only look inside inline code spans, so prose
            # that merely *names* the tool is not executed.
            regions = [line] if in_fence else re.findall(r"`([^`]*)`", line)
            for region in regions:
                for tool, args in invocations(region):
                    args = args.strip().rstrip(".,;:")
                    if not args:
                        continue
                    try:
                        argv = shlex.split(args)
                    except ValueError as err:
                        yield md, lineno, tool, None, f"unparsable: {err}"
                        continue
                    # Doc lines may show output after a pipe or comment,
                    # or background the daemon.
                    for cut in ("|", "#", "&&", ">", "&"):
                        if cut in argv:
                            argv = argv[: argv.index(cut)]
                    yield md, lineno, tool, argv, None


def check_commands(root: pathlib.Path, bins: dict) -> list:
    """Dry-runs every quoted invocation of each tool in bins
    (tool name -> binary path)."""
    errors = []
    seen = dict.fromkeys(bins, 0)
    for md, lineno, tool, argv, err in extract_commands(root):
        if tool not in bins:
            continue
        where = f"{md.relative_to(root)}:{lineno}"
        if err:
            errors.append(f"{where}: {err}")
            continue
        seen[tool] += 1
        proc = subprocess.run(
            [str(bins[tool]), *argv, "--dry-run"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            errors.append(
                f"{where}: `{tool} {' '.join(argv)}` no longer parses "
                f"(exit {proc.returncode}): {proc.stderr.strip()}")
    for tool, count in seen.items():
        if count == 0:
            errors.append(f"no {tool} invocations found in docs — the "
                          "extraction regex or the docs rotted")
        else:
            print(f"checked {count} {tool} invocation(s)")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cli", type=pathlib.Path,
                    help="race_cli binary; omit to skip its invocations")
    ap.add_argument("--serverd", type=pathlib.Path,
                    help="race_serverd binary; omit to skip its "
                         "invocations")
    ap.add_argument("--root", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parent.parent)
    opts = ap.parse_args()
    bins = {}
    for tool, path in (("race_cli", opts.cli),
                       ("race_serverd", opts.serverd)):
        if not path:
            continue
        bins[tool] = path.resolve()
        if not bins[tool].exists():
            print(f"error: no such {tool} binary: {bins[tool]}",
                  file=sys.stderr)
            return 1

    errors = check_links(opts.root)
    print(f"checked links in {len(list(doc_files(opts.root)))} markdown "
          f"file(s)")
    if bins:
        errors += check_commands(opts.root, bins)
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
