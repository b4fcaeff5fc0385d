#!/usr/bin/env python3
"""Structural checks over a bench_pipeline JSON emission.

Two tiers, mirroring what the numbers can actually support:

  * Always (any host): the lock-free publish path's invariants — every
    streamed section's ``publish.events`` equals the events the run
    ingested, and the retired ``consume.lock_wait_seconds`` must be
    absent or exactly zero (a nonzero value means a mutex crept back
    between publication and the lanes). The ``syncp`` section must be
    present and self-consistent: the streamed run reproduced the batch
    report (``streamed_matches_batch`` true), every reported race came
    from a candidate the prefilter admitted (``races <=
    candidate_pairs``), and the closure actually ran when there were
    candidates to decide. The ``serve_resilience`` section must be
    present, its kill-injected run must reproduce the clean report
    (``reports_match`` true), and the fault plan must actually have
    fired (``reconnects >= 1`` when kills were injected).

  * Only on a trustworthy parallel run (``degraded`` false and
    ``hardware_threads >= 4``): the perf claims — fan-out ``speedup``
    above 1.0, positive ``overlap_saved_seconds`` for the streamed and
    streamed_windowed sections, and the serve_resilience resume overhead
    within 10% of the uninterrupted wall (with a 50 ms absolute
    allowance against timer jitter). A
    degraded run (workers oversubscribe the host) skips these instead
    of failing on scheduler noise.

Usage: check_bench.py BENCH.json
"""

import json
import sys


def fail(msg):
    print(f"check_bench: FAIL: {msg}", file=sys.stderr)
    return 1


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        bench = json.load(f)

    rc = 0
    events = bench.get("events")
    stages = bench.get("stage_breakdown", {})
    if not stages:
        rc |= fail("no stage_breakdown section (obs layer stopped reporting)")
    for name, section in stages.items():
        published = section.get("publish.events")
        if published != events:
            rc |= fail(
                f"{name}: publish.events = {published} but the run ingested "
                f"{events} — the watermark diverged from ingestion"
            )
        lock_wait = section.get("consume.lock_wait_seconds", 0)
        if lock_wait != 0:
            rc |= fail(
                f"{name}: consume.lock_wait_seconds = {lock_wait}; the "
                "publish path must not take a lock"
            )

    syncp = bench.get("syncp")
    if not syncp:
        rc |= fail("no syncp section (sync-preserving lane stopped reporting)")
    else:
        if syncp.get("streamed_matches_batch") is not True:
            rc |= fail("syncp: streamed run did not reproduce the batch report")
        races = syncp.get("races", -1)
        candidates = syncp.get("candidate_pairs", -1)
        if races < 0 or candidates < 0:
            rc |= fail("syncp: races/candidate_pairs missing")
        elif races > candidates:
            rc |= fail(
                f"syncp: {races} race(s) from only {candidates} candidate "
                "pair(s) — a race must come from an admitted candidate"
            )
        if candidates > 0 and syncp.get("closure_iterations", 0) <= 0:
            rc |= fail(
                f"syncp: {candidates} candidate(s) but no closure "
                "iterations — the exact decision procedure never ran"
            )

    serve = bench.get("serve_resilience")
    if not serve:
        rc |= fail("no serve_resilience section (fault-tolerance lane "
                   "stopped reporting)")
    else:
        if serve.get("reports_match") is not True:
            rc |= fail("serve_resilience: the kill-injected run's report "
                       "diverged from the uninterrupted one")
        kills = serve.get("kills", 0)
        reconnects = serve.get("reconnects", -1)
        if kills > 0 and reconnects < 1:
            rc |= fail(
                f"serve_resilience: {kills} injected kill(s) but "
                f"{reconnects} reconnect(s) — the fault plan never fired"
            )

    degraded = bench.get("degraded", True)
    hw = bench.get("hardware_threads", 0)
    if degraded or hw < 4:
        print(
            f"check_bench: skipping speedup assertions "
            f"(degraded={degraded}, hardware_threads={hw})"
        )
    else:
        if bench.get("speedup", 0) <= 1.0:
            rc |= fail(f"speedup {bench.get('speedup')} <= 1.0 on a "
                       f"{hw}-thread host")
        for name in ("streamed", "streamed_windowed"):
            saved = bench.get(name, {}).get("overlap_saved_seconds")
            if saved is None or saved <= 0:
                rc |= fail(f"{name}: overlap_saved_seconds = {saved}, "
                           "expected > 0 on a multi-core host")
        if serve:
            clean = serve.get("clean_wall_seconds", 0)
            faulty = serve.get("faulty_wall_seconds", 0)
            ratio = serve.get("resume_overhead_ratio", 0)
            # Resume must be noise against the analysis: 10% relative, with
            # a 50 ms absolute allowance so short clean walls don't turn
            # timer jitter into a failure.
            if clean > 0 and ratio > 1.10 and (faulty - clean) > 0.05:
                rc |= fail(
                    f"serve_resilience: resume overhead ratio {ratio:.3f} "
                    f"(clean {clean:.3f}s, faulty {faulty:.3f}s) exceeds "
                    "the 10% budget on a non-degraded host"
                )

    if rc == 0:
        print("check_bench: OK")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
