#!/usr/bin/env python3
"""Show that every output check passes on real output and fails on a perturbed one.

    python3 perfbench/selftest.py

Runs small instances of the benchmark's models (seconds, not minutes) and
exits non-zero if a check misses a perturbation or rejects a correct output.
"""

from __future__ import annotations

import sys

import numpy as np

from run import load_graphabm

load_graphabm()

import checks  # noqa: E402
from graphabm import run  # noqa: E402
from tracer import NullTracer  # noqa: E402
from workloads import EpidemicWorkload, HKWorkload  # noqa: E402

failed = []


def expect(name, messages, should_fail):
    ok = bool(messages) == should_fail
    print(f"{'PASS' if ok else 'FAIL'} {name}: "
          f"{messages[0] if messages else 'no finding'}")
    if not ok:
        failed.append(name)


def hk_outputs(wl, seed, steps):
    x0 = wl.make_inputs(seed)
    sim, program = wl.build(x0, seed, NullTracer())
    rows, snaps = [], []

    def on_step(s):
        rows.append(wl.step_metrics(s, rows, x0))
        snaps.append(wl.snapshot(s))

    run(sim, steps, program, on_step=on_step)
    return x0, rows, snaps


def hk_cases():
    for wl in (HKWorkload("ring", n=400, k=10, steps=3),
               HKWorkload("complete", n=150, k=None, steps=3)):
        x0, rows, snaps = hk_outputs(wl, 7, 3)
        expect(f"{wl.name}: real output", wl.check_run(x0, rows, snaps, full=True), False)

        x1 = snaps[0].copy()
        x1[5] += 1e-9
        expect(f"{wl.name}: first step moved by 1e-9",
               checks.check_hk_first_step(x0, x1, wl.epsilon, wl.k), True)

        new = snaps[0].copy()
        if wl.k is None:
            new[5] = x0.max() + 1e-9
        else:
            hi = checks.ring_windows(x0, wl.k).max(axis=1)
            i = int(np.argmin(hi))  # the agent whose neighbourhood tops out lowest
            new[i] = hi[i] + 1e-9
        expect(f"{wl.name}: an agent outside its neighbourhood hull",
               checks.check_hk_hull(x0, new, wl.k), True)

        bad_rows = [dict(r) for r in rows]
        bad_rows[1]["min"] = bad_rows[0]["min"] - 1e-12
        expect(f"{wl.name}: global min falls", checks.check_hk_extremes(x0, bad_rows), True)
        bad_rows = [dict(r) for r in rows]
        bad_rows[2]["max"] = bad_rows[1]["max"] + 1e-12
        expect(f"{wl.name}: global max rises", checks.check_hk_extremes(x0, bad_rows), True)


def epidemic_cases():
    wl = EpidemicWorkload("epidemic", persons=2000, locations=100, seed_cases=5, days=6)
    inputs = wl.make_inputs(3)
    sim, program = wl.build(inputs, 3, NullTracer())
    snaps = []
    run(sim, wl.steps, program, on_step=lambda s: snaps.append(wl.snapshot(s)))
    expect("epidemic: real output", wl.check_run(inputs, [], snaps, full=True), False)
    expect("epidemic: theta=1 real output, 1 and 2 workers", wl.extra_checks(3), False)

    # A chain 0-1-2-3-4 of visits; person 0 is the seed case.
    schedule = [(p, p, 0, 10) for p in range(5)] + [(p + 1, p, 5, 15) for p in range(4)]
    graph = checks.copresence_graph(schedule, 5)
    dist = checks.hop_distance(graph, (0,), 5)
    expect("chain: hop distances", [] if dist.tolist() == [0, 1, 2, 3, 4]
           else [f"unexpected {dist.tolist()}"], False)

    def days(*sets):
        out = []
        for s in sets:
            mask = np.zeros(5, dtype=bool)
            mask[list(s)] = True
            out.append(mask)
        return out

    ball = days({0, 1}, {0, 1, 2}, {0, 1, 2, 3})
    expect("chain: ball at theta=1", checks.check_epidemic(ball, dist, graph, (0,), True), False)
    expect("chain: infected outside the ball",
           checks.check_epidemic(days({0, 1, 2}), dist, graph, (0,), False), True)
    expect("chain: new case without an infected contact",
           checks.check_epidemic(days({0}, {0, 2}), dist, graph, (0,), False), True)
    expect("chain: infected count falls",
           checks.check_epidemic(days({0, 1}, {0}), dist, graph, (0,), False), True)
    expect("chain: theta=1 short of the ball",
           checks.check_epidemic(days({0, 1}, {0, 1}), dist, graph, (0,), True), True)


def checksum_cases():
    expect("checksum: equal", checks.check_same_checksum("ab" * 32, "ab" * 32), False)
    expect("checksum: differs", checks.check_same_checksum("ab" * 32, "ac" * 32), True)


if __name__ == "__main__":
    hk_cases()
    epidemic_cases()
    checksum_cases()
    print(f"{len(failed)} self-test expectation(s) failed" if failed else "all checks behave")
    sys.exit(1 if failed else 0)
