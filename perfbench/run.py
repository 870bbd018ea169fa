#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of graphabm.

    python3 perfbench/run.py --workload hk_ring --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; graphabm is imported from ``src/``.
A run repeats whole rounds until ``--seconds`` would be exceeded (at least
two rounds). A round is

1. a one-worker run as ``graphabm run`` performs it: build the model, run
   every step with the model's per-step metrics, take the state checksum;
2. a two-worker run of the same inputs and steps (fork executor), whose
   checksum must equal the first;
3. for workloads whose build is short, extra builds for ``setup_s``.

Every timed window is scaled to a reference machine speed by a calibration
kernel timed just before and after it (``speed.py``); the raw times are
kept in the detail file. With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1``
graphabm's layer boundaries are wrapped in spans and it holds the
per-layer metrics instead. Every figure and the spans go to
``perfbench/out/``. README.md defines the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # leave no caches in the checkout

import checks  # noqa: E402
import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Timed metrics and the reference kernel time each is scaled to: the
# kernels around two-worker steps run on both vCPUs (speed.kernel_pair).
TIMED = {"setup_s": speed.REFERENCE_S, "step_s": speed.REFERENCE_S,
         "step_s_w2": speed.REFERENCE_PAIR_S, "run_s": speed.REFERENCE_S}
UNITS = {"setup_s": "s", "step_s": "s", "step_s_w2": "s", "run_s": "s",
         "peak_rss_mb": "MB"}


def load_graphabm():
    """Import graphabm from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "graphabm" / "__init__.py").is_file():
        raise SystemExit(f"error: no graphabm sources under {src}; "
                         "run from the root of a graphabm checkout")
    sys.path.insert(0, str(src))
    import graphabm

    if Path(graphabm.__file__).resolve().parent != src / "graphabm":
        raise SystemExit(f"error: imported graphabm from {graphabm.__file__}")
    return graphabm


def model_run(wl, inputs, seed, workers, tracer, metrics, capture):
    """One whole run; returns its timed windows and outputs, dropping the model.

    The speed kernel (``speed.py``) runs before the build, after it, at the
    end of every ``on_step`` and after the checksum, so every window has a
    kernel time just before and just after it. At two workers the kernels
    between steps run on both vCPUs at once. Kernel time inside the run is
    left out of ``run_s``.
    """
    from graphabm import run

    step_kernel = speed.kernel_pair if workers > 1 else speed.kernel
    marks, kernels, rows, snaps = [], [], [], []

    def on_step(sim):
        marks.append(perf_counter())
        if metrics:
            rows.append(wl.step_metrics(sim, rows, inputs))
        if capture:
            snaps.append(wl.snapshot(sim))
        kernels.append(step_kernel())
        marks.append(perf_counter())

    tracer.begin_run(f"w{workers}", wl.transitions)
    gc.collect()  # every build starts from the same collector state
    k0 = speed.kernel()
    t0 = perf_counter()
    with tracer.span("setup"):
        sim, program = wl.build(inputs, seed, tracer)
    t1 = perf_counter()
    k1 = speed.kernel()
    program = [(tracer.transition(fn), spec) for fn, spec in program]
    run(sim, wl.steps, program, workers=workers, on_step=on_step)
    checksum = sim.state_checksum()
    t2 = perf_counter()
    k2 = speed.kernel()
    if tracer.enabled and workers == 1 and not tracer.storage:
        tracer.record_storage(sim)
    del sim, program
    # step i runs between the end of on_step(i-1) and the start of on_step(i)
    steps = [(marks[2 * i] - marks[2 * i - 1], kernels[i - 1], kernels[i])
             for i in range(1, wl.steps)]
    return {
        "setup": (t1 - t0, k0, k1),
        "steps": steps,
        "run": (t2 - t0 - k1 - sum(kernels), k0, k1, *kernels, k2),
        "checksum": checksum,
        "rows": rows,
        "snaps": snaps,
    }


def one_round(wl, inputs, seed, tracer, first, windows, samples, failures):
    a = model_run(wl, inputs, seed, 1, tracer, metrics=True, capture=True)
    if first:
        samples["peak_rss_mb"].append(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    gc.collect()
    failures += wl.check_run(inputs, a["rows"], a["snaps"], full=first)
    extra_setups(wl, inputs, seed, tracer, windows)
    b = model_run(wl, inputs, seed, 2, tracer, metrics=False, capture=False)
    failures += checks.check_same_checksum(a["checksum"], b["checksum"])
    extra_setups(wl, inputs, seed, tracer, windows)
    windows["setup_s"] += [a["setup"], b["setup"]]
    windows["run_s"].append(a["run"])
    windows["step_s"] += a["steps"]
    windows["step_s_w2"] += b["steps"]
    samples["new_infections"] += [r.get("new_infections", 0) for r in a["rows"][1:]]
    # builds, steps and checksums of both runs, and the extra builds
    return 2 * (1 + wl.steps + 1 + wl.extra_setups)


def extra_setups(wl, inputs, seed, tracer, windows):
    """Builds that only feed ``setup_s``, for workloads whose build is short;
    the speed kernel runs before and after the batch."""
    if not wl.extra_setups:
        return
    raws = []
    gc.collect()
    k0 = speed.kernel()
    for _ in range(wl.extra_setups):
        tracer.begin_run("setup", 1)
        gc.collect()
        t0 = perf_counter()
        with tracer.span("setup"):
            sim, _program = wl.build(inputs, seed, tracer)
        raws.append(perf_counter() - t0)
        del sim, _program
    gc.collect()
    k1 = speed.kernel()
    windows["setup_s"] += [(raw, k0, k1) for raw in raws]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    graphabm = load_graphabm()
    import numpy as np
    from tracer import NullTracer, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    inputs = wl.make_inputs(args.seed)
    failures: list[str] = list(wl.extra_checks(args.seed))
    tracer = Tracer() if args.trace else NullTracer()
    samples = {"peak_rss_mb": [], "new_infections": []}
    windows = {name: [] for name in TIMED}
    speed.kernel()  # first call pays the page faults of its arrays
    attempted = rounds = 0
    start = perf_counter()
    if tracer.enabled:
        tracer.install()
    try:
        while True:
            r0 = perf_counter()
            attempted += one_round(wl, inputs, args.seed, tracer, rounds == 0,
                                   windows, samples, failures)
            rounds += 1
            now = perf_counter()
            if rounds >= 2 and (now - start) + (now - r0) > args.seconds:
                break
    except Exception:
        traceback.print_exc()
        print("error: the workload raised; no result", file=sys.stderr)
        return 1
    finally:
        if tracer.enabled:
            tracer.uninstall()

    end_to_end = {name: speed.at_reference(windows[name], ref)
                  for name, ref in TIMED.items()}
    end_to_end["peak_rss_mb"] = statistics.median(samples["peak_rss_mb"])
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    if tracer.enabled:
        reported = tracer.layer_metrics()
        reported["episim.new_infections"] = statistics.mean(samples["new_infections"])
        units = {name: _layer_unit(name) for name in reported}
    else:
        reported = end_to_end
        units = UNITS
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in reported.items()},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "wall_s": perf_counter() - start,
        "end_to_end": end_to_end,
        "raw_median": {name: statistics.median(w[0] for w in windows[name])
                       for name in TIMED},
        "samples": samples, "windows": windows, "failures": failures,
        "result": result,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "graphabm": graphabm.__version__,
                "nproc": len(os.sched_getaffinity(0))},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer.enabled:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(tracer.spans))
    print(json.dumps(result))
    return 0


def _layer_unit(name):
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
