"""Build time and memory of a large HK ring, and a few of its steps.

Usage: ``python tools/build_scale.py [--n N] [--k K] [--steps S]``
(defaults: n=1,000,000 agents of k=100 neighbours, 3 steps), run from the
root of a source checkout; graphabm is imported from ``src/``.

It builds the ring through ``graphabm.models.hk.build_hk`` twice. The
first build is timed in three parts: the topology builder, the
``sim.add_edges`` call and ``commit_initial``. The second runs under
``tracemalloc``, whose peak counts every numpy buffer the build holds at
once. It prints those times, the bytes the edge store holds, the traced
peak and the process's peak RSS (``ru_maxrss``), then runs ``--steps``
steps of the second build at one worker and at two, and prints seconds
per step and the state checksum after each. Each figure is one run, so
compare runs of one machine only. At the default size a build holds
about 1.2 GB; use a smaller ``--n`` on a machine without that to spare.
Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import resource
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from graphabm import Simulation, run  # noqa: E402
from graphabm.models import hk  # noqa: E402
from graphabm.models.topology import Regular  # noqa: E402


@contextmanager
def timed(owner, name: str, seconds: dict):
    """Patch ``owner.name`` so that each call adds its wall time to
    ``seconds[name]``."""
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            seconds[name] = seconds.get(name, 0.0) + perf_counter() - start

    with mock.patch.object(owner, name, wrapper):
        yield


def mb(n_bytes: float) -> str:
    return f"{n_bytes / 2**20:,.1f} MB"


def peak_rss(who=resource.RUSAGE_SELF) -> str:
    return mb(resource.getrusage(who).ru_maxrss * 1024)  # ru_maxrss is in KiB on Linux


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1_000_000, help="agents")
    parser.add_argument("--k", type=int, default=100, help="neighbours per agent")
    parser.add_argument("--steps", type=int, default=3, help="steps at each worker count")
    args = parser.parse_args(argv)
    config = hk.HKConfig(n=args.n, epsilon=0.2, topology=Regular(args.k), seed=1)

    seconds = {}
    with timed(Regular, "build", seconds), \
            timed(Simulation, "add_edges", seconds), \
            timed(Simulation, "commit_initial", seconds):
        start = perf_counter()
        sim = hk.build_hk(config)
        total = perf_counter() - start
    store = sim.edge_container(hk.EDGE).nbytes()
    edges = sim.edge_container(hk.EDGE).n_stored()
    print(f"HK ring n={args.n:,} k={args.k}: {edges:,} edges")
    print(f"build {total:.3f} s: topology {seconds['build']:.3f} s, "
          f"add_edges {seconds['add_edges']:.3f} s, "
          f"commit_initial {seconds['commit_initial']:.3f} s")
    del sim

    tracemalloc.start()
    sim = hk.build_hk(config)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(f"store {mb(store)}; traced build peak {mb(peak)} "
          f"({peak / store:.2f}x the store); peak RSS {peak_rss()}")

    for workers in (1, 2):
        start = perf_counter()
        run(sim, args.steps, hk.hk_program(), workers=workers)
        per_step = (perf_counter() - start) / args.steps
        print(f"{args.steps} steps at {workers} worker(s): {per_step:.3f} s a step, "
              f"state checksum after them {sim.state_checksum()[:8]}")
    print(f"peak RSS {peak_rss()}, children {peak_rss(resource.RUSAGE_CHILDREN)}")


if __name__ == "__main__":
    main()
