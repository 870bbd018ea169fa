"""Machine speed, measured next to every timed window and divided out.

On a shared host the vCPUs of a virtual machine run the same code up to
twice as slow for seconds at a time; on the 2-vCPU reference machine run
medians of raw wall times spread by 15-30% from one run to the next. A
fixed calibration kernel, timed immediately before and after each window
of graphabm work, slows down with it. Each window is reported as

    raw seconds * REFERENCE_S / mean(kernel time before, kernel time after)

that is, in seconds at the speed at which the kernel takes REFERENCE_S.
The kernel never calls graphabm, so a change to graphabm moves the
reported figure by the same factor as the raw one, while a slow phase of
the host moves both the window and the kernel and cancels.

The kernel mixes the three kinds of work the workloads do: small numpy
operations called from a Python loop (an HK agent's update), plain
interpreter work on a dict, tuples and a keyed sort (engine dispatch and
the epidemic's transitions), and a random gather over arrays larger than
the caches (edge-store reads). It allocates about 19 MB once, at import.
``kernel_pair`` runs it on both vCPUs at once, for two-worker windows.
"""

from __future__ import annotations

import gc
import os
import statistics
import struct
from operator import itemgetter
from time import perf_counter

import numpy as np

# Median kernel times on the reference machine (2-vCPU Xeon at 2.1 GHz,
# Python 3.11.7, numpy 2.4.6): of ``kernel()``, and of ``kernel_pair()``,
# which waits for the slower of two vCPUs. They only scale the figures, to
# about the raw seconds of that machine.
REFERENCE_S = 0.036
REFERENCE_PAIR_S = 0.050

_rng = np.random.default_rng(20240620)
_SMALL = _rng.random(100_000)
_STARTS = _rng.integers(0, _SMALL.size - 101, 1200).tolist()
_BIG = _rng.random(1_000_000)
_IDX = _rng.integers(0, _BIG.size, 600_000)
_OUT = np.empty(_IDX.size)
_TABLE = {i: (i * 7919) % 10007 for i in range(10007)}


def kernel() -> float:
    """Run the calibration kernel once; return its wall time in seconds.

    The collector is off while it runs: its tuples would otherwise start
    collections whose cost depends on the size of the benchmark's heap.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        for s in _STARTS:
            x = _SMALL[s:s + 101]
            close = x[np.abs(x - x[0]) <= 0.2]
            close.mean()
            close.min()
            close.max()
        acc, rows = 0, []
        for i in range(25_000):
            acc += _TABLE[i % 10007]
            rows.append((i, acc & 255))
        rows.sort(key=itemgetter(1))
        np.take(_BIG, _IDX, out=_OUT).sum()
        return perf_counter() - t0
    finally:
        gc.enable()


def at_reference(windows, reference: float) -> float:
    """Median over windows ``(raw_s, kernel_s, ...)`` of each raw time at
    reference speed, the speed taken from that window's own kernel times."""
    return statistics.median(w[0] * reference * (len(w) - 1) / sum(w[1:])
                             for w in windows)


def kernel_pair() -> float:
    """Run the kernel in this process and a forked child at once; return
    the slower of the two times (a two-worker step waits for its slower
    worker, and the child runs on the other vCPU)."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: time the kernel, report it, leave at once
        try:
            os.close(r)
            os.write(w, struct.pack("d", kernel()))
        finally:
            os._exit(0)
    os.close(w)
    try:
        mine = kernel()
        with os.fdopen(r, "rb") as f:
            theirs = struct.unpack("d", f.read(8))[0]
    finally:
        os.waitpid(pid, 0)
    return max(mine, theirs)
