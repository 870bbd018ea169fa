"""Output checks, computed apart from graphabm.

Every check takes plain numpy arrays or Python values and returns a list of
failure messages; an empty list means the output passed. None of them
imports graphabm, so a fault in the engine cannot hide in its own oracle.
"""

from __future__ import annotations

import numpy as np

# HK opinions lie in [0, 1]. The reference averages the same values as the
# engine in another summation order, which moves the result by a few ulps
# (k * 2.2e-16 at most); 1e-12 leaves room for that and nothing else.
HK_TOLERANCE = 1e-12


# -- HK ------------------------------------------------------------------------


def ring_windows(x: np.ndarray, k: int) -> np.ndarray:
    """(n, k+1) view of each agent's ring neighbourhood, self included."""
    half = k // 2
    padded = np.concatenate([x[-half:], x, x[:half]])
    return np.lib.stride_tricks.sliding_window_view(padded, k + 1)


def hk_reference_step(x: np.ndarray, epsilon: float, k: int | None) -> np.ndarray:
    """One HK update of every agent, vectorised; ``k=None`` is the complete graph."""
    if k is None:
        seen = np.broadcast_to(x[None, :], (x.size, x.size))
    else:
        seen = ring_windows(x, k)
    close = np.abs(seen - x[:, None]) <= epsilon
    total = np.where(close, seen, 0.0).sum(axis=1)
    mean = total / close.sum(axis=1)
    lo = np.where(close, seen, np.inf).min(axis=1)
    hi = np.where(close, seen, -np.inf).max(axis=1)
    return np.clip(mean, lo, hi)


def check_hk_first_step(x0, x1, epsilon, k) -> list[str]:
    ref = hk_reference_step(x0, epsilon, k)
    err = float(np.max(np.abs(ref - x1))) if x1.size else 0.0
    if x1.shape != x0.shape or not err <= HK_TOLERANCE:
        return [f"HK first step differs from the numpy reference by {err:.3g} "
                f"(tolerance {HK_TOLERANCE:g})"]
    return []


def check_hk_hull(prev, new, k) -> list[str]:
    """Each new opinion lies within the hull of its neighbourhood's old ones."""
    if k is None:
        lo = np.full(prev.size, prev.min())
        hi = np.full(prev.size, prev.max())
    else:
        win = ring_windows(prev, k)
        lo, hi = win.min(axis=1), win.max(axis=1)
    bad = np.flatnonzero((new < lo) | (new > hi))
    if bad.size:
        return [f"HK: {bad.size} agents left their neighbourhood hull, "
                f"first agent {int(bad[0])}"]
    return []


def check_hk_extremes(x0, rows) -> list[str]:
    """Global min never decreases and global max never increases."""
    lows = [float(x0.min())] + [float(r["min"]) for r in rows]
    highs = [float(x0.max())] + [float(r["max"]) for r in rows]
    out = []
    for s in range(1, len(lows)):
        if lows[s] < lows[s - 1]:
            out.append(f"HK: global min fell at step {s}: {lows[s - 1]!r} -> {lows[s]!r}")
        if highs[s] > highs[s - 1]:
            out.append(f"HK: global max rose at step {s}: {highs[s - 1]!r} -> {highs[s]!r}")
    return out


# -- epidemic -------------------------------------------------------------------


def copresence_graph(schedule, persons: int):
    """CSR adjacency (indptr, indices) of persons whose visits to one
    location overlap as closed intervals, self-contacts excluded."""
    rows = np.asarray(schedule, dtype=np.int64).reshape(-1, 4)
    order = np.lexsort((rows[:, 0], rows[:, 1]))
    rows = rows[order]
    bounds = np.flatnonzero(np.diff(rows[:, 1])) + 1
    src, dst = [], []
    for group in np.split(rows, bounds):
        p, s, e = group[:, 0], group[:, 2], group[:, 3]
        meet = (s[:, None] <= e[None, :]) & (s[None, :] <= e[:, None])
        meet &= p[:, None] != p[None, :]
        i, j = np.nonzero(meet)
        src.append(p[i])
        dst.append(p[j])
    src = np.concatenate(src) if src else np.empty(0, np.int64)
    dst = np.concatenate(dst) if dst else np.empty(0, np.int64)
    pairs = np.unique(np.stack([src, dst], axis=1), axis=0) if src.size else np.empty((0, 2), np.int64)
    indptr = np.zeros(persons + 1, dtype=np.int64)
    np.add.at(indptr, pairs[:, 0] + 1, 1)
    return np.cumsum(indptr), pairs[:, 1].copy()


def hop_distance(graph, sources, persons: int) -> np.ndarray:
    """Breadth-first hop count from the seed cases; -1 where unreachable."""
    indptr, indices = graph
    dist = np.full(persons, -1, dtype=np.int64)
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    dist[frontier] = 0
    hop = 0
    while frontier.size:
        hop += 1
        starts, ends = indptr[frontier], indptr[frontier + 1]
        lens = ends - starts
        offsets = np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
        nxt = np.unique(indices[offsets])
        frontier = nxt[dist[nxt] < 0]
        dist[frontier] = hop
    return dist


def check_epidemic(days, dist, graph, seed_cases, exact: bool) -> list[str]:
    """``days[d]`` is the boolean infected mask after day d+1.

    Infected persons stay within the (d+1)-hop ball of the seed cases, each
    day's new cases have a co-presence contact infected the day before, and
    the infected count never falls. ``exact`` (theta = 1) also demands that
    the infected set equals the ball.
    """
    out = []
    indptr, indices = graph
    prev = np.zeros(dist.size, dtype=bool)
    prev[list(seed_cases)] = True
    for d, now in enumerate(days, start=1):
        ball = (dist >= 0) & (dist <= d)
        outside = np.flatnonzero(now & ~ball)
        if outside.size:
            out.append(f"epidemic day {d}: {outside.size} infected outside the {d}-hop ball")
        if exact and not np.array_equal(now, ball):
            out.append(f"epidemic day {d}: at theta=1 infected {int(now.sum())} "
                       f"!= ball {int(ball.sum())}")
        if now.sum() < prev.sum():
            out.append(f"epidemic day {d}: infected count fell {int(prev.sum())} -> {int(now.sum())}")
        new = np.flatnonzero(now & ~prev)
        if new.size:
            lens = indptr[new + 1] - indptr[new]
            owner = np.repeat(new, lens)
            offsets = np.repeat(indptr[new] - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
            touched = np.unique(owner[prev[indices[offsets]]])
            if touched.size != new.size:
                out.append(f"epidemic day {d}: {new.size - touched.size} new cases "
                           "without an infected contact the day before")
        prev = now
    return out


# -- both models ------------------------------------------------------------------


def check_same_checksum(c1: str, c2: str) -> list[str]:
    if c1 != c2:
        return [f"state checksum differs between 1 and 2 workers: {c1[:16]} vs {c2[:16]}"]
    return []
