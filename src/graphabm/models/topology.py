"""Directed visibility-graph builders for the bundled models.

All builders return (targets, sources) as uint32 arrays of *local* agent
indices, grouped by target in ascending order so that the initial commit
can skip re-sorting; ``n`` must stay below 2**32. A uint32 index is also
the id of that slot of agent type 0, which ``Simulation.add_edges`` takes
as it is; callers of another type offset them into agent ids. At 4 bytes
an index, a builder's output is half what uint64 ids would take.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import UsageError

_U32 = np.uint32


@dataclass(frozen=True)
class Complete:
    """Every agent sees every other; a self-loop per agent is included."""

    def size(self, n: int) -> int:
        return n

    def build(self, n: int):
        targets = np.repeat(np.arange(n, dtype=_U32), n)
        sources = np.tile(np.arange(n, dtype=_U32), n)
        return targets, sources


@dataclass(frozen=True)
class Regular:
    """Ring lattice: each agent sees its k nearest ring neighbors.

    ``k`` must be even (k/2 on each side). With ``self_loops`` every agent
    also sees itself, giving in-degree k+1.
    """

    k: int
    self_loops: bool = True

    def size(self, n: int) -> int:
        return n

    def build(self, n: int):
        k = self.k
        if k % 2 or k < 0:
            raise UsageError(f"regular topology needs an even degree, got {k}")
        if k >= n:
            raise UsageError(f"degree {k} too large for {n} agents")
        half = k // 2
        offs = list(range(-half, 0)) + ([0] if self.self_loops else []) + list(range(1, half + 1))
        # uint32 arithmetic wraps: a negative offset past slot 0 gives 2**32
        # minus the distance, which adding n brings back onto the ring.
        sources = np.add.outer(np.arange(n, dtype=_U32), np.array(offs).astype(_U32))
        # Only the first and last ``half`` agents see past an end of the ring.
        low, high = sources[:half, :half], sources[n - half:, -half:]
        low[low >= n] += _U32(n)
        high[high >= n] -= _U32(n)
        targets = np.repeat(np.arange(n, dtype=_U32), len(offs))
        return targets, sources.ravel()


@dataclass(frozen=True)
class Cliques:
    """A ring of equal-size cliques joined through one connector each.

    Vertex ``j*size`` is clique j's connector; it additionally sees the
    connectors of the two adjacent cliques (both directions present).
    """

    count: int
    size_each: int
    self_loops: bool = True

    def size(self, n: int | None = None) -> int:
        return self.count * self.size_each

    def build(self, n: int | None = None):
        c, s = self.count, self.size_each
        if c < 1 or s < 1:
            raise UsageError("clique topology needs count >= 1 and size >= 1")
        if n is not None and n != c * s:
            raise UsageError(f"clique topology has {c * s} agents, not {n}")
        targets = []
        sources = []
        members = np.arange(s, dtype=np.int64)
        for j in range(c):
            base = j * s
            clique = (base + members).astype(_U32)
            for m in range(s):
                vertex = base + m
                seen = clique if self.self_loops else clique[members != m]
                if m == 0 and c > 1:
                    left = ((j - 1) % c) * s
                    right = ((j + 1) % c) * s
                    extra = sorted({left, right} - {vertex})
                    seen = np.sort(np.r_[seen, np.array(extra, dtype=_U32)])
                targets.append(np.full(seen.size, vertex, dtype=_U32))
                sources.append(seen)
        return np.concatenate(targets), np.concatenate(sources)
