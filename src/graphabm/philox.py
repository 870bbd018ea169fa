"""Per-agent random streams, one at a time or in bulk.

Agent ``aid``'s stream in step ``step`` of a simulation seeded ``seed`` is
numpy's ``Philox(counter=[step, 0, 0, 0], key=[seed, aid])``: it depends on
those three numbers only, never on worker count or execution order.
:func:`agent_draws` computes the same stream for many agents at once with
Philox4x64-10 written in numpy (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC 2011). numpy's generator adds one to the counter
before each block of four 64-bit words, so an agent's k-th ``random()``
is word ``k % 4`` of the block with counter ``[step + 1 + k // 4, 0, 0,
0]``, scaled as ``(word >> 11) * 2**-53``. The counter's low word is
assumed not to wrap, which holds for any reachable step count.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = _U64(0x9E3779B97F4A7C15), _U64(0xBB67AE8584CAA73B)
_LOW = _U64(0xFFFFFFFF)
_32 = _U64(32)


def agent_generator(seed: int, step: int, aid: int) -> np.random.Generator:
    """One agent's stream for one step."""
    # A uint64 key: a list mixing ids >= 2**63 with smaller words would
    # pass through float64 and lose the ids' low bits.
    key = np.array([seed, aid], dtype=_U64)
    return np.random.Generator(np.random.Philox(counter=[step, 0, 0, 0], key=key))


def _mulhilo(m: int, x: np.ndarray):
    """High and low 64-bit words of the 128-bit products ``m * x``."""
    m_lo, m_hi = _U64(m & 0xFFFFFFFF), _U64(m >> 32)
    x_lo, x_hi = x & _LOW, x >> _32
    lo_hi = m_lo * x_hi
    hi_lo = m_hi * x_lo
    mid = (m_lo * x_lo >> _32) + (lo_hi & _LOW) + hi_lo
    return m_hi * x_hi + (lo_hi >> _32) + (mid >> _32), x * _U64(m)


def _philox4x64(c0: np.ndarray, k0: np.ndarray, k1: np.ndarray) -> np.ndarray:
    """Ten rounds over counters ``[c0, 0, 0, 0]``; one row of 4 words each."""
    zero = np.zeros_like(c0)
    c1, c2, c3 = zero, zero, zero
    with np.errstate(over="ignore"):
        for r in range(10):
            if r:
                k0 = k0 + _W0
                k1 = k1 + _W1
            hi0, lo0 = _mulhilo(_M0, c0)
            hi1, lo1 = _mulhilo(_M1, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=1)


def agent_draws(seed: int, step: int, ids: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The first ``counts[i]`` values of ``agent_generator(seed, step,
    ids[i]).random()`` for every ``i``, concatenated in ``ids`` order."""
    blocks = (counts + 3) // 4
    owner = np.repeat(np.arange(ids.size), blocks)
    first_block = np.cumsum(blocks) - blocks
    block = np.arange(owner.size) - first_block[owner]
    words = _philox4x64(
        _U64(step + 1) + block.astype(_U64),
        np.full(owner.size, seed, dtype=_U64),
        ids.astype(_U64)[owner],
    ).ravel()
    first_draw = np.cumsum(counts) - counts
    pos = np.arange(int(counts.sum())) + np.repeat(4 * first_block - first_draw, counts)
    return (words[pos] >> _U64(11)).astype(np.float64) * 2.0 ** -53
