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

The rounds run over ``(2, n)`` arrays, the words ``[c0; c2]`` and ``[c1;
c3]`` of ``n`` blocks, so one operation serves both of a round's
products by ``[M0; M1]``. Every operation writes into buffers made once
per call (``out=``): at the few thousand blocks a call takes, its cost
is mostly per operation, not per block. So the shifts and masks take
0-d arrays, which numpy reads with less overhead than scalars, and the
multipliers and the keys' round bumps are ``(2, n)`` arrays, which it
combines faster than a broadcast ``(2, 1)`` column. Blocks are drawn
``_SLICE`` at a time, so the buffers stay in cache however many a call
draws. Each buffer is an array of its own, of at most 64 KB: one
workspace of them all would pass the size above which glibc maps an
allocation, and freeing such a map raises that size for the rest of
the process, which moved later arrays onto the heap and peak RSS up.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=_U64)  # key bumps
_LOW = np.array(0xFFFFFFFF, dtype=_U64)
_32 = np.array(32, dtype=_U64)
_11 = np.array(11, dtype=_U64)
_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=_U64)  # [M0; M1]
_M_LO, _M_HI = _M & _LOW, _M >> _32
# Blocks one pass of the rounds takes (see the module notes)
_SLICE = 4096


def agent_generator(seed: int, step: int, aid: int) -> np.random.Generator:
    """One agent's stream for one step."""
    # A uint64 key: a list mixing ids >= 2**63 with smaller words would
    # pass through float64 and lose the ids' low bits.
    key = np.array([seed, aid], dtype=_U64)
    return np.random.Generator(np.random.Philox(counter=[step, 0, 0, 0], key=key))


def _philox4x64(c0: np.ndarray, seed: int, k1: np.ndarray, out: np.ndarray) -> None:
    """Ten rounds over counters ``[c0, 0, 0, 0]`` with keys ``[seed,
    k1]``, written to ``out``, one row of 4 words per block."""
    n = c0.size
    a = np.zeros((2, n), dtype=_U64)  # [c0; c2]
    a[0] = c0
    b = np.zeros((2, n), dtype=_U64)  # [c1; c3]
    key = np.empty((2, n), dtype=_U64)  # [k0; k1]: k0 is the seed, for every block
    key[0] = seed
    key[1] = k1
    x_lo, x_hi, t, u = (np.empty((2, n), dtype=_U64) for _ in range(4))
    m, m_lo, m_hi, w = (np.repeat(c, n, axis=1) for c in (_M, _M_LO, _M_HI, _W))
    for _round in range(10):
        # the high and low words of the 128-bit products [M0; M1] * a
        np.bitwise_and(a, _LOW, out=x_lo)
        np.right_shift(a, _32, out=x_hi)
        np.multiply(x_hi, m_lo, out=t)             # lo * hi
        np.multiply(x_lo, m_hi, out=u)             # hi * lo
        np.multiply(x_lo, m_lo, out=x_lo)
        np.right_shift(x_lo, _32, out=x_lo)
        np.add(x_lo, u, out=x_lo)
        np.bitwise_and(t, _LOW, out=u)
        np.add(x_lo, u, out=x_lo)                  # the middle word and its carry
        np.right_shift(x_lo, _32, out=x_lo)
        np.right_shift(t, _32, out=t)
        np.multiply(x_hi, m_hi, out=x_hi)
        np.add(x_hi, t, out=x_hi)
        np.add(x_hi, x_lo, out=x_hi)               # hi = [hi0; hi1]
        # [c0; c2] = [hi1 ^ c1 ^ k0; hi0 ^ c3 ^ k1], [c1; c3] = [lo1; lo0]
        np.multiply(a, m, out=t[::-1])
        np.bitwise_xor(b, x_hi[::-1], out=b)
        np.bitwise_xor(b, key, out=b)
        np.add(key, w, out=key)
        a, b, t = b, t, a
    out[:, 0::2] = a.T
    out[:, 1::2] = b.T


def agent_draws(seed: int, step: int, ids: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The first ``counts[i]`` values of ``agent_generator(seed, step,
    ids[i]).random()`` for every ``i``, concatenated in ``ids`` order."""
    blocks = (counts + 3) // 4
    owner = np.repeat(np.arange(ids.size), blocks)
    first_block = np.cumsum(blocks) - blocks
    counter = np.arange(owner.size, dtype=_U64)
    counter -= first_block[owner].astype(_U64)
    counter += _U64(step + 1)
    keys = ids.astype(_U64)[owner]
    words = np.empty((owner.size, 4), dtype=_U64)
    for lo in range(0, owner.size, _SLICE):
        hi = lo + _SLICE
        _philox4x64(counter[lo:hi], seed, keys[lo:hi], words[lo:hi])
    first_draw = np.cumsum(counts) - counts
    pos = np.arange(int(counts.sum())) + np.repeat(4 * first_block - first_draw, counts)
    drawn = words.reshape(-1)[pos]
    np.right_shift(drawn, _11, out=drawn)
    return drawn.astype(np.float64) * 2.0 ** -53
