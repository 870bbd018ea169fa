"""Packed 64-bit agent ids, ``tag:8 | slot:56``: an agent's type tag and
its slot in the type's segment, as plain ints or numpy ``uint64`` arrays.
Only this module knows the layout; the others pack and unpack ids with
the functions below. A ``uint32`` array holds ids too: its values are the
ids, all of type 0, which are their own slots (:func:`as_ids`).

A newborn's provisional id (see
:meth:`~graphabm.view.NeighborhoodView.add_agent`) sets ``PROVISIONAL``,
the slot field's top bit, over the low ``STEP_BITS`` bits of the
transition's step, the worker and the worker's birth count of the type.
Agents' slots stay below ``MAX_SLOT``, which is ``PROVISIONAL``, so a
lookup by slot rejects a provisional id. The step field wraps: a
provisional id kept ``2**STEP_BITS`` transitions is made again by the
same worker's birth of the same rank.
"""

from __future__ import annotations

import numpy as np

from .errors import IndexOverflow, UsageError

TYPE_BITS = 8
TYPE_MASK = (1 << TYPE_BITS) - 1
MAX_AGENT_TYPES = 255
TAG_SHIFT = 64 - TYPE_BITS  # the width of the slot field
SLOT_MASK = (1 << TAG_SHIFT) - 1

# A provisional slot: PROVISIONAL | step | worker | count, of the widths below
PROVISIONAL = MAX_SLOT = 1 << (TAG_SHIFT - 1)
COUNT_BITS = 30
WORKER_BITS = 10
STEP_BITS = TAG_SHIFT - 1 - WORKER_BITS - COUNT_BITS


def agent_id(tag: int, slot: int) -> int:
    """Pack a (tag, slot) pair into one 64-bit id."""
    if slot > SLOT_MASK or slot < 0:
        raise IndexOverflow(f"slot {slot} outside {TAG_SHIFT}-bit range")
    if tag > TYPE_MASK or tag < 0:
        raise IndexOverflow(f"type tag {tag} outside {TYPE_BITS}-bit range")
    return (tag << TAG_SHIFT) | slot


def type_tag(aid):
    """The type tag of an id, or of each id of a uint64 array."""
    return aid >> TAG_SHIFT


def local_index(aid):
    """The slot of an id, or of each id of a uint64 array."""
    return aid & SLOT_MASK


def as_ids(values, what: str = "ids") -> np.ndarray:
    """``values`` as a contiguous id array: a uint32 array as it is, since
    its values are type-0 ids, other integers as uint64. Neither copies
    an array that already is one. Values of any other dtype, such as
    floats or bools, raise :class:`UsageError` naming ``what``, unless
    there are none, and so do negative values of a signed dtype, which
    would wrap to ids of type tag 255. Only that test reads the values:
    an unsigned array is taken at the cost of its dtype test."""
    values = np.asarray(values)
    if values.dtype == np.uint32:
        return np.ascontiguousarray(values)
    if values.size and values.dtype.kind != "u":
        if values.dtype.kind != "i":
            raise UsageError(f"{what} must be integer ids, got {values.dtype} values")
        if values.min() < 0:
            raise UsageError(f"{what} must be non-negative ids, got {int(values.min())}")
    return np.ascontiguousarray(values, dtype=np.uint64)


def slots_of(ids: np.ndarray) -> np.ndarray:
    """The slots of an id array of one type: int64 of a uint64 array, and
    a uint32 array as it is."""
    return ids if ids.dtype == np.uint32 else local_index(ids).view(np.int64)


def slot_ids(tag: int, slots: np.ndarray) -> np.ndarray:
    """The uint64 ids of ``slots`` of type ``tag``, with no temporary array."""
    return np.add(slots, np.uint64(tag << TAG_SHIFT), dtype=np.uint64, casting="unsafe")


def provisional_id(tag: int, step: int, worker: int, count: int) -> int:
    """The provisional id of a worker's ``count``-th newborn of type ``tag``
    in the transition at ``step``; only the step's low ``STEP_BITS`` bits
    are kept."""
    if not 0 <= count < 1 << COUNT_BITS:
        raise IndexOverflow(f"birth count {count} outside {COUNT_BITS}-bit range")
    if not 0 <= worker < 1 << WORKER_BITS:
        raise IndexOverflow(f"worker {worker} outside {WORKER_BITS}-bit range")
    step &= (1 << STEP_BITS) - 1
    return agent_id(tag, PROVISIONAL | step << (WORKER_BITS + COUNT_BITS)
                    | worker << COUNT_BITS | count)


def split_by_tag(ids: np.ndarray) -> list[tuple[int, slice | np.ndarray, np.ndarray]]:
    """Split a uint64 id array by type tag.

    Returns one ``(tag, sel, slots)`` per tag, ascending: ``ids[sel]`` are
    the ids of type ``tag`` and ``slots`` their slots (int64). When every
    id shares one tag, ``sel`` is ``slice(None)`` and the split costs a
    min/max pass, with no sort and no mask.
    """
    if not ids.size:
        return []
    slots = local_index(ids).view(np.int64)
    lo = int(ids.min()) >> TAG_SHIFT
    if lo == int(ids.max()) >> TAG_SHIFT:
        return [(lo, slice(None), slots)]
    tags = type_tag(ids)
    out = []
    for tag in np.unique(tags).tolist():
        sel = tags == tag
        out.append((tag, sel, slots[sel]))
    return out
