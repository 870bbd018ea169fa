"""Packed 64-bit agent identifiers.

An agent id encodes (type tag, partition, local index) as
``tag:8 | partition:20 | index:36``. Ids are plain Python ints so they stay
cheap to pass around and to store in numpy ``uint64`` arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import IndexOverflow

TYPE_BITS = 8
PART_BITS = 20
INDEX_BITS = 36

INDEX_MASK = (1 << INDEX_BITS) - 1
PART_MASK = (1 << PART_BITS) - 1
TYPE_MASK = (1 << TYPE_BITS) - 1

MAX_AGENT_TYPES = 255
MAX_PARTITIONS = 1 << PART_BITS
MAX_INDEX = 1 << INDEX_BITS

# Shift that strips the local index, leaving the (tag, partition) composite.
COMP_SHIFT = INDEX_BITS
# Shift that leaves the type tag alone.
TAG_SHIFT = PART_BITS + INDEX_BITS


def agent_id(tag: int, part: int, index: int) -> int:
    """Pack a (tag, partition, index) triple into one 64-bit id."""
    if index >= MAX_INDEX or index < 0:
        raise IndexOverflow(f"local index {index} outside 36-bit range")
    if part >= MAX_PARTITIONS or part < 0:
        raise IndexOverflow(f"partition {part} outside 20-bit range")
    if tag > TYPE_MASK or tag < 0:
        raise IndexOverflow(f"type tag {tag} outside 8-bit range")
    return (tag << TAG_SHIFT) | (part << INDEX_BITS) | index


def type_tag(aid: int) -> int:
    return aid >> TAG_SHIFT


def partition_of(aid: int) -> int:
    return (aid >> INDEX_BITS) & PART_MASK


def local_index(aid: int) -> int:
    return aid & INDEX_MASK


def split_id(aid: int) -> tuple[int, int, int]:
    """Inverse of :func:`agent_id`."""
    return (
        aid >> TAG_SHIFT,
        (aid >> INDEX_BITS) & PART_MASK,
        aid & INDEX_MASK,
    )


def group_by_comp(ids: np.ndarray) -> list[tuple[int, slice | np.ndarray, np.ndarray]]:
    """Split a uint64 id array by its (tag, partition) composite.

    Returns one ``(comp, sel, slots)`` per composite, ascending: ``ids[sel]``
    are the ids of composite ``comp`` and ``slots`` their local indices
    (int64). When every id shares one composite, ``sel`` is ``slice(None)``
    and the split costs a min/max pass, with no sort and no mask.
    """
    if not ids.size:
        return []
    slots = (ids & np.uint64(INDEX_MASK)).view(np.int64)
    lo = int(ids.min()) >> COMP_SHIFT
    if lo == int(ids.max()) >> COMP_SHIFT:
        return [(lo, slice(None), slots)]
    comps = ids >> np.uint64(COMP_SHIFT)
    out = []
    for comp in np.unique(comps).tolist():
        sel = comps == comp
        out.append((comp, sel, slots[sel]))
    return out
