"""Packed 64-bit agent identifiers.

An agent id encodes (type tag, partition, local index) as
``tag:8 | partition:20 | index:36``. Ids are plain Python ints so they stay
cheap to pass around and to store in numpy ``uint64`` arrays. Every agent
of a type lives in one segment, so an agent's id has partition 0; an id
with any other partition is not an agent yet (see
:meth:`~graphabm.view.NeighborhoodView.add_agent`).
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

# Shift that leaves the type tag alone.
TAG_SHIFT = PART_BITS + INDEX_BITS
# Mask that strips the type tag: an agent's slot in its type's segment. An
# id with a partition other than 0 leaves a slot past every segment, so
# lookups by slot reject it.
SLOT_MASK = (1 << TAG_SHIFT) - 1


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


def split_by_tag(ids: np.ndarray) -> list[tuple[int, slice | np.ndarray, np.ndarray]]:
    """Split a uint64 id array by type tag.

    Returns one ``(tag, sel, slots)`` per tag, ascending: ``ids[sel]`` are
    the ids of type ``tag`` and ``slots`` their ``SLOT_MASK`` bits (int64).
    When every id shares one tag, ``sel`` is ``slice(None)`` and the split
    costs a min/max pass, with no sort and no mask.
    """
    if not ids.size:
        return []
    slots = (ids & np.uint64(SLOT_MASK)).view(np.int64)
    lo = int(ids.min()) >> TAG_SHIFT
    if lo == int(ids.max()) >> TAG_SHIFT:
        return [(lo, slice(None), slots)]
    tags = ids >> np.uint64(TAG_SHIFT)
    out = []
    for tag in np.unique(tags).tolist():
        sel = tags == tag
        out.append((tag, sel, slots[sel]))
    return out
