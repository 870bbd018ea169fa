"""Reads of a read container's targets by agent id, for tests.

Containers are read by ``(tag, slot)``; these helpers split an id first and,
as a transition's view and batch do, check the read against the edge
type's hints (:func:`graphabm.schema.check_read`) before asking.
"""

from __future__ import annotations

from graphabm.ids import local_index, type_tag
from graphabm.schema import check_read


def edge_read(container, kind: str, aid):
    """The ``kind`` read (``has``, ``count``, ``sources``, ``states`` or
    ``records``) of the target with id ``aid``."""
    check_read(container.info, kind)
    aid = int(aid)
    return getattr(container, kind + "_at")(type_tag(aid), local_index(aid))


def slots_read(container, kind: str, tag: int, slots):
    """The ``kind`` read (``has``, ``count`` or ``records``) of the targets
    ``slots`` of type ``tag``, slot after slot."""
    check_read(container.info, kind)
    return getattr(container, kind + "_for_slots")(tag, slots)
