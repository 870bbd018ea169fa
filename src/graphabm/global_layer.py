"""Simulation-wide values: immutable parameters, mutable globals, aggregation.

Parameters are fixed once the simulation starts stepping. Globals may be
updated from the control thread between transitions; each transition sees
an immutable snapshot. Aggregations reduce over all alive agents (or all
stored edges) in ascending id order, which makes floating-point results
independent of the worker count.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Mapping

from .errors import UnknownName
from .schema import AgentTypeInfo, check_read

_REDUCERS = ("sum", "min", "max", "count")


class FrozenMapping(Mapping):
    """Read-only mapping with attribute access; missing keys raise UnknownName."""

    __slots__ = ("_data",)

    def __init__(self, data: dict):
        self._data = data

    def __getitem__(self, key):
        try:
            return self._data[key]
        except KeyError:
            raise UnknownName(f"unknown name {key!r}") from None

    def __getattr__(self, key):
        if key == "_data" or key.startswith("__"):
            # not a stored name: ``_data`` before __init__ ran, or a protocol
            # lookup such as copy's ``__deepcopy__``
            raise AttributeError(key)
        try:
            return self._data[key]
        except KeyError:
            raise UnknownName(f"unknown name {key!r}") from None

    def __reduce__(self):
        return FrozenMapping, (self._data,)

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)

    def __repr__(self):
        return f"FrozenMapping({self._data!r})"


# reduce -> a left fold of the values in their order; min and max of
# nothing raise ValueError
_FOLDS = {"sum": lambda values: functools.reduce(operator.add, values, 0), "min": min, "max": max}


def _fold(values, reduce: str):
    if reduce not in _FOLDS:
        raise ValueError(f"unknown reduction {reduce!r}; expected one of {_REDUCERS}")
    return _FOLDS[reduce](values)


def aggregate(sim, type_name: str, map_fn=None, reduce: str = "sum"):
    """Reduce a mapped scalar over all instances of a type.

    For an agent type, ``map_fn`` receives each alive agent's state tuple,
    visited in ascending agent-id order. For an edge type it receives each
    stored edge's state tuple, ``()`` for a type without state fields,
    visited in ascending target-id order (then producer order within a
    target); the type must serve the view's ``edge_states`` read.
    ``reduce="count"`` needs no ``map_fn`` and counts alive agents or
    stored edges.
    """
    info = sim.schema.type_by_name(type_name)
    if isinstance(info, AgentTypeInfo):
        seg = sim._segments[info.tag]
        if reduce == "count":
            return seg.n_alive
        if map_fn is None:
            raise ValueError("map_fn is required for sum/min/max")
        slots = seg.alive_slots()
        cols = [seg.fields[f][slots] for f in seg.fields]
        if cols:
            return _fold(map(map_fn, zip(*cols)), reduce)
        return _fold((map_fn(()) for _ in range(len(slots))), reduce)

    container = sim._edges[info.tag]
    if reduce == "count":
        check_read(info, "count")
        return container.n_stored()
    check_read(info, "states")
    if map_fn is None:
        raise ValueError("map_fn is required for sum/min/max")
    return _fold(list(map(map_fn, container.state_tuples())), reduce)
