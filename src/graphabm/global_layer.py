"""Simulation-wide values: immutable parameters, mutable globals, aggregation.

Parameters are fixed once the simulation starts stepping. Globals may be
updated from the control thread between transitions; each transition sees
an immutable snapshot. Aggregations reduce over all alive agents (or all
stored edges) in ascending id order, which makes floating-point results
independent of the worker count.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import HintViolation, UnknownName
from .schema import AgentTypeInfo, EdgePlan

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


def _fold(values, reduce: str):
    if reduce == "sum":
        total = 0
        for v in values:
            total = total + v
        return total
    if reduce == "min":
        best = None
        for v in values:
            if best is None or v < best:
                best = v
        if best is None:
            raise ValueError("min over an empty set")
        return best
    if reduce == "max":
        best = None
        for v in values:
            if best is None or v > best:
                best = v
        if best is None:
            raise ValueError("max over an empty set")
        return best
    raise ValueError(f"unknown reduction {reduce!r}; expected one of {_REDUCERS}")


def aggregate(sim, type_name: str, map_fn=None, reduce: str = "sum"):
    """Reduce a mapped scalar over all instances of a type.

    For an agent type, ``map_fn`` receives each alive agent's state tuple,
    visited in ascending agent-id order. For an edge type it receives each
    stored edge's state tuple, visited in ascending target-id order (then
    producer order within a target); this requires a plan that retains
    states. ``reduce="count"`` needs no ``map_fn`` and counts alive agents
    or stored edges.
    """
    info = sim.schema.type_by_name(type_name)
    if isinstance(info, AgentTypeInfo):
        segments = sim._segments[info.tag]
        if reduce == "count":
            return sum(seg.n_alive for seg in segments.values())
        if map_fn is None:
            raise ValueError("map_fn is required for sum/min/max")
        values = []
        for part in sorted(segments):
            seg = segments[part]
            slots = seg.alive_slots()
            cols = [seg.fields[f][slots] for f in seg.fields]
            if cols:
                values.extend(map(map_fn, zip(*cols)))
            else:
                values.extend(map_fn(()) for _ in range(len(slots)))
        return _fold(values, reduce)

    container = sim._edges[info.tag]
    if reduce == "count":
        if info.plan in (EdgePlan.EXISTENCE_BIT, EdgePlan.SINGLE_FULL_EDGE):
            raise HintViolation(
                f"edge type {type_name!r} cannot report edge multiplicity"
            )
        return container.n_stored()
    if info.stateless or not info.has_state:
        raise HintViolation(
            f"edge type {type_name!r} does not retain edge states"
        )
    if map_fn is None:
        raise ValueError("map_fn is required for sum/min/max")
    return _fold(list(map(map_fn, container.state_tuples())), reduce)
