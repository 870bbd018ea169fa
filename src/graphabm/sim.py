"""The simulation object: typed agent/edge state with double buffering.

A simulation is built in three phases:

1. *Initialization*: agents and edges are added freely (``add_agent``,
   ``add_edge``, bulk variants). ``commit_initial`` seals the initial
   graph; it runs implicitly before the first transition.
2. *Stepping*: transition functions rewrite the graph synchronously; see
   :mod:`graphabm.engine`. Read buffers are never mutated while a
   transition runs; a commit swaps the constructed graph in.
3. Inspection: aggregates, field arrays, and checksums read the current
   (time-t) graph.
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import global_layer
from .checks import CheckConfig, ViolationSink
from .errors import (
    MidStepMutation,
    ParamFrozen,
    UnknownName,
    UsageError,
)
from .ids import COMP_SHIFT, INDEX_MASK, PART_BITS, PART_MASK, agent_id, group_by_comp
from .schema import EdgePlan, Schema
from .storage import (
    AgentSegment,
    build_read_container,
    cast_columns,
    edge_breaches,
    make_checked_adder,
    make_shard,
    validate_endpoints,
)

_U64 = np.uint64


class Simulation:
    """Mutable simulation state for one model run."""

    def __init__(self, schema: Schema, *, seed: int = 0, params: dict | None = None,
                 checks: CheckConfig | str = "on"):
        schema.freeze()
        self.schema = schema
        self.seed = int(seed) & (2**64 - 1)
        self.checks = (
            CheckConfig.from_name(checks) if isinstance(checks, str) else checks
        )
        self._params: dict = dict(params or {})
        self._params_frozen = False
        self._globals: dict = {}

        # tag -> {partition -> AgentSegment}
        self._segments: list[dict[int, AgentSegment]] = [
            {} for _ in schema.agent_types
        ]
        self._edges = [build_read_container(info, []) for info in schema.edge_types]

        self._init_sink = ViolationSink(self.checks.mode, step=0)
        self._init_shards = [make_shard(info) for info in schema.edge_types]
        # Per EXISTENCE_BIT type under the SINGLE_EDGE check, the targets
        # added so far, so that a duplicate is flagged at the call.
        self._init_seen = [
            set() if self.checks.check_single_edge() and info.plan is EdgePlan.EXISTENCE_BIT
            else None for info in schema.edge_types
        ]
        self._init_adders = [
            make_checked_adder(shard, info, self._init_sink,
                               self.checks.check_single_type(), seen)
            for shard, info, seen in zip(
                self._init_shards, schema.edge_types, self._init_seen
            )
        ]

        self._initialized = False
        self._in_transition = False
        self._staged = None
        self._pool = None  # the resident worker pool while engine.run steps
        self.step = 0
        self.check_reports: list = []
        self.step_metrics: list[dict] = []
        self.rasters: dict = {}

    # ------------------------------------------------------------------
    # Initialization phase
    # ------------------------------------------------------------------

    def _require_init_phase(self):
        if self._in_transition:
            raise UsageError(
                "direct mutation during a transition; use the view's effects"
            )
        if self._initialized:
            raise UsageError("initial graph already committed")

    def add_agent(self, type_name: str, *state) -> int:
        """Create an agent during initialization; returns its id."""
        self._require_init_phase()
        info = self.schema.agent_type(type_name)
        if len(state) != len(info.field_names):
            raise UsageError(
                f"agent type {type_name!r} takes {len(info.field_names)} "
                f"state fields, got {len(state)}"
            )
        columns = cast_columns(info, [(value,) for value in state])
        seg = self._segments[info.tag].get(0)
        if seg is None:
            seg = self._segments[info.tag][0] = AgentSegment(info)
        slot = seg.allocate()
        for arr, column in zip(seg.fields.values(), columns):
            arr[slot] = column[0]
        return agent_id(info.tag, 0, slot)

    def add_agents(self, type_name: str, n: int, fields: dict | None = None) -> np.ndarray:
        """Bulk-create ``n`` agents; returns their ids as a uint64 array.

        ``fields`` maps field names to length-``n`` arrays; all declared
        fields must be provided (none for stateless agent types).
        """
        self._require_init_phase()
        info = self.schema.agent_type(type_name)
        fields = fields or {}
        if set(fields) != set(info.field_names):
            raise UsageError(
                f"agent type {type_name!r} requires exactly fields "
                f"{list(info.field_names)}"
            )
        columns = cast_columns(info, [fields[name] for name in info.field_names])
        for name, arr in zip(info.field_names, columns):
            if arr.shape != (n,):
                raise UsageError(f"field {name!r} must have shape ({n},)")
        seg = self._segments[info.tag].get(0)
        if seg is None:
            seg = self._segments[info.tag][0] = AgentSegment(info)
        start = seg.count
        seg.ensure_capacity(start + n)
        for name, arr in zip(info.field_names, columns):
            seg.fields[name][start: start + n] = arr
        if seg.alive is not None:
            seg.alive[start: start + n] = True
        seg.count = start + n
        base = (info.tag << (PART_BITS + COMP_SHIFT))
        return _U64(base) + np.arange(start, start + n, dtype=_U64)

    def add_edge(self, edge_type: str, target: int, source: int, state: tuple = ()) -> None:
        """Add one edge during initialization (stored under its target)."""
        self._require_init_phase()
        info = self.schema.edge_type(edge_type)
        st = info.stored_state(state)
        self._init_adders[info.tag](int(target), int(source), st, 0)

    def add_edges(self, edge_type: str, targets, sources=None, states=None) -> None:
        """Bulk-add edges during initialization.

        ``sources`` and ``states``, when given, hold one entry per target.
        """
        self._require_init_phase()
        info = self.schema.edge_type(edge_type)
        if info.has_source and sources is None:
            raise UsageError(f"edge type {edge_type!r} stores sources; pass them")
        if info.has_state and states is None:
            raise UsageError(f"edge type {edge_type!r} stores states; pass them")
        for name, given in (("sources", sources), ("states", states)):
            if given is not None and len(given) != len(targets):
                raise UsageError(
                    f"edge type {edge_type!r}: {len(given)} {name} for "
                    f"{len(targets)} targets"
                )
        columns = None
        if info.has_state:
            rows = [info.stored_state(st) for st in states]
            columns = list(zip(*rows)) or [()] * len(info.field_names)
        targets = np.ascontiguousarray(targets, dtype=_U64)
        edge_breaches(info, self._init_sink, self.checks.check_single_type(),
                      targets, seen=self._init_seen[info.tag])
        self._init_shards[info.tag].extend(targets, sources, columns)

    def edge_adder(self, edge_type: str):
        """The bound low-level add for an edge type during initialization.

        Returns a callable ``add(target, source, state=None, producer=0)``,
        the shard's add, which appends only the columns the storage plan
        keeps (an EXISTENCE_BIT type keeps targets, whose bits are set at
        commit). With checks on, it first flags a wrong-type target and a
        second edge to an EXISTENCE_BIT target, at the call.
        """
        self._require_init_phase()
        return self._init_adders[self.schema.edge_type(edge_type).tag]

    def commit_initial(self) -> None:
        """Seal the initial graph; runs implicitly before the first step."""
        if self._initialized:
            return
        if self._in_transition:
            raise UsageError("cannot commit during a transition")
        for info in self.schema.edge_types:
            shards = [self._init_shards[info.tag]]
            validate_endpoints(info, shards, self._exists_lookup)
            # EXISTENCE_BIT duplicates were flagged at the call
            self._edges[info.tag] = build_read_container(
                info, shards, None, self._init_sink,
                self._init_seen[info.tag] is None and self.checks.check_single_edge(),
            )
        self.check_reports.extend(self._init_sink.reports)
        self._init_shards = self._init_adders = self._init_seen = None
        self._initialized = True

    # ------------------------------------------------------------------
    # Parameters and globals
    # ------------------------------------------------------------------

    @property
    def params(self) -> global_layer.FrozenMapping:
        return global_layer.FrozenMapping(self._params)

    def set_param(self, name: str, value) -> None:
        if self._params_frozen:
            raise ParamFrozen(
                f"parameter {name!r} cannot change after the simulation started"
            )
        self._params[name] = value

    def get_param(self, name: str):
        try:
            return self._params[name]
        except KeyError:
            raise UnknownName(f"unknown parameter {name!r}") from None

    def set_global(self, name: str, value) -> None:
        if self._in_transition:
            raise MidStepMutation(
                f"global {name!r} set while a transition is in flight"
            )
        self._globals[name] = value

    def get_global(self, name: str):
        try:
            return self._globals[name]
        except KeyError:
            raise UnknownName(f"unknown global {name!r}") from None

    def globals_snapshot(self) -> global_layer.FrozenMapping:
        return global_layer.FrozenMapping(dict(self._globals))

    def aggregate(self, type_name: str, map_fn=None, reduce: str = "sum"):
        """See :func:`graphabm.global_layer.aggregate`."""
        return global_layer.aggregate(self, type_name, map_fn, reduce)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def n_alive(self, type_name: str) -> int:
        info = self.schema.agent_type(type_name)
        return sum(seg.n_alive for seg in self._segments[info.tag].values())

    def agent_ids(self, type_name: str) -> np.ndarray:
        """Ids of all alive agents of a type, ascending."""
        info = self.schema.agent_type(type_name)
        parts = []
        for part in sorted(self._segments[info.tag]):
            seg = self._segments[info.tag][part]
            base = (info.tag << (PART_BITS + COMP_SHIFT)) | (part << COMP_SHIFT)
            parts.append(_U64(base) + seg.alive_slots().astype(_U64))
        if not parts:
            return np.empty(0, dtype=_U64)
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def field_array(self, type_name: str, field: str) -> np.ndarray:
        """One state field of all alive agents of a type, ascending by id."""
        info = self.schema.agent_type(type_name)
        if field not in info.field_names:
            raise UnknownName(f"agent type {type_name!r} has no field {field!r}")
        parts = []
        for part in sorted(self._segments[info.tag]):
            seg = self._segments[info.tag][part]
            arr = seg.fields[field][: seg.count]
            parts.append(arr.copy() if seg.alive is None else arr[seg.alive[: seg.count]])
        if not parts:
            return np.empty(0, dtype=info.dtypes[info.field_names.index(field)])
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def edge_container(self, edge_type: str):
        """The current read container of an edge type (immutable)."""
        return self._edges[self.schema.edge_type(edge_type).tag]

    def is_alive(self, aid: int) -> bool:
        tag = aid >> (PART_BITS + COMP_SHIFT)
        part = (aid >> COMP_SHIFT) & ((1 << PART_BITS) - 1)
        try:
            seg = self._segments[tag][part]
        except (KeyError, IndexError):
            return False
        return seg.is_alive(aid & INDEX_MASK)

    def agent_state(self, aid: int) -> tuple:
        """Control-thread access to one agent's current state."""
        tag = aid >> (PART_BITS + COMP_SHIFT)
        part = (aid >> COMP_SHIFT) & ((1 << PART_BITS) - 1)
        try:
            seg = self._segments[tag][part]
        except (KeyError, IndexError):
            raise UnknownName(f"agent {aid:#x} does not exist") from None
        return seg.state_tuple(aid & INDEX_MASK)

    # -- id-array lookups ------------------------------------------------

    def _grouped_lookup(self, ids: np.ndarray, check, segments) -> np.ndarray:
        """``check(seg, slots)`` per (type, partition) composite of ``ids``,
        against ``segments`` (tag -> {partition -> AgentSegment}); ids of a
        missing segment map to False."""
        out = np.zeros(ids.size, dtype=bool)
        for comp, sel, slots in group_by_comp(ids):
            tag = comp >> PART_BITS
            seg = segments[tag].get(comp & PART_MASK) if tag < len(segments) else None
            if seg is not None:
                out[sel] = check(seg, slots)
        return out

    @staticmethod
    def _allocated(seg, slots) -> np.ndarray:
        return slots < seg.count

    def _alive_lookup(self, ids: np.ndarray) -> np.ndarray:
        def check(seg, idx):
            ok = idx < seg.count
            if seg.alive is not None:
                ok = ok.copy()
                sub = idx[ok]
                ok[np.flatnonzero(ok)] = seg.alive[sub]
            return ok
        return self._grouped_lookup(ids, check, self._segments)

    def _exists_lookup(self, ids: np.ndarray) -> np.ndarray:
        return self._grouped_lookup(ids, self._allocated, self._segments)

    # ------------------------------------------------------------------
    # Checksum
    # ------------------------------------------------------------------

    def state_checksum(self) -> str:
        """SHA-256 over the canonical serialization of the current graph."""
        h = hashlib.sha256()
        for tag, segments in enumerate(self._segments):
            h.update(b"A")
            h.update(tag.to_bytes(2, "little"))
            for part in sorted(segments):
                h.update(part.to_bytes(4, "little"))
                segments[part].checksum_update(h)
        for tag, container in enumerate(self._edges):
            h.update(b"E")
            h.update(tag.to_bytes(2, "little"))
            container.checksum_update(h)
        return h.hexdigest()
