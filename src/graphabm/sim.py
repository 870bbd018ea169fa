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
from .ids import agent_id, local_index, slot_ids, split_by_tag, type_tag
from .schema import EdgePlan, Schema
from .storage import (
    AgentSegment,
    ListShard,
    build_read_container,
    cast_columns,
    edge_breaches,
    is_nondecreasing,
    make_checked_adder,
    validate_endpoints,
)


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

        # tag -> the type's AgentSegment
        self._segments = [AgentSegment(info) for info in schema.agent_types]
        self._edges = [build_read_container(info, []) for info in schema.edge_types]

        self._init_sink = ViolationSink(self.checks.mode, step=0)
        self._init_shards = [ListShard(info) for info in schema.edge_types]
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
        self._plans: dict = {}  # TransitionSpec -> engine.ReadPlan of its batch reads
        self._specs: dict = {}  # (TransitionSpec, CheckConfig) -> engine.RuntimeSpec
        self._kept: dict = {}  # edge tag -> engine.KeptMerge, its last merge
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
        seg = self._segments[info.tag]
        slot = seg.allocate()
        for arr, column in zip(seg.fields.values(), columns):
            arr[slot] = column[0]
        return agent_id(info.tag, slot)

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
        seg = self._segments[info.tag]
        start = seg.count
        seg.ensure_capacity(start + n)
        for name, arr in zip(info.field_names, columns):
            seg.fields[name][start: start + n] = arr
        if seg.alive is not None:
            seg.alive[start: start + n] = True
        seg.count = start + n
        return slot_ids(info.tag, np.arange(start, start + n))

    def add_edge(self, edge_type: str, target: int, source: int, state: tuple = ()) -> None:
        """Add one edge during initialization (stored under its target)."""
        self._require_init_phase()
        info = self.schema.edge_type(edge_type)
        st = info.stored_state(state)
        self._init_adders[info.tag](int(target), int(source), st, 0)

    def add_edges(self, edge_type: str, targets, sources=None, states=None) -> None:
        """Bulk-add edges during initialization.

        ``sources`` and ``states``, when given, hold one entry per target.
        Only what the plan keeps is copied, once, so the caller may change
        its arrays after the call. Targets in ascending order are not
        copied at all: the shard keeps their CSR index. When one such call
        adds all of a type's edges, that index and the copies become the
        committed graph without another copy. This is the fast path for
        large graphs: one call per edge type costs a few array passes,
        where :meth:`add_edge` costs a Python call per edge.
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
        targets = np.ascontiguousarray(targets, dtype=np.uint64)
        ordered = is_nondecreasing(targets)
        edge_breaches(info, self._init_sink, self.checks.check_single_type(),
                      targets, seen=self._init_seen[info.tag], ordered=ordered)
        self._init_shards[info.tag].extend(targets, sources, columns, ordered=ordered)

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
            validate_endpoints(info, shards, self._lookup)
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
        return self._segments[self.schema.agent_type(type_name).tag].n_alive

    def agent_ids(self, type_name: str) -> np.ndarray:
        """Ids of all alive agents of a type, ascending."""
        tag = self.schema.agent_type(type_name).tag
        return slot_ids(tag, self._segments[tag].alive_slots())

    def field_array(self, type_name: str, field: str) -> np.ndarray:
        """One state field of all alive agents of a type, ascending by id."""
        info = self.schema.agent_type(type_name)
        if field not in info.field_names:
            raise UnknownName(f"agent type {type_name!r} has no field {field!r}")
        seg = self._segments[info.tag]
        arr = seg.fields[field][: seg.count]
        return arr.copy() if seg.alive is None else arr[seg.alive[: seg.count]]

    def describe(self) -> dict:
        """What the simulation stores, in schema order: ``{"agents": {type:
        alive count}, "edges": {type: {"plan": plan value, "stored": edges
        stored, "bytes": bytes held}}}``. An edge type's bytes are those of
        the arrays its container holds: the CSR index and the columns the
        plan keeps, or the existence bitmap."""
        return {
            "agents": {info.name: self.n_alive(info.name) for info in self.schema.agent_types},
            "edges": {
                info.name: {"plan": info.plan.value, "stored": c.n_stored(), "bytes": c.nbytes()}
                for info, c in zip(self.schema.edge_types, self._edges)
            },
        }

    def edge_container(self, edge_type: str):
        """The current read container of an edge type (immutable)."""
        return self._edges[self.schema.edge_type(edge_type).tag]

    def _locate(self, aid: int):
        """``(tag, segment, slot)`` of an agent id; the segment is None when
        the id names no allocated slot of an agent type."""
        tag, slot = type_tag(aid), local_index(aid)
        if tag < len(self._segments) and slot < self._segments[tag].count:
            return tag, self._segments[tag], slot
        return tag, None, slot

    def is_alive(self, aid: int) -> bool:
        _tag, seg, slot = self._locate(aid)
        return seg is not None and seg.is_alive(slot)

    def agent_state(self, aid: int) -> tuple:
        """Control-thread access to one agent's current state."""
        _tag, seg, slot = self._locate(aid)
        if seg is None:
            raise UnknownName(f"agent {aid:#x} does not exist")
        return seg.state_tuple(slot)

    # -- id-array lookups ------------------------------------------------

    def _lookup(self, ids: np.ndarray, alive: bool = False, segments=None) -> np.ndarray:
        """Per id, whether it names an allocated slot, or with ``alive`` an
        alive agent, in ``segments`` (one AgentSegment per tag; by default
        the committed ones). An id of no agent type maps to False, and so
        does a provisional one: its slot lies past every count."""
        segments = self._segments if segments is None else segments
        out = np.zeros(ids.size, dtype=bool)
        for tag, sel, slots in split_by_tag(ids):
            if tag < len(segments):
                seg = segments[tag]
                ok = slots < seg.count
                if alive and seg.alive is not None:
                    ok[ok] = seg.alive[slots[ok]]
                out[sel] = ok
        return out

    # ------------------------------------------------------------------
    # Checksum
    # ------------------------------------------------------------------

    def state_checksum(self) -> str:
        """SHA-256 over every container's ``buffers()``, each array after
        its name, dtype and shape, in schema order: the segment of each
        agent type that ever held an agent (``A<tag>``), then edge types
        (``E<tag>``)."""
        h = hashlib.sha256()
        containers = [
            (f"A{tag}", seg) for tag, seg in enumerate(self._segments) if seg.count
        ] + [(f"E{tag}", c) for tag, c in enumerate(self._edges)]
        for key, container in containers:
            for name, buf in container.buffers().items():
                h.update(f"{key}/{name}:{buf.dtype.str}{buf.shape};".encode())
                h.update(np.ascontiguousarray(buf))
        return h.hexdigest()
