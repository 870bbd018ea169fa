"""What a transition function may observe and write.

A :class:`NeighborhoodView` exposes exactly what one agent may observe at
time t: its own state, its incoming edges (per readable edge type), and the
time-t states of the agents at those edges' sources. Write effects (new
agents, new edges) go into the executing worker's private shard; they
become visible only after the step commits. One view object is reused for
every agent a worker executes; the engine rebinds it per agent, so
transition functions must not retain it.

An :class:`AgentBatch` is the array-at-a-time counterpart handed to batch
transitions: a chunk of agents of one type, with gathers that return every
agent's neighbourhood at once in CSR form. Both pass the same read checks:
every edge read enters through ``_Reads._container``, which refuses a type
outside the transition's read set and, through
:func:`~graphabm.schema.check_read`, a read the type's hints refuse, and
then asks the read container by the agents' type tag and slots.
"""

from __future__ import annotations

import numpy as np

from .errors import TypeNotReadable, TypeNotWritable, UnknownName, UsageError
from .ids import as_ids, provisional_id, slot_ids, split_by_tag
from .philox import agent_draws, agent_generator
from .schema import check_read, state_row
from .storage import run_positions


class _Reads:
    """Read checks and source-state gathers shared by view and batch.

    Subclasses hold ``_sim``, ``_rt`` and ``_read`` (edge type name ->
    read container).
    """

    __slots__ = ()

    def _container(self, edge_type: str, kind: str):
        """The read container of ``edge_type``, for a read of ``kind`` (see
        :func:`~graphabm.schema.check_read`)."""
        c = self._read.get(edge_type)
        if c is None:
            raise TypeNotReadable(
                f"edge type {edge_type!r} is not in this transition's read set"
            )
        check_read(c.info, kind)
        return c

    def _check_agent_readable(self, tag: int):
        rt = self._rt
        if not rt.all_agents_readable and tag not in rt.readable_agent_tags:
            name = self._sim.schema.agent_types[tag].name
            raise TypeNotReadable(
                f"agent type {name!r} is not in this transition's read set"
            )

    def _source_column(self, tag: int, field: str) -> np.ndarray:
        """One field of the agents of a type."""
        self._check_agent_readable(tag)
        try:
            return self._sim._segments[tag].fields[field]
        except KeyError:
            raise UnknownName(
                f"agent type {self._sim.schema.agent_types[tag].name!r} "
                f"has no field {field!r}"
            ) from None

    def _gather(self, sources: np.ndarray, field: str) -> np.ndarray:
        """One field of the agents with the given ids, in id-array order."""
        if not sources.size:
            return np.empty(0)
        out = None
        for tag, sel, slots in split_by_tag(sources):
            arr = self._source_column(tag, field)
            if out is None:
                out = np.empty(sources.size, dtype=arr.dtype)
            out[sel] = arr[slots]
        return out


class NeighborhoodView(_Reads):
    __slots__ = (
        "_sim", "_rt", "_worker", "_read", "_writers", "_births", "_step",
        "_fields", "_field_list", "_tag", "_slot", "_aid", "_rng", "_gather_cache",
    )

    def __init__(self, sim, rt, read_containers, writers, worker: int):
        self._sim = sim
        self._rt = rt
        self._worker = worker
        self._read = read_containers  # name -> read container
        # name -> (the shard's add, EdgeTypeInfo)
        self._writers = {name: (shard.add, info) for name, (shard, info) in writers.items()}
        self._births: dict[int, tuple] = {}  # tag -> (ids, producer ids, states)
        self._step = sim.step
        self._gather_cache: dict = {}
        self._rng = None

    def _call_each(self, fn, tag, seg, slots, params, glob):
        """Call the per-agent ``fn`` once per slot, with the view bound to
        that agent. Returns the slots whose call returned a state, and those
        states as columns, or None when no call did."""
        info = self._sim.schema.agent_types[tag]
        self._tag = tag
        self._fields = seg.fields
        self._field_list = list(seg.fields.values())
        done, states = [], []
        for slot, aid in zip(slots.tolist(), slot_ids(tag, slots).tolist()):
            self._slot = slot
            self._aid = aid
            self._rng = None
            ret = fn(self, params, glob)
            if ret is not None:
                done.append(slot)
                states.append(state_row(info, ret))
        return np.array(done, dtype=np.int64), (list(zip(*states)) if states else None)

    # -- own state -------------------------------------------------------------

    @property
    def agent_id(self) -> int:
        return self._aid

    @property
    def step(self) -> int:
        return self._step

    @property
    def state(self) -> tuple:
        slot = self._slot
        return tuple(arr[slot] for arr in self._field_list)

    def field(self, name: str):
        try:
            return self._fields[name][self._slot]
        except KeyError:
            raise UnknownName(f"agent has no field {name!r}") from None

    # -- incoming edges --------------------------------------------------------

    def edges(self, edge_type: str) -> list:
        """Incoming edge records, in producing-agent order."""
        return self._container(edge_type, "records").records_at(self._tag, self._slot)

    def sources(self, edge_type: str) -> np.ndarray:
        """Source agent ids of incoming edges."""
        return self._container(edge_type, "sources").sources_at(self._tag, self._slot)

    def edge_states(self, edge_type: str) -> list:
        """States of incoming edges, as tuples, in producing-agent order."""
        return self._container(edge_type, "states").states_at(self._tag, self._slot)

    def num_edges(self, edge_type: str) -> int:
        return self._container(edge_type, "count").count_at(self._tag, self._slot)

    def has_edge(self, edge_type: str) -> bool:
        return self._container(edge_type, "has").has_at(self._tag, self._slot)

    # -- source agent state ------------------------------------------------------

    def source_state(self, record) -> tuple:
        """Time-t state of the agent at an edge record's source."""
        check_read(self._sim.schema.edge_type(record.edge_type), "source_state")
        src = record.source
        tag, seg, slot = self._sim._locate(src)
        self._check_agent_readable(tag)
        if seg is None:
            raise UnknownName(f"source agent {src:#x} does not exist")
        return seg.state_tuple(slot)

    def neighbor_field(self, edge_type: str, field: str) -> np.ndarray:
        """One state field of all incoming edges' source agents.

        Values are time-t reads in producing-agent order, aligned with
        ``sources(edge_type)``.
        """
        cached = self._gather_cache.get((edge_type, field))
        if cached is None:
            c = self._container(edge_type, "source_state")
            tag = c.single_source_tag
            if tag is None:
                return self._gather(c.sources_at(self._tag, self._slot), field)
            cached = self._gather_cache[(edge_type, field)] = (self._source_column(tag, field), c)
        arr, c = cached
        lo, hi = c.span(self._tag, self._slot)
        return arr[c.source_slots(slice(lo, hi))]

    # -- write effects ----------------------------------------------------------

    def add_agent(self, type_name: str, *state) -> int:
        """Create an agent of a writable type, alive at t+1; returns a
        provisional id.

        The agent takes its id at the merge, which orders every newborn of
        a type by producing agent (each producer's in call order) and gives
        them free slots, then fresh ones. So the ids do not depend on the
        worker count or the order in which agents run. The provisional id
        is valid as an edge endpoint (target or ``source=``) in this
        transition only: the merge rewrites it there to the final id. An id
        kept past its transition, in a state column or elsewhere, is not
        rewritten, and a later transition rejects it as no agent, until
        its step field wraps (``2**STEP_BITS`` transitions, see
        :mod:`graphabm.ids`). A contract report on an edge to the newborn,
        made at the merge after that rewrite, names the final id.
        """
        info = self._sim.schema.agent_type(type_name)
        tag = info.tag
        if tag not in self._rt.written_agent:
            raise TypeNotWritable(
                f"agent type {type_name!r} is not in this transition's write set"
            )
        state = state_row(info, state)
        births = self._births.get(tag)
        if births is None:
            births = self._births[tag] = ([], [], [])
        ids, producers, states = births
        # the worker's births of this type, numbered in call order
        ids.append(provisional_id(tag, self._step, self._worker, len(ids)))
        producers.append(self._aid)
        states.append(state)
        return ids[-1]

    def add_edge(self, edge_type: str, target: int, state: tuple = (), source=None) -> None:
        """Add an edge to the graph under construction.

        ``source`` defaults to the executing agent. Only information the
        edge type's hints retain is stored; the merge checks the type's
        contracts.
        """
        w = self._writers.get(edge_type)
        if w is None:
            raise TypeNotWritable(
                f"edge type {edge_type!r} is not in this transition's write set"
            )
        adder, info = w
        adder(target, self._aid if source is None else source,
              info.stored_state(state), self._aid)

    # -- randomness ---------------------------------------------------------------

    @property
    def rng(self) -> np.random.Generator:
        """Deterministic per-agent random stream for this step.

        Seeded by (simulation seed, step counter, agent id), so draws are
        independent of worker count and of agent execution order.
        """
        r = self._rng
        if r is None:
            r = self._rng = agent_generator(self._sim.seed, self._step, self._aid)
        return r


class AgentBatch(_Reads):
    """A chunk of agents of one type for a batch transition.

    ``slots`` holds the agents' local slots and ``ids`` their agent ids;
    the arrays a batch transition returns, and the per-agent arrays its
    reads return and its writes take, align with them. All reads see time-t
    data; arrays a read returns may share memory with the store and must
    not be modified. Edge reads take the agents' runs in each readable list
    container from the engine's read plan.
    """

    __slots__ = ("_sim", "_rt", "_read", "_writers", "_seg", "_tag", "_runs", "_ids", "slots")

    def __init__(self, sim, rt, read_containers, writers, tag: int, seg, slots, runs):
        self._sim = sim
        self._rt = rt
        self._read = read_containers
        self._writers = writers  # name -> (shard, EdgeTypeInfo)
        self._seg = seg
        self._tag = tag
        self.slots = slots
        self._runs = runs  # list edge type name -> the slots' (pos, indptr) in it
        self._ids = None

    @property
    def ids(self) -> np.ndarray:
        if self._ids is None:
            self._ids = slot_ids(self._tag, self.slots)
        return self._ids

    def field(self, name: str) -> np.ndarray:
        """The agents' own values of one state field."""
        try:
            arr = self._seg.fields[name]
        except KeyError:
            raise UnknownName(f"agent has no field {name!r}") from None
        return arr[self.slots]

    # -- incoming edges --------------------------------------------------------

    def has(self, edge_type: str) -> np.ndarray:
        """Per agent, whether it has an incoming edge of the type."""
        return self._container(edge_type, "has").has_for_slots(
            self._tag, self.slots, self._runs.get(edge_type))

    def count(self, edge_type: str) -> np.ndarray:
        """Per agent, its number of incoming edges of the type."""
        return self._container(edge_type, "count").count_for_slots(
            self._tag, self.slots, self._runs.get(edge_type))

    def edges(self, edge_type: str):
        """Every agent's incoming edges as ``(sources, states, indptr)``.

        Agent ``i``'s edges sit at ``indptr[i]:indptr[i + 1]``, in
        producing-agent order, as ``NeighborhoodView.edges`` lists them.
        ``sources`` is None when the type drops source ids and ``states``,
        one column per declared field, when it is STATELESS.
        """
        return self._container(edge_type, "records").records_for_slots(
            self._tag, self.slots, self._runs.get(edge_type))

    def neighbor_field(self, edge_type: str, field: str):
        """One state field of the source agents of every agent's incoming edges.

        Returns ``(values, indptr)``: agent ``i``'s values are
        ``values[indptr[i]:indptr[i + 1]]``, in producing-agent order, the
        same values ``NeighborhoodView.neighbor_field`` gives that agent.
        """
        c = self._container(edge_type, "source_state")
        pos, indptr = self._runs[edge_type]
        pos = run_positions(pos, indptr)
        tag = c.single_source_tag
        if tag is None:
            return self._gather(c.source_ids(pos), field), indptr
        return self._source_column(tag, field)[c.source_slots(pos)], indptr

    # -- write effects ----------------------------------------------------------

    def add_edges(self, edge_type: str, targets, *, agents, states=None,
                  sources=None) -> None:
        """Add edges to the graph under construction.

        Edge ``i`` is produced by the agent at position ``agents[i]`` of
        ``slots``; ``sources`` defaults to the producers' ids and ``states``
        holds one column per declared field. As in
        ``NeighborhoodView.add_edge``, only what the type's hints retain is
        stored, and each agent's edges keep their order in the arrays. The
        states are checked and cast by the shard (``ListShard.extend``).
        """
        w = self._writers.get(edge_type)
        if w is None:
            raise TypeNotWritable(
                f"edge type {edge_type!r} is not in this transition's write set"
            )
        shard = w[0]
        targets = as_ids(targets, f"edge type {edge_type!r}: targets")
        if sources is not None:
            sources = as_ids(sources, f"edge type {edge_type!r}: sources")
        agents = np.asarray(agents)
        for name, column in (("targets", targets), ("agents", agents), ("sources", sources)):
            if column is not None and np.shape(column) != (targets.size,):
                raise UsageError(
                    f"edge type {edge_type!r}: {name} of shape "
                    f"{np.shape(column)} for {targets.size} targets"
                )
        if agents.size and (
            agents.dtype.kind not in "iu"
            or agents.min() < 0 or agents.max() >= self.slots.size
        ):
            raise UsageError(
                f"agents must be positions in this batch's {self.slots.size} slots"
            )
        producers = self.ids[agents.astype(np.intp, copy=False)]
        shard.extend(targets, producers if sources is None else sources,
                     states, producers)

    # -- randomness ---------------------------------------------------------------

    def random(self, counts) -> np.ndarray:
        """``counts[i]`` uniform draws in [0, 1) for each agent, concatenated.

        Agent ``i``'s draws equal the first ``counts[i]`` values of
        ``NeighborhoodView.rng.random()`` for that agent in this step: the
        stream is keyed by (simulation seed, step, agent id) only.
        """
        counts = np.asarray(counts)
        if counts.shape != self.slots.shape or (
            counts.size and (counts.dtype.kind not in "iu" or counts.min() < 0)
        ):
            raise UsageError(
                f"random takes one non-negative count per agent ({self.slots.size})"
            )
        return agent_draws(self._sim.seed, self._sim.step, self.ids,
                           counts.astype(np.int64))
