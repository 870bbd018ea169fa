"""Synchronous transition execution.

``apply_transition`` runs one transition function over every alive agent of
the callable types, always against the time-t read buffers, and stages the
constructed t+1 graph. ``finalize_step`` sweeps edges with dead endpoints,
swaps buffers, and advances the step counter. ``run`` drives a per-step
program of transitions and globals updates.

A transition function takes one of two forms. The per-agent form,
``fn(view, params, globals) -> state | None``, runs once per agent through a
:class:`~graphabm.view.NeighborhoodView`. Returning a state tuple re-adds
the agent with that state; returning None drops it (for mortal, written,
non-retained types) or is a no-op otherwise.

The batch form (``TransitionSpec(batch=True)``), ``fn(batch, params,
globals) -> columns``, runs once per chunk of agents through an
:class:`~graphabm.view.AgentBatch`, which gathers every agent's
neighbourhood at once over the read containers' CSR index; ``columns``
holds one array per state field, aligned with ``batch.slots``. A chunk
holds agents of one type and at most ``BATCH_EDGE_LIMIT``
incoming edges (an agent with more gets a chunk of its own). It re-adds
every agent it runs of a type it writes, so it cannot write a callable
type under keep_existing; for a callable type it does not write it
returns None.

A worker finds a batch transition's chunks, and each chunk's runs of edges
in every readable list container, once, in a :class:`ReadPlan` kept on its
simulation for that transition spec. A task of at most ``BATCH_EDGE_LIMIT``
edges is one chunk, found from its edge total alone, and a chunk of
consecutive slots reads runs that lie back to back, whose extents are their
starts less the first; so planning such a task takes no cumsum. A later
call reuses the plan while every read container is the same object, the
tasks hold the same slots and ``BATCH_EDGE_LIMIT`` is unchanged, and
builds it anew otherwise: a step that rewrites a read edge type with other
edges, or sweeps edges from it, or adds or removes agents of a callable
type, rebuilds it. A rewrite that reproduces a type's edges keeps its
container, and so the plans that read it (see below). A plan leaves the
simulation once a container it read is freed. A shuffled call plans each
one-agent chunk as it runs and keeps no plan.

One driver runs both forms: a worker walks its task list once, calls a
batch ``fn`` per chunk and a per-agent ``fn`` per agent, and passes what
the calls return through the one write contract
(:func:`~graphabm.storage.cast_columns`, after
:func:`~graphabm.schema.state_row` for each per-agent state). In either
form the calls create agents and edges of any type the spec writes, into
births and write shards they share (see :mod:`graphabm.view`). It ships,
per agent type it re-adds, the delta of the states its calls returned
(:func:`agent_delta`), the agents they created with their producers, and
its sealed edge write shards.
Every call sees only time-t data and writes are merged by producing-agent
id: newborns take their ids at the merge, in producer order, and edges to
or from them are rewritten to those ids. So the outcome does not depend
on the form, the chunking, the order in which agents run or the worker
count, as long as each agent's values, edges and draws are computed from
its own data.

A worker's payload holds each edge type it wrote as its write shard's
sealed chunk list (:meth:`~graphabm.storage.ListShard.seal`); the shard
itself stays on the worker. Every process keeps the last merge of each
edge type written without keep_existing in a list plan, as
:class:`KeptMerge`: each worker's chunk list and the container built from
them. A worker whose next shard of the type seals to the same chunks,
byte for byte, ships ``None`` in place of its chunk list, and when every
worker's does, the merge stages the kept container with no id rewrite,
endpoint check, sort or index build. So a model that re-emits the same
edges every step, such as a fixed daily routine, pays for them once, and
the plans that read them stay valid. Results are the same as a rebuild's,
since a list plan's container is a function of its chunk lists.
EXISTENCE_BIT and SINGLE_FULL_EDGE merges report SINGLE_EDGE breaches,
and a keep_existing merge reads the old container, so those always run.
A kept merge hides no SINGLE_TYPE breach: every merge, a reused one too,
checks every worker's list, kept or fresh, under the checks setting of
its transition. ``sim.step_metrics`` counts the merges reused per step.

An agent type's delta holds the re-added slots whose state differs,
byte for byte, from their time-t state, with those states, and the slots
the worker ran that died. So an agent re-added unchanged crosses no pipe.
The merge starts from the time-t segment that every process holds,
writes the changed states, zeroes the fields of the dead slots, so a
dead slot hashes alike however it died, and places the newborns; a
written type that no transition runs to re-add loses every agent. It
copies a column only when it writes into it
(:meth:`~graphabm.storage.AgentSegment.staged`).
At one worker no payload crosses a pipe, so nothing is compared and
every re-added slot counts as changed: one payload form, one merge.

The merge is also where the edge contracts are checked, over every
worker's chunk lists (see :mod:`graphabm.storage`); the view and the
batch write each edge straight into its shard, and no report crosses a
pipe.

Reads are checked where they enter, in the view, the batch and
``aggregate``, against the edge type's refused reads
(:func:`~graphabm.schema.check_read`), never inside the engine or a
container.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .checks import merge_sink
from .errors import TypeNotWritable, UsageError
from .ids import agent_id, slot_ids
from .schema import AgentTypeInfo, EdgePlan
from .sim import Simulation
from .storage import (
    AgentSegment,
    ListShard,
    build_read_container,
    cast_columns,
    check_single_type,
    differs,
    drop_dead_edges,
    rewrite_ids,
    same_edges,
    validate_endpoints,
)
from .view import AgentBatch, NeighborhoodView

_NO_SLOTS = np.empty(0, dtype=np.int64)

# Most incoming edges (summed over the readable list edge types) one batch
# chunk may hold: it bounds the transition's temporaries per call.
BATCH_EDGE_LIMIT = 1 << 15


@dataclass(frozen=True)
class TransitionSpec:
    """Which types a transition touches.

    ``callable_types``: agent types whose transition function runs.
    ``read_types``: agent and edge types the view may query.
    ``write_types``: agent and edge types the transition may change; all
    others pass through untouched.
    ``keep_existing``: written types whose current contents are retained,
    with the transition only adding new instances.
    ``batch``: the function takes an :class:`~graphabm.view.AgentBatch`
    per chunk of agents and returns state columns, or None when it does not
    write the chunk's agent type (see the module notes).
    """

    callable_types: tuple[str, ...]
    read_types: tuple[str, ...] = ()
    write_types: tuple[str, ...] = ()
    keep_existing: tuple[str, ...] = ()
    batch: bool = False

    def __post_init__(self):
        for attr in ("callable_types", "read_types", "write_types", "keep_existing"):
            value = getattr(self, attr)
            if isinstance(value, str):
                object.__setattr__(self, attr, (value,))
            else:
                object.__setattr__(self, attr, tuple(value))
        extra = set(self.keep_existing) - set(self.write_types)
        if extra:
            raise UsageError(
                f"keep_existing types {sorted(extra)} are not in write_types"
            )


class RuntimeSpec:
    """A TransitionSpec resolved against a schema, plus per-step context."""

    __slots__ = (
        "spec", "callable_tags", "readable_edges", "readable_agent_tags",
        "all_agents_readable", "written_agent", "written_edge", "reusable", "globals",
    )

    def __init__(self, sim: Simulation, spec: TransitionSpec):
        schema = sim.schema
        self.spec = spec
        tags = []
        for name in spec.callable_types:
            info = schema.type_by_name(name)
            if not isinstance(info, AgentTypeInfo):
                raise UsageError(f"callable type {name!r} is not an agent type")
            tags.append(info.tag)
        if len(set(tags)) != len(tags):
            raise UsageError("duplicate callable types")
        self.callable_tags = sorted(tags)

        self.readable_edges = {}
        agent_tags = set()
        for name in spec.read_types:
            info = schema.type_by_name(name)
            if isinstance(info, AgentTypeInfo):
                agent_tags.add(info.tag)
            else:
                self.readable_edges[name] = info.tag
        self.readable_agent_tags = frozenset(agent_tags)
        self.all_agents_readable = agent_tags >= {
            i.tag for i in schema.agent_types
        }

        keep = set(spec.keep_existing)
        self.written_agent = {}
        self.written_edge = {}
        for name in spec.write_types:
            info = schema.type_by_name(name)
            if isinstance(info, AgentTypeInfo):
                self.written_agent[info.tag] = name in keep
            else:
                self.written_edge[info.tag] = name in keep
        # written edge types whose merge may be reused (see KeptMerge)
        self.reusable = frozenset(
            etag for etag, kept in self.written_edge.items()
            if not kept and schema.edge_types[etag].plan not in _NOT_REUSED
        )
        for tag, kept in self.written_agent.items():
            info = schema.agent_types[tag]
            if info.immortal and not kept and tag not in self.callable_tags:
                raise UsageError(
                    f"immortal agent type {info.name!r} is written without "
                    "keep_existing but has no transition to re-create it"
                )
        self.globals = None  # snapshot installed per call by runtime_spec


def runtime_spec(sim: Simulation, spec: TransitionSpec, glob) -> RuntimeSpec:
    """``spec`` resolved against ``sim`` with the globals ``glob``
    installed. The resolution is made once per spec, whatever
    ``sim.checks`` says, and kept on the simulation; a spec that fails to
    resolve is not kept, so it raises on every call."""
    rt = sim._specs.get(spec)
    if rt is None:
        rt = sim._specs[spec] = RuntimeSpec(sim, spec)
    rt.globals = glob
    return rt


# Plans whose merge reports SINGLE_EDGE breaches, so it runs every time
_NOT_REUSED = (EdgePlan.EXISTENCE_BIT, EdgePlan.SINGLE_FULL_EDGE)


class KeptMerge(NamedTuple):
    """An edge type's last committed merge: each worker's chunk list, in
    worker order, and the container built from them.

    Every process keeps one per edge type written without keep_existing in
    a list plan (``RuntimeSpec.reusable``), from the same payloads, so all
    hold the same. A worker whose next shard of the type seals to its kept
    chunk list (:func:`~graphabm.storage.same_edges`) puts ``None`` in its
    payload in its place, and every merge takes the kept list for it;
    when every worker did, the merge stages ``container`` as it is. The
    container is a function of the chunk lists alone: a kept list holds
    no provisional id, since the merge that kept it rewrote them, and its
    endpoints were checked then, and an allocated slot stays allocated.
    Only the SINGLE_TYPE test reruns on a kept list, in every merge that
    takes it, so a reused merge reports what a rebuild would.
    """

    chunks: list
    container: object


@dataclass
class StagedCommit:
    segments: dict            # tag -> AgentSegment replacements
    edges: dict               # etag -> read container replacements
    merges: dict              # etag -> its KeptMerge, for the reusable types
    deaths_occurred: bool
    reports: list
    reused: int               # edge types staged as their kept container


# ---------------------------------------------------------------------------
# Worker-side execution
# ---------------------------------------------------------------------------


def _run_shard(sim, fn, rt: RuntimeSpec, partition, worker: int, nworkers: int,
               shuffle=None) -> dict:
    """Run ``fn`` over this worker's agents; return its payload: per agent
    type it re-adds, the :func:`agent_delta` of its calls, the agents they
    created, and each written edge type's sealed chunk list, or ``None``
    for one equal to the kept one."""
    schema = sim.schema
    batch = rt.spec.batch
    read = {name: sim._edges[etag] for name, etag in rt.readable_edges.items()}
    writers = {}
    for etag in rt.written_edge:
        info = schema.edge_types[etag]
        writers[info.name] = (step_shard(info, sim.checks != "off"), info)
    args = (sim.params, rt.globals)
    born: dict = {}  # tag -> [(provisional ids, producers, columns)], in call order
    shared = (sim, rt, read, writers, worker, born)  # what every call reads and writes
    tasks = _agent_tasks(sim, rt, partition, worker, nworkers)
    ran = dict(tasks)
    if shuffle is not None:
        flat = [(tag, slot) for tag, slots in tasks for slot in slots.tolist()]
        shuffle.shuffle(flat)
        tasks = [(tag, np.array([slot])) for tag, slot in flat]
    if batch:
        lists = [(name, c) for name, c in read.items()
                 if c.plan is not EdgePlan.EXISTENCE_BIT]
        if shuffle is not None:  # chunks of one agent, planned as they run
            chunked = (_plan_task(lists, tag, slots, BATCH_EDGE_LIMIT)
                       for tag, slots in tasks)
        else:
            plan = sim._plans.pop(rt.spec, None)
            if plan is None or not plan.serves(lists, tasks, BATCH_EDGE_LIMIT):
                del plan  # before the new one is built
                plan = ReadPlan(sim, rt.spec, lists, tasks, BATCH_EDGE_LIMIT)
            sim._plans[rt.spec] = plan
            chunked = plan.chunks

        def call(tag, seg, slots, runs):
            ret = fn(AgentBatch(*shared, tag, seg, slots, runs), *args)
            return (slots, ret) if ret is not None else (slots[:0], None)
    else:
        view = NeighborhoodView(*shared)
        chunked = [[(0, slots.size, None)] for _tag, slots in tasks]

        def call(tag, seg, slots, _runs):
            return view._call_each(fn, tag, seg, slots, *args)

    returned: dict = {}  # tag -> [(slots, columns)] of re-added agents
    for (tag, slots), chunks in zip(tasks, chunked):
        info = schema.agent_types[tag]
        seg = sim._segments[tag]
        writes_self = tag in rt.written_agent
        kept = rt.written_agent.get(tag, False)
        # a batch re-adds every agent of a type it writes; a per-agent call
        # may drop its agent unless the type is immortal
        must_return = writes_self and not kept and (batch or info.immortal)
        for lo, hi, runs in chunks:
            chunk = slots[lo:hi]
            done, cols = call(tag, seg, chunk, runs)
            if must_return and done.size < chunk.size:
                slot = np.setdiff1d(chunk, done)[0]
                raise UsageError(
                    f"agent {agent_id(tag, int(slot)):#x} of type "
                    f"{info.name!r} must return a state"
                )
            if cols is None:
                continue
            if not writes_self:
                raise TypeNotWritable(
                    f"agent type {info.name!r} is not in this transition's "
                    "write set but its function returned a state"
                )
            if kept:
                raise UsageError(
                    f"agent type {info.name!r} is retained (keep_existing); "
                    "its function must return None"
                )
            returned.setdefault(tag, []).append((done, cast_columns(info, cols, done.size)))

    agents = {}
    for tag, kept in rt.written_agent.items():
        if not kept and tag in ran:
            slots, cols = zip(*returned.get(tag, [(_NO_SLOTS, ())]))
            agents[tag] = agent_delta(sim._segments[tag], ran[tag], np.concatenate(slots),
                                      [np.concatenate(c) for c in zip(*cols)], nworkers > 1)
    births = {}
    for tag, made in born.items():
        ids, producers, columns = zip(*made)
        births[tag] = (np.concatenate(ids), np.concatenate(producers),
                       [np.concatenate(c) for c in zip(*columns)])
    edges = {}
    for shard, info in writers.values():
        chunks = shard.seal()  # casts per-edge states here, before they ship
        kept = sim._kept.get(info.tag) if info.tag in rt.reusable else None
        same = (kept is not None and len(kept.chunks) == nworkers
                and same_edges(chunks, kept.chunks[worker]))
        edges[info.tag] = None if same else chunks  # None: the kept chunk list
    return {"agents": agents, "births": births, "edges": edges}


def agent_delta(seg: AgentSegment, ran: np.ndarray, slots: np.ndarray, columns: list,
                compare: bool) -> tuple:
    """What a worker ships of an agent type it re-adds: ``(slots, columns,
    dead)``, the re-added ``slots`` whose state differs from their time-t
    state in ``seg`` and those states, and the slots it ``ran`` that
    re-added none, ascending. States compare byte for byte, as
    :func:`~graphabm.storage.same_edges` compares, so -0.0 differs from
    0.0 and two NaN payloads differ. Without ``compare``, every re-added
    slot counts as changed: at one worker no payload crosses a pipe, and
    the merge writes them all either way."""
    dead = (_NO_SLOTS if slots.size == ran.size
            else np.setdiff1d(ran, slots, assume_unique=True))
    if compare:
        changed = np.zeros(slots.size, dtype=bool)
        for held, column in zip(seg.fields.values(), columns):
            changed |= differs(held[slots], column)
        slots, columns = slots[changed], [column[changed] for column in columns]
    return slots, columns, dead


def step_shard(info, checked: bool):
    """A worker's write shard of an edge type in a transition. It records
    each edge's producer where the merge reads them: a list plan's merge
    orders by producer, but COUNT_ONLY's keeps no order and EXISTENCE_BIT's
    is a union of bits; with ``checked``, the reports name each breach's
    producer and follow producer order (EXISTENCE_BIT's SINGLE_EDGE and
    any SINGLE_TYPE type's)."""
    unordered = info.plan in (EdgePlan.EXISTENCE_BIT, EdgePlan.COUNT_ONLY)
    reported = checked and (info.plan is EdgePlan.EXISTENCE_BIT
                            or info.single_type_tag is not None)
    return ListShard(info, not unordered or reported)


class ReadPlan:
    """Where a batch transition's agents read their edges: per task, its
    chunks, each as ``(lo, hi, runs)``, positions in the task's slots and,
    by edge type name, its ``ListEdgeRead.runs`` in every readable list
    container.

    A task's slots are kept as their range when consecutive, else as their
    bytes, so the plan grows with agents and chunks, never with edges. It
    serves a later call of the transition while each container is the
    same object, every task holds the same slots and the chunk limit is
    the same; a rewrite of a read type that reproduces its edges stages
    the same container (:class:`KeptMerge`), so the plan still serves. It
    holds weak references to the containers, so it keeps no replaced
    container alive, and it leaves ``sim._plans`` once one of them is
    freed, so a stale plan holds no memory either.
    """

    __slots__ = ("refs", "limit", "tasks", "chunks")

    def __init__(self, sim, key, lists: list, tasks: list, limit: int):
        owner = weakref.ref(sim)

        def forget(_ref):
            held = owner()
            if held is not None:
                held._plans.pop(key, None)

        self.refs = [weakref.ref(c, forget) for _name, c in lists]
        self.limit = limit
        self.tasks = [_task_key(tag, slots) for tag, slots in tasks]
        self.chunks = [_plan_task(lists, tag, slots, limit) for tag, slots in tasks]

    def serves(self, lists: list, tasks: list, limit: int) -> bool:
        return (
            limit == self.limit
            and all(ref() is c for ref, (_name, c) in zip(self.refs, lists))
            and self.tasks == [_task_key(tag, slots) for tag, slots in tasks]
        )


def _task_span(slots: np.ndarray):
    """Ascending ``slots`` as a ``slice`` when they are consecutive."""
    if slots.size and slots[-1] - slots[0] == slots.size - 1:
        return slice(int(slots[0]), int(slots[-1]) + 1)
    return slots


def _task_key(tag: int, slots: np.ndarray) -> tuple:
    span = _task_span(slots)
    return (tag, span.start, span.stop) if isinstance(span, slice) else (tag, slots.tobytes())


def _plan_task(lists: list, tag: int, slots: np.ndarray, limit: int) -> list:
    """The ``(lo, hi, runs)`` chunks of one task of ascending slots: one
    ``bounds`` per container for the task, one ``runs`` per container and
    chunk. A task of at most ``limit`` edges is the one chunk
    :func:`_chunks` would give, found without its cumsum and search."""
    bounds = [(name, *c.bounds(tag, _task_span(slots)), c) for name, c in lists]
    if slots.size and sum(int(ends.sum() - starts.sum())
                          for _name, starts, ends, _c in bounds) <= limit:
        return [(0, slots.size, {name: c.runs(starts, ends)
                                 for name, starts, ends, c in bounds})]
    edges = np.zeros(slots.size, dtype=np.int64)
    for _name, starts, ends, _c in bounds:
        edges += ends - starts
    planned, lo = [], 0
    for chunk in _chunks(slots, edges, limit):
        hi = lo + chunk.size
        planned.append((lo, hi, {name: c.runs(starts[lo:hi], ends[lo:hi])
                                 for name, starts, ends, c in bounds}))
        lo = hi
    return planned


def _chunks(slots: np.ndarray, edges: np.ndarray, limit: int):
    """Split ``slots`` into runs of whole agents holding at most ``limit``
    edges in total; an agent with more than ``limit`` edges runs alone."""
    total = np.cumsum(edges)
    start = 0
    while start < slots.size:
        before = int(total[start] - edges[start])
        stop = max(int(np.searchsorted(total, before + limit, side="right")), start + 1)
        yield slots[start:stop]
        start = stop


def _agent_tasks(sim, rt, partition, worker, nworkers):
    """(tag, slot array) work items in ascending agent-id order: the alive
    agents of the callable types, at ``nworkers > 1`` those the partition
    gives ``worker``."""
    tasks = []
    for tag in rt.callable_tags:
        seg = sim._segments[tag]
        slots = seg.alive_slots() if nworkers == 1 else partition.alive_slots(tag, worker, seg)
        if slots.size:
            tasks.append((tag, slots))
    return tasks


# ---------------------------------------------------------------------------
# Control-side merge
# ---------------------------------------------------------------------------


def _merge_and_stage(sim, rt: RuntimeSpec, payloads: list) -> None:
    schema = sim.schema
    sink = merge_sink(sim.checks, sim.step)
    reports = [] if sink is None else sink.reports

    staged_segments = {}
    provisional, final = [], []
    deaths_occurred = False
    for tag, kept in rt.written_agent.items():
        old = sim._segments[tag]
        deltas = [p["agents"][tag] for p in payloads if tag in p["agents"]]
        births = [p["births"][tag] for p in payloads if tag in p["births"]]
        if kept or tag in rt.callable_tags:
            dead = np.sort(np.concatenate([d[2] for d in deltas])) if deltas else _NO_SLOTS
        else:  # no agent of the type runs to re-add itself
            dead = old.alive_slots()
        seg = old.staged(fields=bool(births or dead.size or any(d[0].size for d in deltas)),
                         alive=bool(births or dead.size))

        for slots, columns, _dead in deltas:
            seg.write(slots, columns)
        if dead.size:  # zeroed, so a dead slot hashes alike however it died
            deaths_occurred = True
            seg.write(dead, [0] * len(seg.fields))
            seg.alive[dead] = False

        if births:
            ids, slots = _place_births(seg, births)
            provisional.append(ids)
            final.append(slot_ids(tag, slots))
        seg.free.extend(dead.tolist())
        staged_segments[tag] = seg

    segments = [staged_segments.get(tag, seg) for tag, seg in enumerate(sim._segments)]
    if provisional:
        old_ids, new_ids = np.concatenate(provisional), np.concatenate(final)
        order = np.argsort(old_ids)
        old_ids, new_ids = old_ids[order], new_ids[order]
    staged_edges, merges, reused = {}, {}, 0
    for etag, kept in rt.written_edge.items():
        info = schema.edge_types[etag]
        lists = [p["edges"][etag] for p in payloads]  # one chunk list per worker
        fresh = [chunks for chunks in lists if chunks is not None]
        lists = [sim._kept[etag].chunks[w] if chunks is None else chunks
                 for w, chunks in enumerate(lists)]
        if provisional:
            rewrite_ids(fresh, old_ids, new_ids)
        check_single_type(info, lists, sink)
        if fresh:
            validate_endpoints(info, fresh, lambda ids: sim._lookup(ids, segments=segments))
            container = build_read_container(
                info, lists, sim._edges[etag] if kept else None, sink)
        else:  # every worker's chunk list is its kept one
            container = sim._kept[etag].container
            reused += 1
        staged_edges[etag] = container
        if etag in rt.reusable:
            merges[etag] = KeptMerge(lists, container)

    sim._staged = StagedCommit(
        segments=staged_segments,
        edges=staged_edges,
        merges=merges,
        deaths_occurred=deaths_occurred,
        reports=reports,
        reused=reused,
    )


def _place_births(seg: AgentSegment, births: list):
    """Give the newborns of a type slots in ``seg``. ``births`` holds each
    worker's ``(provisional ids, producers, columns)``, in worker order; a
    producer runs once, on one worker, so a stable sort by producer orders
    them by producing agent and each producer's in call order. In that
    order they take the slots :meth:`AgentSegment.place` gives: the free
    list's, last freed first, then fresh ones. Returns their provisional
    ids and their slots, aligned."""
    ids, producers, columns = zip(*births)
    order = np.argsort(np.concatenate(producers), kind="stable")
    slots = seg.place(order.size)
    seg.write(slots, [np.concatenate(c)[order] for c in zip(*columns)])
    return np.concatenate(ids)[order], slots


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def apply_transition(sim: Simulation, fn, spec: TransitionSpec, *,
                     workers: int = 1, partition=None, shuffle=None) -> None:
    """Run one synchronous transition and stage the constructed graph.

    Every alive agent of the callable types executes ``fn`` exactly once
    against time-t data. Call :func:`finalize_step` to commit. With
    ``shuffle`` (a numpy Generator) every agent runs as a call of its own,
    a batch of one agent in the batch form, in a random order across all
    callable types, on each worker its own; results do not depend on it.
    With ``workers > 1`` the transition runs on the workers of :func:`run`
    when it is one of its program's, else on workers forked for this call
    and ended before it returns or raises. While :func:`run`'s workers are
    up, they merge and commit every transition's payloads on their copy of
    the graph as the caller does, whether or not they ran it; if a
    transition fails after they were sent anything for it, they are ended.
    ``spec`` is resolved against the schema once and kept on the
    simulation, on the control and on every worker alike
    (:func:`runtime_spec`).
    """
    if sim._staged is not None:
        raise UsageError("previous transition not finalized")
    if sim._in_transition:
        raise UsageError("transition already in flight")
    sim.commit_initial()
    sim._params_frozen = True
    rt = runtime_spec(sim, spec, sim.globals_snapshot())
    pool = own = None
    if workers > 1:
        from .parallel import WorkerPool, partition_graph

        pool = sim._pool
        index = pool.index(fn, spec) if pool is not None and pool.workers == workers else None
        if index is None:
            if partition is None:
                partition = partition_graph(sim, workers)
            own = pool = WorkerPool(sim, [(fn, spec)], partition, workers)
            index = 0
    resident = sim._pool
    if resident is not None:
        resident.sent = False
    sim._in_transition = True
    try:
        if pool is None:
            payloads = [_run_shard(sim, fn, rt, partition, 0, 1, shuffle=shuffle)]
        else:
            from .parallel import fork_payloads

            payloads = fork_payloads(pool, index, rt, shuffle=shuffle)
        commit = None
        if resident is not None and pool is not resident:
            from .parallel import commit_message

            commit = commit_message(sim, spec, payloads)
        _merge_and_stage(sim, rt, payloads)
        if commit is not None:
            resident.broadcast(commit)
    except BaseException:
        sim._in_transition = False
        sim._staged = None
        if resident is not None and resident.sent:
            resident.close()  # its workers' replicas may be out of step
            sim._pool = None
        raise
    finally:
        if own is not None:
            own.close()


def finalize_step(sim: Simulation) -> None:
    """Commit the staged graph: sweep dangling edges, swap buffers.

    Edges whose target slot died are dropped, as are edges whose stored
    source died. Edge types that do not store the source cannot see a
    source death and deliberately retain such edges. The merges of the
    written edge types become their :class:`KeptMerge`, built before
    the sweep. :func:`run`'s workers make the same commit on their own,
    from the payloads :func:`apply_transition` sent them.
    """
    staged = sim._staged
    if staged is None:
        raise UsageError("no transition staged; call apply_transition first")
    for tag, seg in staged.segments.items():
        sim._segments[tag] = seg
    for etag, container in staged.edges.items():
        sim._edges[etag] = container
        sim._kept.pop(etag, None)
    sim._kept.update(staged.merges)
    if staged.deaths_occurred:
        sim._edges = [drop_dead_edges(c, lambda ids: sim._lookup(ids, alive=True))
                      for c in sim._edges]
    sim.check_reports.extend(staged.reports)
    sim.step += 1
    sim._staged = None
    sim._in_transition = False


def run(sim: Simulation, steps: int, program, *, workers: int = 1,
        partition=None, strategy: str = "contiguous", on_step=None) -> None:
    """Execute a step program ``steps`` times.

    ``program`` is an ordered list whose items are either ``(fn, spec)``
    transitions or callables taking the simulation (run on the control
    thread between transitions, e.g. globals updates). Each step appends
    to ``sim.step_metrics`` its ``wall_ms``, ``agents_run``, the agents
    its transitions ran, summed over them: the alive agents of each
    transition's callable types, at any worker count, and
    ``merges_reused``, the edge-type merges that staged their kept
    container (:class:`KeptMerge`), and ``bytes_sent`` and
    ``bytes_received``, the bytes the control wrote to and read from its
    workers' pipes, 0 at one worker. With ``workers > 1``
    the workers are forked once, after partitioning, and ended before
    ``run`` returns or raises (see :mod:`graphabm.parallel`).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    items = []
    for item in program:
        if isinstance(item, tuple):
            fn, spec = item
            items.append(("t", fn, spec))
        elif callable(item):
            items.append(("g", item, None))
        else:
            raise UsageError(f"program item {item!r} is neither (fn, spec) nor callable")
    sim.commit_initial()
    pool = None
    if workers > 1:
        from .parallel import WorkerPool, partition_graph

        if partition is None:
            partition = partition_graph(sim, workers, strategy)
        pool = WorkerPool(sim, [(a, b) for kind, a, b in items if kind == "t"],
                          partition, workers)
    sim._pool = pool
    try:
        for index in range(steps):
            t0 = time.perf_counter()
            agents_run = reused = 0
            sent, received = sim._pipe_bytes
            for kind, a, b in items:
                if kind == "t":
                    apply_transition(sim, a, b, workers=workers, partition=partition)
                    agents_run += sum(  # the time-t segments, until the commit
                        sim._segments[sim.schema.type_by_name(name).tag].n_alive
                        for name in b.callable_types
                    )
                    reused += sim._staged.reused
                    finalize_step(sim)
                else:
                    a(sim)
            sim.step_metrics.append({
                "step_index": index,
                "wall_ms": (time.perf_counter() - t0) * 1e3,
                "agents_run": agents_run,
                "merges_reused": reused,
                "bytes_sent": sim._pipe_bytes[0] - sent,
                "bytes_received": sim._pipe_bytes[1] - received,
            })
            if on_step is not None:
                on_step(sim)
    finally:
        sim._pool = None
        if pool is not None:
            pool.close()
