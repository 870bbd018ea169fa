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
non-retained types) or is a no-op otherwise. New agents and edges are
created through the view.

The batch form (``TransitionSpec(batch=True)``), ``fn(batch, params,
globals) -> columns``, runs once per chunk of agents through an
:class:`~graphabm.view.AgentBatch`, which gathers every agent's
neighbourhood at once over the read containers' CSR index; ``columns``
holds one array per state field, aligned with ``batch.slots``. A chunk
holds agents of one type and at most ``BATCH_EDGE_LIMIT``
incoming edges (an agent with more gets a chunk of its own). A batch may
write edge types, through ``batch.add_edges``, and agent types it calls,
re-adding every agent it runs of those; for a callable type it does not
write it returns None.

A worker finds a batch transition's chunks, and each chunk's runs of edges
in every readable list container, once, in a :class:`ReadPlan` kept on its
simulation for that transition spec. A later call reuses the plan while
every read container is the same object, the tasks hold the same slots and
``BATCH_EDGE_LIMIT`` is unchanged, and builds it anew otherwise: a step that
rewrites a read edge type with other edges, or sweeps edges from it, or
adds or removes agents of a callable type, rebuilds it. A rewrite that
reproduces a type's edges keeps its container, and so the plans that read
it (see below). A plan leaves the simulation once a container it read is
freed. A shuffled call plans each one-agent chunk as it runs and keeps no
plan.

One driver runs both forms: a worker walks its task list once, calls a
batch ``fn`` per chunk and a per-agent ``fn`` per agent, checks and casts
what the calls return the same way, and ships the states of the agents
they re-added, per type, and the agents they created with their producers,
beside its edge write shards. Every call sees only time-t data and writes
are merged by producing-agent id: newborns take their ids at the merge, in
producer order, and edges to or from them are rewritten to those ids. So
the outcome does not depend on the form, the chunking, the order in which
agents run or the worker count, as long as each agent's values, edges and
draws are computed from its own data.

Every process keeps the last merge of each edge type written without
keep_existing in a list plan, as :class:`KeptMerge`: each worker's write
shard and the container built from them. A worker whose next shard of the
type holds the same chunks, byte for byte, ships ``None`` in its place,
and when every worker's does, the merge stages the kept container with no
id rewrite, endpoint check, sort or index build. So a model that re-emits
the same edges every step, such as a fixed daily routine, pays for them
once, and the plans that read them stay valid. Results are the same as a
rebuild's, since a list plan's container is a function of its shards.
EXISTENCE_BIT and SINGLE_FULL_EDGE merges report SINGLE_EDGE breaches,
and a keep_existing merge reads the old container, so those always run.
``sim.step_metrics`` counts the merges reused per step.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .checks import ViolationSink
from .errors import TypeNotWritable, UsageError
from .ids import agent_id, slot_ids
from .schema import AgentTypeInfo, EdgePlan
from .sim import Simulation
from .storage import (
    AgentSegment,
    ListShard,
    build_read_container,
    cast_columns,
    drop_dead_edges,
    rewrite_ids,
    same_edges,
    validate_endpoints,
)
from .view import AgentBatch, NeighborhoodView

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
        "all_agents_readable", "written_agent", "written_edge", "reusable",
        "check_single_edge", "check_single_type", "mode", "globals",
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
        if spec.batch and (
            spec.keep_existing or not set(self.written_agent) <= set(self.callable_tags)
        ):
            raise UsageError(
                "a batch transition writes edge types and agent types it calls "
                "only, and no keep_existing"
            )

        cfg = sim.checks
        self.check_single_edge = cfg.check_single_edge()
        self.check_single_type = cfg.check_single_type()
        self.mode = cfg.mode
        self.globals = None  # snapshot installed per call by runtime_spec


def runtime_spec(sim: Simulation, spec: TransitionSpec, glob) -> RuntimeSpec:
    """``spec`` resolved against ``sim`` with the globals ``glob``
    installed. The resolution is made once per ``(spec, sim.checks)`` and
    kept on the simulation; a spec that fails to resolve is not kept, so
    it raises on every call."""
    key = (spec, sim.checks)
    rt = sim._specs.get(key)
    if rt is None:
        rt = sim._specs[key] = RuntimeSpec(sim, spec)
    rt.globals = glob
    return rt


# Plans whose merge reports SINGLE_EDGE breaches, so it runs every time
_NOT_REUSED = (EdgePlan.EXISTENCE_BIT, EdgePlan.SINGLE_FULL_EDGE)


class KeptMerge(NamedTuple):
    """An edge type's last committed merge: each worker's write shard, in
    worker order, and the container built from them.

    Every process keeps one per edge type written without keep_existing in
    a list plan (``RuntimeSpec.reusable``), from the same payloads, so all
    hold the same. A worker whose next shard of the type is the same as
    its kept one (:func:`~graphabm.storage.same_edges`) puts ``None`` in
    its payload in its place, and every merge takes the kept shard for
    it; when every worker did, the merge stages ``container`` as it is.
    The container is a function of the shards alone: a kept shard holds
    no provisional id, since the merge that kept it rewrote them, and its
    endpoints were checked then, and an allocated slot stays allocated.
    """

    shards: list
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
    """Run ``fn`` over this worker's agents; return its write shard."""
    schema = sim.schema
    batch = rt.spec.batch
    sink = ViolationSink(rt.mode, sim.step)
    read = {name: sim._edges[etag] for name, etag in rt.readable_edges.items()}
    writers = {}
    for etag in rt.written_edge:
        info = schema.edge_types[etag]
        writers[info.name] = (step_shard(info, rt.check_single_edge), info)
    args = (sim.params, rt.globals)
    tasks = _agent_tasks(sim, rt, partition, worker, nworkers)
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
            ret = fn(AgentBatch(sim, rt, read, writers, sink, tag, seg, slots, runs), *args)
            return (slots, ret) if ret is not None else (slots[:0], None)
    else:
        view = NeighborhoodView(sim, rt, read, writers, sink, worker)
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
            if len(cols) != len(info.field_names):
                raise UsageError(
                    f"agent type {info.name!r} takes {len(info.field_names)} "
                    f"state fields, got {len(cols)}"
                )
            arrays = cast_columns(info, cols)
            for name, arr in zip(info.field_names, arrays):
                if arr.shape != done.shape:
                    raise UsageError(
                        f"field {name!r} of agent type {info.name!r}: expected "
                        f"{done.size} values, got an array of shape {arr.shape}"
                    )
            returned.setdefault(tag, []).append((done, arrays))

    agents = {}
    for tag, runs in returned.items():
        slots, cols = zip(*runs)
        agents[tag] = (np.concatenate(slots), [np.concatenate(c) for c in zip(*cols)])
    births = {}
    for tag, (ids, producers, states) in ({} if batch else view._births).items():
        births[tag] = (np.array(ids, dtype=np.uint64), np.array(producers, dtype=np.uint64),
                       cast_columns(schema.agent_types[tag], list(zip(*states))))
    edges = {}
    for shard, info in writers.values():
        kept = sim._kept.get(info.tag) if info.tag in rt.reusable else None
        same = (kept is not None and len(kept.shards) == nworkers
                and same_edges(shard, kept.shards[worker]))
        edges[info.tag] = None if same else shard  # None: the kept shard
    return {
        "agents": agents,
        "births": births,
        "edges": edges,
        "reports": sink.reports,
    }


def step_shard(info, check_single_edge: bool):
    """A worker's write shard of an edge type in a transition. It records
    each edge's producer, which the merge of a list plan orders by; the
    merge of EXISTENCE_BIT, a union of bits, reads producers only for its
    SINGLE_EDGE reports."""
    return ListShard(info, check_single_edge or info.plan is not EdgePlan.EXISTENCE_BIT)


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
    chunk."""
    bounds = [(name, *c.bounds(tag, _task_span(slots)), c) for name, c in lists]
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
    sink = ViolationSink(rt.mode, sim.step)
    reports = []
    for p in payloads:
        reports.extend(p["reports"])

    staged_segments = {}
    provisional, final = [], []
    deaths_occurred = False
    for tag, kept in rt.written_agent.items():
        info = schema.agent_types[tag]
        old = sim._segments[tag]
        buffers = old.buffers()
        if not kept:  # all dead, zero-filled so unwritten slots hash alike
            buffers = {name: b if name in ("count", "free") else np.zeros_like(b)
                       for name, b in buffers.items()}
        seg = AgentSegment.from_buffers(info, buffers)

        n_returned = 0
        for p in payloads:
            if tag in p["agents"]:
                slots, columns = p["agents"][tag]
                n_returned += slots.size
                _write_agents(info, seg, slots, columns)
        if info.immortal and not kept and tag in rt.callable_tags:
            if n_returned != old.n_alive:
                raise UsageError(
                    f"immortal agent type {info.name!r}: {n_returned} of "
                    f"{old.n_alive} agents returned a state"
                )

        births = [p["births"][tag] for p in payloads if tag in p["births"]]
        if births:
            ids, slots = _place_births(info, seg, births)
            provisional.append(ids)
            final.append(slot_ids(tag, slots))

        if seg.alive is not None and not kept:
            limit = old.count
            freed = np.flatnonzero(old.alive[:limit] & ~seg.alive[:limit])
            if freed.size:
                deaths_occurred = True
                seg.free.extend(freed.tolist())
        staged_segments[tag] = seg

    segments = [staged_segments.get(tag, seg) for tag, seg in enumerate(sim._segments)]
    if provisional:
        old_ids, new_ids = np.concatenate(provisional), np.concatenate(final)
        order = np.argsort(old_ids)
        old_ids, new_ids = old_ids[order], new_ids[order]
    staged_edges, merges, reused = {}, {}, 0
    for etag, kept in rt.written_edge.items():
        info = schema.edge_types[etag]
        shards = [p["edges"][etag] for p in payloads]
        fresh = [shard for shard in shards if shard is not None]
        if fresh:
            if len(fresh) < len(shards):
                shards = [sim._kept[etag].shards[w] if shard is None else shard
                          for w, shard in enumerate(shards)]
            if provisional:
                rewrite_ids(fresh, old_ids, new_ids)
            validate_endpoints(info, fresh, lambda ids: sim._lookup(ids, segments=segments))
            container = build_read_container(
                info, shards, sim._edges[etag] if kept else None, sink,
                rt.check_single_edge,
            )
        else:  # every worker's shard is its kept one
            shards, container = sim._kept[etag]
            reused += 1
        staged_edges[etag] = container
        if etag in rt.reusable:
            merges[etag] = KeptMerge(shards, container)
    reports.extend(sink.reports)

    sim._staged = StagedCommit(
        segments=staged_segments,
        edges=staged_edges,
        merges=merges,
        deaths_occurred=deaths_occurred,
        reports=reports,
        reused=reused,
    )


def _write_agents(info: AgentTypeInfo, seg: AgentSegment, slots, columns) -> None:
    """Write agents' state columns into ``slots`` of ``seg`` and mark them
    alive."""
    for name, values in zip(info.field_names, columns):
        seg.fields[name][slots] = values
    if seg.alive is not None:
        seg.alive[slots] = True


def _place_births(info: AgentTypeInfo, seg: AgentSegment, births: list):
    """Give the newborns of a type slots in ``seg``. ``births`` holds each
    worker's ``(provisional ids, producers, columns)``, in worker order; a
    producer runs once, on one worker, so a stable sort by producer orders
    them by producing agent and each producer's in call order. In that
    order each takes a slot as :meth:`AgentSegment.allocate` gives it:
    the free list's last, else a fresh one. Returns their provisional ids
    and their slots, aligned."""
    ids, producers, columns = zip(*births)
    order = np.argsort(np.concatenate(producers), kind="stable")
    slots = np.array([seg.allocate() for _ in range(order.size)], dtype=np.int64)
    _write_agents(info, seg, slots, [np.concatenate(c)[order] for c in zip(*columns)])
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
    ``spec`` is resolved against the schema once per ``(spec,
    sim.checks)`` and kept on the simulation, on the control and on every
    worker alike (:func:`runtime_spec`).
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

            commit = commit_message(spec, payloads)
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
    container (:class:`KeptMerge`). With ``workers > 1``
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
            })
            if on_step is not None:
                on_step(sim)
    finally:
        sim._pool = None
        if pool is not None:
            pool.close()
