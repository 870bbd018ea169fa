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
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .checks import ViolationSink
from .errors import TypeNotWritable, UsageError
from .ids import TAG_SHIFT
from .schema import AgentTypeInfo, EdgePlan
from .sim import Simulation
from .storage import (
    AgentSegment,
    ListShard,
    build_read_container,
    cast_columns,
    drop_dead_edges,
    rewrite_ids,
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
        "all_agents_readable", "written_agent", "written_edge",
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
        self.globals = None  # snapshot installed by apply_transition


@dataclass
class StagedCommit:
    segments: dict            # tag -> AgentSegment replacements
    edges: dict               # etag -> read container replacements
    deaths_occurred: bool
    reports: list


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
    if batch:
        lists = [c for c in read.values() if c.plan is not EdgePlan.EXISTENCE_BIT]

        def call(tag, seg, slots):
            ret = fn(AgentBatch(sim, rt, read, writers, sink, tag, seg, slots), *args)
            return (slots, ret) if ret is not None else (slots[:0], None)
    else:
        view = NeighborhoodView(sim, rt, read, writers, sink, worker)

        def call(tag, seg, slots):
            return view._call_each(fn, tag, seg, slots, *args)

    tasks = _agent_tasks(sim, rt, partition, worker, nworkers)
    if shuffle is not None:
        flat = [(tag, slot) for tag, slots in tasks for slot in slots.tolist()]
        shuffle.shuffle(flat)
        tasks = [(tag, np.array([slot])) for tag, slot in flat]

    returned: dict = {}  # tag -> [(slots, columns)] of re-added agents
    for tag, slots in tasks:
        info = schema.agent_types[tag]
        seg = sim._segments[tag]
        writes_self = tag in rt.written_agent
        kept = rt.written_agent.get(tag, False)
        # a batch re-adds every agent of a type it writes; a per-agent call
        # may drop its agent unless the type is immortal
        must_return = writes_self and not kept and (batch or info.immortal)
        chunks = (slots,)
        if batch:
            edges = np.zeros(slots.size, dtype=np.int64)
            for c in lists:
                starts, ends = c.bounds(tag, slots)
                edges += ends - starts
            chunks = _chunks(slots, edges, BATCH_EDGE_LIMIT)
        for chunk in chunks:
            done, cols = call(tag, seg, chunk)
            if must_return and done.size < chunk.size:
                slot = np.setdiff1d(chunk, done)[0]
                raise UsageError(
                    f"agent {(tag << TAG_SHIFT) | int(slot):#x} of type "
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
    return {
        "agents": agents,
        "births": births,
        "edges": {info.tag: shard for shard, info in writers.values()},
        "reports": sink.reports,
    }


def step_shard(info, check_single_edge: bool):
    """A worker's write shard of an edge type in a transition. It records
    each edge's producer, which the merge of a list plan orders by; the
    merge of EXISTENCE_BIT, a union of bits, reads producers only for its
    SINGLE_EDGE reports."""
    return ListShard(info, check_single_edge or info.plan is not EdgePlan.EXISTENCE_BIT)


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
    """(tag, slot array) work items in ascending agent-id order."""
    tasks = []
    for tag in rt.callable_tags:
        slots = sim._segments[tag].alive_slots()
        if nworkers > 1:
            slots = slots[partition.worker_for_slots(tag, slots) == worker]
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
            final.append(np.uint64(tag << TAG_SHIFT) + slots.astype(np.uint64))

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
    staged_edges = {}
    for etag, kept in rt.written_edge.items():
        info = schema.edge_types[etag]
        shards = [p["edges"][etag] for p in payloads]
        if provisional:
            rewrite_ids(shards, old_ids, new_ids)
        validate_endpoints(info, shards, lambda ids: sim._lookup(ids, segments=segments))
        staged_edges[etag] = build_read_container(
            info, shards, sim._edges[etag] if kept else None, sink,
            rt.check_single_edge,
        )
    reports.extend(sink.reports)

    sim._staged = StagedCommit(
        segments=staged_segments,
        edges=staged_edges,
        deaths_occurred=deaths_occurred,
        reports=reports,
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
    """
    if sim._staged is not None:
        raise UsageError("previous transition not finalized")
    if sim._in_transition:
        raise UsageError("transition already in flight")
    sim.commit_initial()
    sim._params_frozen = True
    rt = RuntimeSpec(sim, spec)
    rt.globals = sim.globals_snapshot()
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
    source death and deliberately retain such edges. :func:`run`'s
    workers make the same commit on their own, from the payloads
    :func:`apply_transition` sent them.
    """
    staged = sim._staged
    if staged is None:
        raise UsageError("no transition staged; call apply_transition first")
    for tag, seg in staged.segments.items():
        sim._segments[tag] = seg
    for etag, container in staged.edges.items():
        sim._edges[etag] = container
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
    thread between transitions, e.g. globals updates). Per-step wall time
    lands in ``sim.step_metrics``. With ``workers > 1`` the workers are
    forked once, after partitioning, and ended before ``run`` returns or
    raises (see :mod:`graphabm.parallel`).
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
            for kind, a, b in items:
                if kind == "t":
                    apply_transition(sim, a, b, workers=workers, partition=partition)
                    finalize_step(sim)
                else:
                    a(sim)
            sim.step_metrics.append(
                {"step_index": index, "wall_ms": (time.perf_counter() - t0) * 1e3}
            )
            if on_step is not None:
                on_step(sim)
    finally:
        sim._pool = None
        if pool is not None:
            pool.close()
