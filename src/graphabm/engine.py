"""Synchronous transition execution.

``apply_transition`` runs one transition function over every alive agent of
the callable types, always against the time-t read buffers, and stages the
constructed t+1 graph. ``finalize_step`` sweeps edges with dead endpoints,
swaps buffers, and advances the step counter. ``run`` drives a per-step
program of transitions and globals updates.

A transition function has the signature ``fn(view, params, globals) ->
state | None``. Returning a state tuple re-adds the executing agent with
that state; returning None drops it (for mortal, written, non-retained
types) or is a no-op otherwise. Additional agents and edges are created
through the view. Because every function sees only time-t data and write
effects are merged by producing-agent id, the outcome is independent of
the order in which agents execute and of the worker count.

A batch transition (``TransitionSpec(batch=True)``) has the signature
``fn(batch, params, globals) -> columns`` and runs once per chunk of a
worker's agents instead of once per agent. The :class:`~graphabm.view.AgentBatch`
gathers every agent's neighbourhood at once over the read containers' CSR
index; ``columns`` holds one array per state field, aligned with
``batch.slots``. A chunk holds whole agents of one type and partition and
at most ``BATCH_EDGE_LIMIT`` incoming edges (an agent with more gets a
chunk of its own). A batch may write edge types, through
``batch.add_edges``, and agent types it calls, re-adding every agent it
runs of those; for a callable type it does not write it returns None. Both
forms share the task list, the payload format, the write shards and the
merge, so results do not depend on which form or chunking produced them as
long as each agent's values, edges and draws are computed from its own
segment of the gathered arrays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .checks import ViolationSink
from .errors import TypeNotWritable, UsageError
from .ids import PART_BITS
from .schema import AgentTypeInfo, EdgePlan
from .sim import Simulation
from .storage import (
    AgentSegment,
    build_read_container,
    cast_columns,
    make_checked_adder,
    make_shard,
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
    segments: dict            # tag -> {part: AgentSegment} replacements
    edges: dict               # etag -> read container replacements
    deaths_occurred: bool
    reports: list


# ---------------------------------------------------------------------------
# Worker-side execution
# ---------------------------------------------------------------------------


def _run_shard(sim, fn, rt: RuntimeSpec, partition, worker: int, nworkers: int,
               shuffle=None) -> dict:
    """Run ``fn`` over this worker's agents; return its write shard."""
    sink = ViolationSink(rt.mode, sim.step)
    read_containers = {
        name: sim._edges[etag] for name, etag in rt.readable_edges.items()
    }
    tasks = _agent_tasks(sim, rt, partition, worker, nworkers)
    if rt.spec.batch:
        agents, shards = _run_batches(sim, fn, rt, read_containers, tasks, shuffle, sink)
        new = {}
    else:
        agents, new, shards = _run_agents(
            sim, fn, rt, read_containers, tasks, shuffle, sink, worker
        )
    return {
        "worker": worker,
        "agents": agents,
        "new": new,
        "edges": shards,
        "reports": sink.reports,
    }


def _run_agents(sim, fn, rt, read_containers, tasks, shuffle, sink, worker):
    """The per-agent path: one ``fn(view, ...)`` call per agent."""
    schema = sim.schema
    shards = {}
    writers = {}
    for etag, _keep in rt.written_edge.items():
        info = schema.edge_types[etag]
        shard = shards[etag] = step_shard(info, rt.check_single_edge)
        adder = make_checked_adder(shard, info, sink, rt.check_single_type)
        writers[info.name] = (adder, info)

    view = NeighborhoodView(sim, rt, read_containers, writers, worker)
    params = sim.params
    glob = rt.globals

    # (tag, part) -> ([slots], [state tuples]) of agents re-added by their own fn
    returns: dict = {}

    tasks = [(tag, part, slots.tolist()) for tag, part, slots in tasks]
    if shuffle is not None:
        flat = [(tag, part, slot) for tag, part, slots in tasks for slot in slots]
        shuffle.shuffle(flat)
        tasks = [(tag, part, [slot]) for tag, part, slot in flat]

    for tag, part, slots in tasks:
        info = schema.agent_types[tag]
        seg = sim._segments[tag][part]
        writes_self = tag in rt.written_agent
        kept = rt.written_agent.get(tag, False)
        if writes_self and not kept:
            rec = returns.setdefault((tag, part), ([], []))
        view._bind_segment(tag, part, seg)
        base = (tag << 56) | (part << 36)
        for slot in slots:
            view._set_agent(slot, base | slot)
            ret = fn(view, params, glob)
            if ret is None:
                if writes_self and not kept and info.immortal:
                    raise UsageError(
                        f"immortal agent {base | slot:#x} must return a state"
                    )
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
            if len(ret) != len(info.field_names):
                raise UsageError(
                    f"agent type {info.name!r} takes {len(info.field_names)} "
                    f"state fields, got {len(ret)}"
                )
            rec[0].append(slot)
            rec[1].append(ret)

    agents = {
        (tag, part): _state_payload(
            schema.agent_types[tag], slots,
            list(zip(*rets)) if rets else None,
        )
        for (tag, part), (slots, rets) in returns.items()
    }

    new = {}
    for tag, alloc in view._alloc.items():
        slots, states = alloc[2], alloc[3]
        new[tag] = _state_payload(
            schema.agent_types[tag], slots,
            list(zip(*states)) if states else None,
        )
        new[tag]["n_popped"] = alloc[4] - len(alloc[1])
    return agents, new, shards


def _run_batches(sim, fn, rt, read_containers, tasks, shuffle, sink):
    """The batch path: one ``fn(batch, ...)`` call per chunk of agents."""
    schema = sim.schema
    params = sim.params
    glob = rt.globals
    lists = [c for c in read_containers.values() if c.plan is not EdgePlan.EXISTENCE_BIT]
    shards = {
        etag: step_shard(schema.edge_types[etag], rt.check_single_edge)
        for etag in rt.written_edge
    }
    writers = {schema.edge_types[etag].name: (shard, schema.edge_types[etag])
               for etag, shard in shards.items()}
    out = {}
    for tag, part, slots in tasks:
        info = schema.agent_types[tag]
        seg = sim._segments[tag][part]
        writes_self = tag in rt.written_agent
        if shuffle is not None:
            slots = shuffle.permutation(slots)
        comp = (tag << PART_BITS) | part
        edges = np.zeros(slots.size, dtype=np.int64)
        for c in lists:
            starts, ends = c.bounds(comp, slots)
            edges += ends - starts
        done, cols = [], []
        for chunk in _chunks(slots, edges, BATCH_EDGE_LIMIT):
            batch = AgentBatch(sim, rt, read_containers, writers, sink,
                               tag, part, seg, chunk)
            ret = fn(batch, params, glob)
            if not writes_self:
                if ret is not None:
                    raise TypeNotWritable(
                        f"agent type {info.name!r} is not in this transition's "
                        "write set but its function returned states"
                    )
                continue
            if ret is None or len(ret) != len(info.field_names):
                got = "None" if ret is None else f"{len(ret)} arrays"
                raise UsageError(
                    f"agent type {info.name!r} takes {len(info.field_names)} "
                    f"state fields, one array each; got {got}"
                )
            arrays = cast_columns(info, ret)
            for name, arr in zip(info.field_names, arrays):
                if arr.shape != chunk.shape:
                    raise UsageError(
                        f"field {name!r} of agent type {info.name!r}: expected "
                        f"{chunk.size} values, got an array of shape {arr.shape}"
                    )
            done.append(chunk)
            cols.append(arrays)
        if writes_self:
            out[(tag, part)] = _state_payload(
                info, np.concatenate(done), [np.concatenate(c) for c in zip(*cols)]
            )
    return out, shards


def step_shard(info, check_single_edge: bool):
    """A worker's write shard of an edge type in a transition. It records
    each edge's producer, which the merge of a list plan orders by; the
    merge of EXISTENCE_BIT, a union of bits, reads producers only for its
    SINGLE_EDGE reports."""
    return make_shard(info, check_single_edge or info.plan is not EdgePlan.EXISTENCE_BIT)


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


def _state_payload(info: AgentTypeInfo, slots, cols) -> dict:
    """Slots and per-field columns cast to the declared dtypes."""
    if cols is None:
        cols = [[] for _ in info.field_names]
    return {
        "slots": np.asarray(slots, dtype=np.int64),
        "fields": dict(zip(info.field_names, cast_columns(info, cols))),
    }


def _agent_tasks(sim, rt, partition, worker, nworkers):
    """(tag, part, slot array) work items in ascending agent-id order."""
    tasks = []
    for tag in rt.callable_tags:
        for part in sorted(sim._segments[tag]):
            seg = sim._segments[tag][part]
            slots = seg.alive_slots()
            if nworkers > 1:
                owners = partition.worker_for_slots(tag, part, slots)
                slots = slots[owners == worker]
            if slots.size:
                tasks.append((tag, part, slots))
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
    deaths_occurred = False
    for tag, kept in rt.written_agent.items():
        info = schema.agent_types[tag]
        old_parts = sim._segments[tag]
        new_parts = {}
        for part, old in old_parts.items():
            if kept:
                new_parts[part] = old.clone()
            else:
                new_parts[part] = _fresh_like(info, old)

        n_returned = 0
        for p in payloads:
            for (rtag, part), rec in p["agents"].items():
                if rtag != tag:
                    continue
                seg = new_parts[part]
                slots = rec["slots"]
                n_returned += slots.size
                for name, vals in rec["fields"].items():
                    seg.fields[name][slots] = vals
                if seg.alive is not None:
                    seg.alive[slots] = True
        if info.immortal and not kept and tag in rt.callable_tags:
            expected = sum(seg.n_alive for seg in old_parts.values())
            if n_returned != expected:
                raise UsageError(
                    f"immortal agent type {info.name!r}: {n_returned} of "
                    f"{expected} agents returned a state"
                )

        for p in payloads:
            rec = p["new"].get(tag)
            if rec is None or not rec["slots"].size:
                continue
            part = p["worker"]
            seg = new_parts.get(part)
            if seg is None:
                seg = new_parts[part] = AgentSegment(info)
            if rec["n_popped"]:
                del seg.free[-rec["n_popped"]:]
            slots = rec["slots"]
            top = int(slots.max()) + 1
            seg.ensure_capacity(top)
            seg.count = max(seg.count, top)
            for name, vals in rec["fields"].items():
                seg.fields[name][slots] = vals
            if seg.alive is not None:
                seg.alive[slots] = True

        for part, seg in new_parts.items():
            old = old_parts.get(part)
            if old is None or seg.alive is None or kept:
                continue
            limit = old.count
            freed = np.flatnonzero(old.alive[:limit] & ~seg.alive[:limit])
            if freed.size:
                deaths_occurred = True
                seg.free.extend(freed.tolist())
        staged_segments[tag] = new_parts

    segments = [staged_segments.get(tag, parts) for tag, parts in enumerate(sim._segments)]

    def exists_fn(ids):
        return sim._grouped_lookup(ids, sim._allocated, segments)

    staged_edges = {}
    for etag, kept in rt.written_edge.items():
        info = schema.edge_types[etag]
        shards = [p["edges"][etag] for p in payloads]
        validate_endpoints(info, shards, exists_fn)
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


def _fresh_like(info: AgentTypeInfo, old: AgentSegment) -> AgentSegment:
    """An all-dead segment with the same slot space as ``old``.

    Zero-filled so that never-written slots hash identically across runs.
    """
    seg = AgentSegment(info)
    seg.count = old.count
    seg.fields = {
        name: np.zeros(old.count, dtype=dt)
        for name, dt in zip(info.field_names, info.dtypes)
    }
    if not info.immortal:
        seg.alive = np.zeros(old.count, dtype=bool)
    seg.free = list(old.free)
    return seg


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def apply_transition(sim: Simulation, fn, spec: TransitionSpec, *,
                     workers: int = 1, partition=None, shuffle=None) -> None:
    """Run one synchronous transition and stage the constructed graph.

    Every alive agent of the callable types executes ``fn`` exactly once
    against time-t data. Call :func:`finalize_step` to commit. ``shuffle``
    (a numpy Generator) randomizes agent execution order; results must not
    depend on it. With ``workers > 1`` the transition runs on the workers
    of :func:`run` when it is one of its program's, else on workers forked
    for this call and ended before it returns or raises.
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
    sim._in_transition = True
    try:
        if pool is None:
            payloads = [_run_shard(sim, fn, rt, partition, 0, 1, shuffle=shuffle)]
        else:
            from .parallel import fork_payloads

            payloads = fork_payloads(pool, index, rt)
        _merge_and_stage(sim, rt, payloads)
    except BaseException:
        sim._in_transition = False
        sim._staged = None
        raise
    finally:
        if own is not None:
            own.close()


def finalize_step(sim: Simulation) -> None:
    """Commit the staged graph: sweep dangling edges, swap buffers.

    Edges whose target slot died are dropped, as are edges whose stored
    source died. Edge types that do not store the source cannot see a
    source death and deliberately retain such edges. While :func:`run`'s
    workers are up, the commit is then sent to them to make as well.
    """
    staged = sim._staged
    if staged is None:
        raise UsageError("no transition staged; call apply_transition first")
    for tag, parts in staged.segments.items():
        sim._segments[tag] = parts
    for etag, container in staged.edges.items():
        sim._edges[etag] = container
    if staged.deaths_occurred:
        sim._edges = [c.filtered(sim._alive_lookup) for c in sim._edges]
    sim.check_reports.extend(staged.reports)
    sim.step += 1
    sim._staged = None
    sim._in_transition = False
    if sim._pool is not None:
        sim._pool.sync(staged)


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
