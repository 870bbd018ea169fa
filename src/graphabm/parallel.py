"""Partitioned multi-worker execution.

Agents are assigned to W workers by a partition strategy. The executor is
a resident pool (:class:`WorkerPool`): ``engine.run`` forks workers
1..W-1 once, after partitioning, and the control process is worker 0; a
one-off ``apply_transition`` gets a pool that lives for that call alone.
The fork hands every worker the simulation, the program's transitions and
the partition, so none of them crosses a pipe.

Per transition, the control sends each worker the transition's index in
the program and the globals snapshot. Every worker runs the transition
over its own agents against its copy of the time-t state (which doubles
as the ghost copies of remote agents) and sends back its write shard; the
control merges the shards in producing-agent order, so results are
bit-identical to a single-worker run. After the commit, the control
pickles the written agent segments, the written edge containers and
whether any agent died, once, and sends the same bytes to every worker,
which commits them as the control did, dead-endpoint sweep included.

A worker's exception reaches the control with its own type. A worker that
dies without a result raises :class:`~graphabm.errors.WorkerError` with
its id and exit code as soon as its process handle shows it ended. The
pool is closed on every exit from ``run`` and from a one-off
``apply_transition``: idle workers leave when their pipe closes, busy
ones are killed, and all are joined.

Partition strategies:

- ``contiguous``: blocks of consecutive agent ids, sizes differing by <= 1.
- ``round_robin``: agent rank modulo W.
- ``greedy_edge_cut``: greedily grown balanced blocks seeded at the
  highest-degree unassigned vertex; the frontier prefers the vertex with
  the most edges into the growing block, which keeps tightly knit
  subgraphs (e.g. cliques) whole.
"""

from __future__ import annotations

import heapq
import io
import multiprocessing as mp
import os
import pickle
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from multiprocessing.reduction import ForkingPickler

import numpy as np

from . import engine
from .errors import UsageError, WorkerError
from .ids import COMP_SHIFT, PART_BITS, PART_MASK, group_by_comp
from .schema import AgentTypeInfo, EdgeTypeInfo

_U64 = np.uint64

STRATEGIES = ("contiguous", "round_robin", "greedy_edge_cut")


@dataclass
class Partition:
    """An assignment of every alive agent to one of ``workers`` workers."""

    workers: int
    strategy: str
    maps: dict = field(default_factory=dict)  # (tag, part) -> int32 per slot
    sizes: np.ndarray | None = None

    def worker_for_slots(self, tag: int, part: int, slots: np.ndarray) -> np.ndarray:
        """Owners of the given slots; agents created after partitioning are
        owned by their creating worker (the partition field of their id)."""
        m = self.maps.get((tag, part))
        default = part % self.workers
        if m is None:
            return np.full(len(slots), default, dtype=np.int32)
        slots = np.asarray(slots)
        out = np.full(slots.shape, default, dtype=np.int32)
        in_range = slots < m.size
        out[in_range] = m[slots[in_range]]
        return out

    def worker_for_ids(self, ids: np.ndarray) -> np.ndarray:
        out = np.empty(ids.size, dtype=np.int32)
        for comp, sel, slots in group_by_comp(ids):
            out[sel] = self.worker_for_slots(comp >> PART_BITS, comp & PART_MASK, slots)
        return out


def _alive_id_blocks(sim):
    """Per-(tag, part) alive slots, in ascending agent-id order."""
    blocks = []
    for tag, parts in enumerate(sim._segments):
        for part in sorted(parts):
            seg = parts[part]
            slots = seg.alive_slots()
            if slots.size:
                blocks.append((tag, part, seg, slots))
    return blocks


def partition_graph(sim, workers: int, strategy: str = "contiguous") -> Partition:
    """Assign every alive agent to a worker."""
    if workers < 1:
        raise UsageError("worker count must be >= 1")
    if strategy not in STRATEGIES:
        raise UsageError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    sim.commit_initial()
    blocks = _alive_id_blocks(sim)
    total = sum(slots.size for _, _, _, slots in blocks)
    part_obj = Partition(workers=workers, strategy=strategy)
    if total == 0:
        part_obj.sizes = np.zeros(workers, dtype=np.int64)
        return part_obj

    if strategy == "greedy_edge_cut":
        assignment = _greedy_assignment(sim, blocks, total, workers)
    else:
        ranks = np.arange(total, dtype=np.int64)
        if strategy == "round_robin":
            assignment = (ranks % workers).astype(np.int32)
        else:
            # contiguous: first (total % workers) blocks get the extra agent
            bounds = np.cumsum(
                [len(c) for c in np.array_split(ranks, workers)]
            )
            assignment = np.searchsorted(bounds, ranks, side="right").astype(np.int32)

    offset = 0
    for tag, part, seg, slots in blocks:
        m = part_obj.maps.get((tag, part))
        if m is None:
            m = part_obj.maps[(tag, part)] = np.full(
                seg.count, part % workers, dtype=np.int32
            )
        m[slots] = assignment[offset: offset + slots.size]
        offset += slots.size
    part_obj.sizes = np.bincount(assignment, minlength=workers).astype(np.int64)
    return part_obj


def _greedy_assignment(sim, blocks, total, workers) -> np.ndarray:
    """Greedy graph-growing partition over the stored-source edge graph."""
    # Compact rank space over alive agents, ascending by id.
    id_blocks = []
    for tag, part, _seg, slots in blocks:
        base = (tag << 56) | (part << COMP_SHIFT)
        id_blocks.append(_U64(base) + slots.astype(_U64))
    all_ids = np.concatenate(id_blocks)
    rank_of = {int(a): r for r, a in enumerate(all_ids.tolist())}

    neighbors: list[list[int]] = [[] for _ in range(total)]
    for container in sim._edges:
        endpoints = container.edge_endpoints()
        if endpoints is None:
            continue
        targets, sources = endpoints
        for t, s in zip(targets.tolist(), sources.tolist()):
            if t == s:
                continue  # self-loops never cross a boundary
            rt_, rs = rank_of.get(t), rank_of.get(s)
            if rt_ is None or rs is None:
                continue
            neighbors[rt_].append(rs)
            neighbors[rs].append(rt_)

    degree = np.array([len(n) for n in neighbors], dtype=np.int64)
    targets_sizes = [len(c) for c in np.array_split(np.arange(total), workers)]
    assignment = np.full(total, -1, dtype=np.int32)

    for w in range(workers):
        budget = targets_sizes[w]
        if budget == 0:
            continue
        unassigned = np.flatnonzero(assignment < 0)
        seed = int(unassigned[np.lexsort((unassigned, -degree[unassigned]))[0]])
        assignment[seed] = w
        budget -= 1
        gain = {}
        heap = []
        for nb in neighbors[seed]:
            if assignment[nb] < 0:
                gain[nb] = gain.get(nb, 0) + 1
        for node, g in gain.items():
            heapq.heappush(heap, (-g, node, g))
        while budget > 0:
            node = -1
            while heap:
                neg_g, cand, g = heapq.heappop(heap)
                if assignment[cand] < 0 and gain.get(cand) == g:
                    node = cand
                    break
            if node < 0:
                rest = np.flatnonzero(assignment < 0)
                node = int(rest[np.lexsort((rest, -degree[rest]))[0]])
            assignment[node] = w
            gain.pop(node, None)
            budget -= 1
            for nb in neighbors[node]:
                if assignment[nb] < 0:
                    g = gain.get(nb, 0) + 1
                    gain[nb] = g
                    heapq.heappush(heap, (-g, nb, g))
    return assignment


# ---------------------------------------------------------------------------
# Cut metrics and ghost tables
# ---------------------------------------------------------------------------


def _stored_source_endpoints(sim):
    for info, container in zip(sim.schema.edge_types, sim._edges):
        endpoints = container.edge_endpoints()
        if endpoints is not None:
            yield info, endpoints


def cut_fraction(sim, partition: Partition) -> float:
    """Fraction of stored-source edges whose endpoints live on different
    workers. Edge types that drop the source id cannot be counted."""
    cut = 0
    total = 0
    for _info, (targets, sources) in _stored_source_endpoints(sim):
        total += targets.size
        cut += int(
            np.count_nonzero(
                partition.worker_for_ids(targets) != partition.worker_for_ids(sources)
            )
        )
    return cut / total if total else 0.0


def cut_edge_counts(sim, partition: Partition) -> dict[tuple[int, int], int]:
    """Directed cut-edge counts per ordered (source worker, target worker)."""
    counts: dict[tuple[int, int], int] = {}
    for _info, (targets, sources) in _stored_source_endpoints(sim):
        wt = partition.worker_for_ids(targets)
        ws = partition.worker_for_ids(sources)
        crossing = ws != wt
        for a, b in zip(ws[crossing].tolist(), wt[crossing].tolist()):
            counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def ghost_table(sim, partition: Partition) -> dict[int, np.ndarray]:
    """Remote source agents each worker needs read access to.

    Covers exactly the sources of local incoming edges of edge types that
    allow reading source state (neither IGNORE_FROM nor
    IGNORE_SOURCE_STATE).
    """
    needed: dict[int, list] = {w: [] for w in range(partition.workers)}
    for info, (targets, sources) in _stored_source_endpoints(sim):
        if not info.source_state_readable:
            continue
        wt = partition.worker_for_ids(targets)
        ws = partition.worker_for_ids(sources)
        crossing = ws != wt
        for w in range(partition.workers):
            sel = crossing & (wt == w)
            if sel.any():
                needed[w].append(sources[sel])
    return {
        w: (np.unique(np.concatenate(v)) if v else np.empty(0, dtype=_U64))
        for w, v in needed.items()
    }


def ghost_state_bytes(sim, partition: Partition) -> int:
    """Bytes of agent state that would cross worker boundaries per step."""
    total = 0
    for w, ids in ghost_table(sim, partition).items():
        for aid in ids.tolist():
            tag = aid >> (PART_BITS + COMP_SHIFT)
            info = sim.schema.agent_types[tag]
            total += sum(dt.itemsize for dt in info.dtypes)
    return total


# ---------------------------------------------------------------------------
# Resident worker pool
# ---------------------------------------------------------------------------


class _SchemaPickler(ForkingPickler):
    """Pickles the schema's type records as their tags. Every worker holds
    the same schema, and a record's declaration may name a class that
    does not pickle, such as an IntEnum defined in a function."""

    def persistent_id(self, obj):
        if isinstance(obj, (AgentTypeInfo, EdgeTypeInfo)):
            return isinstance(obj, EdgeTypeInfo), obj.tag
        return None


class _SchemaUnpickler(pickle.Unpickler):
    def __init__(self, data, schema):
        super().__init__(io.BytesIO(data))
        self.schema = schema

    def persistent_load(self, pid):
        is_edge, tag = pid
        return (self.schema.edge_types if is_edge else self.schema.agent_types)[tag]


class WorkerPool:
    """Workers 1..W-1 of a partition, forked once and resident until
    :meth:`close`; worker 0 is the control process.

    Each child inherits the simulation, the program's transitions
    (``items``, a list of ``(fn, spec)``) and the partition by fork, and
    serves requests from its end of a duplex pipe until the control closes
    it. Construct it after ``commit_initial``: the children's copy of the
    graph is the control's at the fork, and every commit after it reaches
    them through :meth:`sync`.
    """

    def __init__(self, sim, items: list, partition: Partition, workers: int):
        if os.name != "posix":
            raise UsageError("multi-worker execution requires fork (POSIX)")
        ctx = mp.get_context("fork")
        self.sim = sim
        self.items = items
        self.partition = partition
        self.workers = workers
        self.conns: list = []
        self.procs: list = []
        self.busy = False  # a transition is out and not all payloads are back
        try:
            for w in range(1, self.workers):
                mine, theirs = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(theirs, [*self.conns, mine], sim, items, partition, w, workers),
                    daemon=True,
                )
                proc.start()
                theirs.close()
                self.conns.append(mine)
                self.procs.append(proc)
        except BaseException:
            self.close()
            raise

    def index(self, fn, spec) -> int | None:
        """The position of the transition ``(fn, spec)`` in ``items``."""
        for i, (f, s) in enumerate(self.items):
            if f is fn and s is spec:
                return i
        return None

    def _broadcast(self, message) -> None:
        """Pickle ``message`` once and send the same bytes to every worker."""
        try:
            blob = _SchemaPickler.dumps(message, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # only the globals come from the model
            raise UsageError(f"globals must pickle to reach the workers: {exc}") from exc
        for w, conn in enumerate(self.conns, start=1):
            try:
                conn.send_bytes(blob)
            except OSError:
                self._reply(w)  # the worker has gone: raise what ended it
                raise

    def _reply(self, w: int):
        """Worker ``w``'s next payload. Its exception is re-raised; if it
        ended without one, :class:`WorkerError` gives its exit code."""
        conn, proc = self.conns[w - 1], self.procs[w - 1]
        try:
            status, value = conn.recv()
        except (EOFError, OSError):
            proc.join()
            raise WorkerError(w, proc.exitcode) from None
        if status != "ok":
            raise value
        return value

    def gather(self) -> list:
        """Payloads of workers 1..W-1, in worker order, each taken as it
        arrives: waiting on every worker's pipe and process handle
        together reports a worker that dies at once, whichever it is."""
        payloads = [None] * len(self.conns)
        pending = set(range(1, self.workers))
        while pending:
            handles = {h: w for w in pending
                       for h in (self.conns[w - 1], self.procs[w - 1].sentinel)}
            for h in wait(list(handles)):
                w = handles[h]
                if w in pending:
                    pending.discard(w)
                    payloads[w - 1] = self._reply(w)
        self.busy = False
        return payloads

    def sync(self, staged) -> None:
        """Send a committed transition's written segments and edge
        containers to every worker, which commits them as the control did."""
        self._broadcast(("sync", staged.segments, staged.edges, staged.deaths_occurred))

    def close(self) -> None:
        """End every worker and wait for it. Idle workers leave when their
        pipe closes; busy ones, working on a transition whose result is
        no longer wanted, are killed."""
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            if self.busy:
                proc.kill()
            proc.join()
        self.conns, self.procs = [], []


def fork_payloads(pool: WorkerPool, index: int, rt) -> list:
    """Run the pool's transition ``index`` on every worker: payloads in
    worker order.

    The control sends the index and the transition's globals snapshot; the
    functions were inherited by the fork. Worker 0 runs on the control
    process meanwhile. (``perfbench``'s tracer times this call by its
    name.)
    """
    pool.busy = True
    pool._broadcast(("run", index, rt.globals))
    fn = pool.items[index][0]
    payloads = [engine._run_shard(pool.sim, fn, rt, pool.partition, 0, pool.workers)]
    return payloads + pool.gather()


def _worker_main(conn, inherited, sim, items, partition, worker, nworkers):
    """A worker's loop: run transitions and commit syncs until the control
    closes the pipe; on an error, send it and leave."""
    for other in inherited:  # the control's pipe ends, copied by the fork
        other.close()
    sim._pool = None
    try:
        while True:
            try:
                message = _SchemaUnpickler(conn.recv_bytes(), sim.schema).load()
            except EOFError:
                return
            if message[0] == "run":
                _, index, glob = message
                fn, spec = items[index]
                rt = engine.RuntimeSpec(sim, spec)
                rt.globals = glob
                sim._in_transition = True
                payload = engine._run_shard(sim, fn, rt, partition, worker, nworkers)
                conn.send(("ok", payload))
            else:
                _, segments, edges, deaths = message
                sim._staged = engine.StagedCommit(segments, edges, deaths, [])
                engine.finalize_step(sim)
    except BaseException as exc:  # surfaced on the control process
        try:
            conn.send(("err", exc))
        except OSError:
            pass  # the control has closed the pipe: nobody is waiting
        except Exception:  # the exception does not pickle
            conn.send(("err", RuntimeError(f"worker {worker}: {exc!r}")))
    finally:
        conn.close()
