"""Partitioned multi-worker execution.

Agents are assigned to W workers by a partition strategy. The executor is
a resident pool (:class:`WorkerPool`): ``engine.run`` forks workers
1..W-1 once, after partitioning, and the control process is worker 0; a
one-off ``apply_transition`` gets a pool that lives for that call alone.
The fork hands every worker the simulation, the program's transitions and
the partition, so none of them crosses a pipe.

Per transition there is one exchange of write shards. The control sends
each worker the transition's index in the program, the globals and, for a
shuffled transition, one seed per worker. Every worker runs the
transition over its own agents against its copy of the time-t state
(which doubles as the ghost copies of remote agents) and sends back its
payload, its write shard. The control runs worker 0's share meanwhile,
then forwards to each worker of the run's pool the other workers'
payloads, as the bytes it received (its own pickled once). Every process
then merges the same payloads in worker order and commits the result
(``engine._merge_and_stage`` and ``engine.finalize_step``, dead-endpoint
sweep included) on its own replica, the workers in parallel with the
control; the merge orders writes by producing agent, so every replica is
bit-identical to a single-worker run. A commit the control makes alone
while the run's pool is up, such as a transition a program callable
applies itself, reaches the workers as its spec and its payloads, which
they merge the same way. Apart from the values a model passes (globals,
and edge states as given), what crosses a pipe is numpy arrays,
builtins, ``array.array`` and the shard, chunk and violation records of
:mod:`graphabm.storage` and :mod:`graphabm.checks`.

Since every process makes every commit from the same payloads, each keeps
the same shards: per edge type written without keep_existing in a list
plan, every worker's shard of the type's last merge and the container
built from them (``engine.KeptMerge``), control-only commits included. A
worker whose new shard of such a type is byte-identical to its kept one
sends ``None`` in its place, a builtin, and every process merges its own
copy of the kept shard instead; when every worker sent ``None``, it
stages the kept container. So edges re-emitted unchanged cross no pipe
after the step that first wrote them. A shard is only compared with the
kept shard of the same worker of a merge over as many workers.

A worker's exception reaches the control with its own type. A worker that
dies without a result raises :class:`~graphabm.errors.WorkerError` with
its id and exit code as soon as its process handle shows it ended. The
pool is closed on every exit from ``run`` and from a one-off
``apply_transition``, and when a transition fails after its workers were
sent anything for it, since their replicas may then be out of step with
the control's state: idle
workers leave when their pipe closes, busy ones are killed, and all are
joined.

Partition strategies:

- ``contiguous``: per agent type, blocks of consecutive agent ids, sizes
  differing by <= 1.
- ``round_robin``: per agent type, the agent's rank modulo W.
- ``greedy_edge_cut``: greedily grown balanced blocks seeded at the
  highest-degree unassigned vertex; the frontier prefers the vertex with
  the most edges into the growing block, which keeps tightly knit
  subgraphs (e.g. cliques) whole.

The first two rank each type's alive agents on their own, so every type,
and so every transition's callable agents, spread over every worker.

Partitioning also lists, per agent type, the slots each worker owns, so a
worker finds its share of a transition's agents by masking its own list
with the type's liveness, in time that shrinks with the worker count.
Agents born after partitioning, past the listed slots, run on worker
``slot % W``.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import os
import pickle
from dataclasses import astuple, dataclass, field
from multiprocessing.connection import wait

import numpy as np

from . import engine
from .errors import UsageError, WorkerError
from .global_layer import FrozenMapping
from .ids import slot_ids, split_by_tag

STRATEGIES = ("contiguous", "round_robin", "greedy_edge_cut")


@dataclass
class Partition:
    """An assignment of every alive agent to one of ``workers`` workers.

    ``maps`` gives, per agent type, the owner of each slot up to the
    type's count at partitioning, and ``owned``, made from it then, the
    ascending slots each worker owns, so that a worker finds its agents
    in a transition without looking at any other's (:meth:`alive_slots`).
    """

    workers: int
    strategy: str
    maps: dict = field(default_factory=dict)  # tag -> int32 owner per slot
    owned: dict = field(default_factory=dict, init=False)  # tag -> per worker, its slots
    sizes: np.ndarray | None = None

    def worker_for_slots(self, tag: int, slots: np.ndarray) -> np.ndarray:
        """Owners of the given slots of a type. A slot the partition did
        not assign, such as an agent's born after partitioning, runs on
        worker ``slot % workers``."""
        slots = np.asarray(slots)
        out = (slots % self.workers).astype(np.int32)
        m = self.maps.get(tag)
        if m is not None:
            inside = slots < m.size
            out[inside] = m[slots[inside]]
        return out

    def alive_slots(self, tag: int, worker: int, seg) -> np.ndarray:
        """The alive slots of a type that ``worker`` owns, ascending, as
        :meth:`worker_for_slots` assigns them: its slots in the map, then
        those past it with ``slot % workers == worker``."""
        m = self.maps.get(tag)
        start = 0 if m is None else m.size
        slots = np.arange(start + (worker - start) % self.workers, seg.count, self.workers)
        if m is not None:
            slots = np.concatenate([self.owned[tag][worker], slots])
        return slots if seg.alive is None else slots[seg.alive[slots]]

    def worker_for_ids(self, ids: np.ndarray) -> np.ndarray:
        out = np.empty(ids.size, dtype=np.int32)
        for tag, sel, slots in split_by_tag(ids):
            out[sel] = self.worker_for_slots(tag, slots)
        return out


def partition_graph(sim, workers: int, strategy: str = "contiguous") -> Partition:
    """Assign every alive agent to a worker."""
    if workers < 1:
        raise UsageError("worker count must be >= 1")
    if strategy not in STRATEGIES:
        raise UsageError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    sim.commit_initial()
    # per type, its alive slots, in ascending agent-id order
    blocks = [(tag, seg, seg.alive_slots()) for tag, seg in enumerate(sim._segments)]
    total = sum(slots.size for _, _, slots in blocks)
    part_obj = Partition(workers=workers, strategy=strategy)
    if total == 0:
        part_obj.sizes = np.zeros(workers, dtype=np.int64)
        return part_obj

    if strategy == "greedy_edge_cut":
        assignment = _greedy_assignment(sim, blocks, total, workers)
    else:
        assignment = np.concatenate([
            _spread(slots.size, workers, strategy) for _, _, slots in blocks
        ])

    offset = 0
    for tag, seg, slots in blocks:
        m = part_obj.maps[tag] = (np.arange(seg.count) % workers).astype(np.int32)
        m[slots] = assignment[offset: offset + slots.size]
        part_obj.owned[tag] = [np.flatnonzero(m == w) for w in range(workers)]
        offset += slots.size
    part_obj.sizes = np.bincount(assignment, minlength=workers).astype(np.int64)
    return part_obj


def _spread(n: int, workers: int, strategy: str) -> np.ndarray:
    """Owners of the ``n`` alive agents of one type, by rank: round-robin,
    or contiguous blocks of which the first ``n % workers`` take one more."""
    if strategy == "round_robin":
        return (np.arange(n) % workers).astype(np.int32)
    sizes = np.full(workers, n // workers)
    sizes[: n % workers] += 1
    return np.repeat(np.arange(workers, dtype=np.int32), sizes)


def _greedy_assignment(sim, blocks, total, workers) -> np.ndarray:
    """Greedy graph-growing partition over the stored-source edge graph."""
    # Compact rank space over alive agents, ascending by id.
    all_ids = np.concatenate([slot_ids(tag, slots) for tag, _seg, slots in blocks])
    # CSR neighbour index: both directions of every edge between two
    # distinct alive agents; self-loops never cross a boundary.
    pairs = [np.empty((2, 0), dtype=np.intp)]
    for container in sim._edges:
        endpoints = container.edge_endpoints()
        if endpoints is not None:
            ranks = np.minimum(np.searchsorted(all_ids, endpoints), total - 1)
            ok = (all_ids[ranks] == endpoints).all(axis=0) & (ranks[0] != ranks[1])
            pairs += [ranks[:, ok], ranks[::-1, ok]]
    rows, cols = np.concatenate(pairs, axis=1)
    degree = np.bincount(rows, minlength=total).astype(np.int64)
    indptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    adjacent = cols[np.argsort(rows, kind="stable")]

    def neighbors(node):
        return adjacent[indptr[node]: indptr[node + 1]].tolist()

    targets_sizes = [len(c) for c in np.array_split(np.arange(total), workers)]
    assignment = np.full(total, -1, dtype=np.int32)
    # Mirrors ``assignment < 0`` for the per-neighbour test: a list read
    # costs a fraction of a numpy scalar read and compare.
    free = [True] * total

    for w in range(workers):
        budget = targets_sizes[w]
        if budget == 0:
            continue
        unassigned = np.flatnonzero(assignment < 0)
        seed = int(unassigned[np.lexsort((unassigned, -degree[unassigned]))[0]])
        assignment[seed] = w
        free[seed] = False
        budget -= 1
        gain = {}
        heap = []
        for nb in neighbors(seed):
            if free[nb]:
                gain[nb] = gain.get(nb, 0) + 1
        for node, g in gain.items():
            heapq.heappush(heap, (-g, node, g))
        while budget > 0:
            node = -1
            while heap:
                neg_g, cand, g = heapq.heappop(heap)
                if free[cand] and gain.get(cand) == g:
                    node = cand
                    break
            if node < 0:
                rest = np.flatnonzero(assignment < 0)
                node = int(rest[np.lexsort((rest, -degree[rest]))[0]])
            assignment[node] = w
            free[node] = False
            gain.pop(node, None)
            budget -= 1
            for nb in neighbors(node):
                if free[nb]:
                    g = gain.get(nb, 0) + 1
                    gain[nb] = g
                    heapq.heappush(heap, (-g, nb, g))
    return assignment


# ---------------------------------------------------------------------------
# Cut metrics
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


# ---------------------------------------------------------------------------
# Resident worker pool
# ---------------------------------------------------------------------------


class WorkerPool:
    """Workers 1..W-1 of a partition, forked once and resident until
    :meth:`close`; worker 0 is the control process.

    Each child inherits the simulation, the program's transitions
    (``items``, a list of ``(fn, spec)``) and the partition by fork, and
    serves requests from its end of a duplex pipe until the control closes
    it. Construct it after ``commit_initial``: the children's copy of the
    graph is the control's at the fork. While the pool is the run's
    (``sim._pool``), every commit after it reaches the children as the
    payloads that made it (see :func:`fork_payloads` and
    :func:`commit_message`).
    """

    def __init__(self, sim, items: list, partition: Partition, workers: int):
        if os.name != "posix":
            raise UsageError("multi-worker execution requires fork (POSIX)")
        if partition.workers != workers:
            raise UsageError(
                f"a partition over {partition.workers} workers cannot serve {workers}"
            )
        ctx = mp.get_context("fork")
        self.sim = sim
        self.items = items
        self.partition = partition
        self.workers = workers
        self.conns: list = []
        self.procs: list = []
        self.busy = False  # a transition is out and not all payloads are back
        self.sent = False  # set by every send; the caller clears it
        # the run's pool's pipe ends too, else its workers outlive its close
        outer = [] if sim._pool is None else sim._pool.conns
        try:
            for w in range(1, self.workers):
                mine, theirs = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(theirs, [*outer, *self.conns, mine], sim, items, partition, w,
                          workers),
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

    def _send(self, w: int, blob) -> None:
        """Send ``blob`` to worker ``w``; if it has gone, raise what ended it."""
        self.sent = True
        try:
            self.conns[w - 1].send_bytes(blob)
        except OSError:
            self._reply(w)
            raise

    def broadcast(self, blob: bytes) -> None:
        """Send the same bytes to every worker."""
        for w in range(1, self.workers):
            self._send(w, blob)

    def _reply(self, w: int) -> tuple:
        """Worker ``w``'s next payload, as the bytes it sent and unpickled.
        Its exception is re-raised; if it ended without one,
        :class:`WorkerError` gives its exit code."""
        conn, proc = self.conns[w - 1], self.procs[w - 1]
        try:
            blob = conn.recv_bytes()
        except (EOFError, OSError):
            proc.join()
            raise WorkerError(w, proc.exitcode) from None
        status, value = pickle.loads(blob)
        if status != "ok":
            raise value
        return blob, value

    def gather(self) -> list:
        """Replies of workers 1..W-1, ``(bytes, payload)`` in worker order,
        each taken as it arrives: waiting on every worker's pipe and
        process handle together reports a worker that dies at once,
        whichever it is."""
        replies = [None] * len(self.conns)
        pending = set(range(1, self.workers))
        while pending:
            handles = {h: w for w in pending
                       for h in (self.conns[w - 1], self.procs[w - 1].sentinel)}
            for h in wait(list(handles)):
                w = handles[h]
                if w in pending:
                    pending.discard(w)
                    replies[w - 1] = self._reply(w)
        self.busy = False
        return replies

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


def fork_payloads(pool: WorkerPool, index: int, rt, shuffle=None) -> list:
    """Run the pool's transition ``index`` on every worker: payloads in
    worker order.

    The control sends the index, the globals and, with ``shuffle`` (a numpy
    Generator), one seed drawn from it per worker, by which each worker
    shuffles its own agents; the functions were inherited by the fork.
    Worker 0 runs on the control process meanwhile. When ``pool`` is the
    run's, each worker is then sent the other workers' payloads, in worker
    order and as the bytes they arrived in, to merge on its replica; a
    one-off pool's workers are ended instead. A payload holds ``None`` for
    an edge shard that equals its worker's kept one, on every worker
    including 0, so such a shard crosses no pipe either way. (``perfbench``'s
    tracer times this call by its name.)
    """
    seeds = None if shuffle is None else shuffle.integers(2**63, size=pool.workers).tolist()
    try:
        blob = pickle.dumps(("run", index, dict(rt.globals), seeds), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # only the globals come from the model
        raise UsageError(f"globals must pickle to reach the workers: {exc}") from exc
    pool.busy = True
    pool.broadcast(blob)
    fn = pool.items[index][0]
    own = engine._run_shard(pool.sim, fn, rt, pool.partition, 0, pool.workers,
                            shuffle=_shuffle(seeds, 0))
    resident = pool.sim._pool is pool
    blobs = [pickle.dumps(("ok", own), pickle.HIGHEST_PROTOCOL)] if resident else []
    replies = pool.gather()
    if resident:
        blobs += [blob for blob, _ in replies]
        for w in range(1, pool.workers):
            for i, blob in enumerate(blobs):
                if i != w:
                    pool._send(w, blob)
    return [own] + [payload for _, payload in replies]


def commit_message(spec, payloads: list) -> bytes:
    """What makes the run's workers merge and commit the ``payloads`` of a
    transition ``spec`` that ran without them: the spec's fields and the
    payloads, pickled once for every worker. A ``None`` shard in them
    stands for the kept one, which every worker holds as the control
    does. Build it before the control's merge, which rewrites the payloads
    in place, and send it with :meth:`WorkerPool.broadcast` once that
    merge has succeeded."""
    return pickle.dumps(("commit", astuple(spec), payloads), pickle.HIGHEST_PROTOCOL)


def _shuffle(seeds, worker: int):
    return None if seeds is None else np.random.default_rng(seeds[worker])


def _worker_main(conn, inherited, sim, items, partition, worker, nworkers):
    """A worker's loop until the control closes the pipe: run a transition
    over its agents and send the payload, then merge and commit the
    transition from every worker's payload; or merge and commit a
    transition the control ran alone. Either commit updates the worker's
    kept merges as the control's, so both compare shards alike. On an
    error, send it and leave."""
    for other in inherited:  # the control's pipe ends, copied by the fork
        other.close()
    sim._pool = None
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return
            if message[0] == "run":
                _, index, glob, seeds = message
                fn, spec = items[index]
                rt = engine.runtime_spec(sim, spec, FrozenMapping(glob))
                sim._in_transition = True
                own = engine._run_shard(sim, fn, rt, partition, worker, nworkers,
                                        shuffle=_shuffle(seeds, worker))
                conn.send(("ok", own))
                try:  # the other workers' payloads, in worker order
                    others = [pickle.loads(conn.recv_bytes())[1] for _ in range(nworkers - 1)]
                except EOFError:
                    return  # a one-off pool: the control commits alone
                payloads = others[:worker] + [own] + others[worker:]
            else:
                _, fields, payloads = message
                rt = engine.runtime_spec(sim, engine.TransitionSpec(*fields), None)
            engine._merge_and_stage(sim, rt, payloads)
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
