"""Partitioned multi-worker execution.

Agents are assigned to W workers by a partition strategy; each worker runs
the transition function over its agents in a forked child process against
the frozen time-t state (its private snapshot doubles as the ghost copies
of remote agents). Write shards come back over pipes and are merged on the
control process in producing-agent order, so results are bit-identical to
a single-worker run.

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
import multiprocessing as mp
import os
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .errors import UsageError
from .ids import COMP_SHIFT, PART_BITS, PART_MASK, group_by_comp

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
# Fork executor
# ---------------------------------------------------------------------------


def _child_main(conn, sim, fn, rt, partition, worker, nworkers):
    try:
        payload = engine._run_shard(sim, fn, rt, partition, worker, nworkers)
        conn.send(("ok", payload))
    except BaseException as exc:  # surfaced on the control process
        try:
            conn.send(("err", exc))
        except Exception:
            conn.send(("err", RuntimeError(f"worker {worker}: {exc!r}")))
    finally:
        conn.close()


def fork_payloads(sim, fn, rt, partition, workers: int) -> list:
    """Run one transition across forked workers; payloads in worker order.

    Children inherit the frozen time-t state by fork (their copy-on-write
    snapshot serves as the ghost copies of remote agents) and return their
    write shards over pipes. Worker 0 runs on the control process.
    """
    if os.name != "posix":
        raise UsageError("multi-worker execution requires fork (POSIX)")
    ctx = mp.get_context("fork")
    conns = []
    procs = []
    for w in range(1, workers):
        recv_end, send_end = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_child_main,
            args=(send_end, sim, fn, rt, partition, w, workers),
        )
        proc.start()
        send_end.close()
        conns.append(recv_end)
        procs.append(proc)

    payloads = [engine._run_shard(sim, fn, rt, partition, 0, workers)]
    error = None
    for conn in conns:
        try:
            status, value = conn.recv()
        except EOFError:
            status, value = "err", RuntimeError("worker exited without a result")
        if status == "ok":
            payloads.append(value)
        elif error is None:
            error = value
        conn.close()
    for proc in procs:
        proc.join()
    if error is not None:
        raise error
    return payloads
