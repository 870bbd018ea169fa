"""Data-oriented storage for agents and edges.

Agents of one type created on one partition live in an :class:`AgentSegment`
(structure-of-arrays plus a liveness mask for mortal types). Edges are
always stored under their *target*: while a transition runs, every worker
appends into its own write shard, a :class:`ListShard` for every plan; at
commit the shards are merged into an immutable read container whose shape
is chosen by the edge type's storage plan.

Edges take one of two shapes. A CSR (compressed sparse row) container,
:class:`ListEdgeRead`, serves every plan but EXISTENCE_BIT: it holds
sorted targets, optional source ids and optional state columns, one numpy
array per declared field, as :class:`AgentSegment` holds agent fields.
COUNT_ONLY keeps the targets alone and reads counts off the index;
SINGLE_FULL_EDGE keeps one edge per target. EXISTENCE_BIT keeps a bitmap,
one presence byte per target slot: its shards hold targets only (and
producers when SINGLE_EDGE is checked), and the merge sets their bits.
Write shards keep edge states as the model passed them, per-edge tuples or
the columns of a bulk add; the merge casts each field once with
:func:`cast_columns`, the cast every agent write path uses too, and a
value that does not cast raises :class:`~graphabm.errors.UsageError`.

SINGLE_EDGE is checked where every edge is seen. During initialization an
EXISTENCE_BIT duplicate is flagged at the call, and a SINGLE_FULL_EDGE one
at commit; in a transition both are flagged at the merge, one report per
edge beyond a target's first at any worker count.

Merge determinism: within a shard, adds appear in producing-agent order
(workers iterate their agents by ascending id); the merge stable-sorts the
concatenated shards by producer and then by target, so every per-target
edge list is ordered by producing-agent id no matter how many workers ran
or in which order agents executed.
"""

from __future__ import annotations

import array
from typing import Callable, NamedTuple

import numpy as np

from .checks import ViolationSink
from .errors import ContractViolation, HintViolation, IndexOverflow, UsageError
from .ids import COMP_SHIFT, INDEX_MASK, MAX_INDEX, group_by_comp
from .schema import AgentTypeInfo, EdgePlan, EdgeTypeInfo

_U64 = np.uint64
_EMPTY_U64 = np.empty(0, dtype=_U64)
_NO_RUNS = np.zeros(1, dtype=np.int64)  # indptr of a composite without edges


class EdgeRecord(NamedTuple):
    """One stored incoming edge, as handed to transition functions.

    ``source`` is None when the type drops source ids (IGNORE_FROM);
    ``state`` is None when the type is STATELESS.
    """

    source: int | None
    state: tuple | None
    edge_type: str


def cast_columns(info: AgentTypeInfo | EdgeTypeInfo, columns) -> tuple:
    """``columns``, one sequence of values per declared field of an agent or
    edge type, as numpy arrays of the declared dtypes.

    A value that does not cast raises :class:`UsageError` naming the type
    and field, and so does None, which numpy would store as NaN or False.
    """
    kind = "agent" if isinstance(info, AgentTypeInfo) else "edge"
    out = []
    for name, dt, values in zip(info.field_names, info.dtypes, columns):
        try:
            if _holds_none(values):
                raise TypeError("None is not a value")
            out.append(np.asarray(values, dtype=dt))
        except (TypeError, ValueError, OverflowError) as exc:
            raise UsageError(
                f"{kind} type {info.name!r}, field {name!r}: a value does not "
                f"cast to {dt}: {exc}"
            ) from None
    return tuple(out)


def _holds_none(values) -> bool:
    if isinstance(values, np.ndarray):
        return values.dtype == object and any(v is None for v in values.flat)
    return isinstance(values, (list, tuple)) and any(v is None for v in values)


# ---------------------------------------------------------------------------
# Agent storage
# ---------------------------------------------------------------------------


class AgentSegment:
    """Agents of one type created on one partition.

    Slots are allocated densely; for mortal types a liveness mask marks dead
    slots and a LIFO free list recycles them.
    """

    __slots__ = ("count", "fields", "alive", "free", "immortal")

    def __init__(self, info: AgentTypeInfo, capacity: int = 0):
        self.count = 0
        self.immortal = info.immortal
        self.fields = {
            name: np.empty(capacity, dtype=dt)
            for name, dt in zip(info.field_names, info.dtypes)
        }
        self.alive = None if info.immortal else np.zeros(capacity, dtype=bool)
        self.free: list[int] = []

    # -- capacity ----------------------------------------------------------

    def _grow_to(self, capacity: int):
        for name, arr in self.fields.items():
            new = np.empty(capacity, dtype=arr.dtype)
            new[: self.count] = arr[: self.count]
            self.fields[name] = new
        if self.alive is not None:
            new = np.zeros(capacity, dtype=bool)
            new[: self.count] = self.alive[: self.count]
            self.alive = new

    def ensure_capacity(self, n: int):
        cap = self.count if not self.fields else len(next(iter(self.fields.values())))
        if self.alive is not None:
            cap = len(self.alive)
        if n > cap:
            self._grow_to(max(n, cap * 2, 16))

    # -- allocation ----------------------------------------------------------

    def allocate(self) -> int:
        """Take a slot: reuse the most recently freed one, else extend."""
        if self.free:
            slot = self.free.pop()
        else:
            slot = self.count
            if slot >= MAX_INDEX:
                raise IndexOverflow("agent index space exhausted for this partition")
            self.ensure_capacity(slot + 1)
            self.count = slot + 1
        if self.alive is not None:
            self.alive[slot] = True
        return slot

    # -- queries ---------------------------------------------------------------

    @property
    def n_alive(self) -> int:
        if self.alive is None:
            return self.count
        return int(np.count_nonzero(self.alive[: self.count]))

    def alive_slots(self) -> np.ndarray:
        if self.alive is None:
            return np.arange(self.count, dtype=np.intp)
        return np.flatnonzero(self.alive[: self.count])

    def is_alive(self, slot: int) -> bool:
        if slot >= self.count or slot < 0:
            return False
        return True if self.alive is None else bool(self.alive[slot])

    def state_tuple(self, slot: int) -> tuple:
        return tuple(arr[slot].item() for arr in self.fields.values())

    def clone(self) -> "AgentSegment":
        dup = object.__new__(AgentSegment)
        dup.count = self.count
        dup.immortal = self.immortal
        dup.fields = {k: v[: self.count].copy() for k, v in self.fields.items()}
        dup.alive = None if self.alive is None else self.alive[: self.count].copy()
        dup.free = list(self.free)
        return dup

    def checksum_update(self, h):
        h.update(self.count.to_bytes(8, "little"))
        if self.alive is not None:
            h.update(np.packbits(self.alive[: self.count]).tobytes())
        for name in sorted(self.fields):
            h.update(name.encode())
            h.update(self.fields[name][: self.count].tobytes())


# ---------------------------------------------------------------------------
# Write shards (one per edge type per worker per transition)
# ---------------------------------------------------------------------------


def _u64_bytes(values) -> np.ndarray:
    """The bytes of ``values`` as uint64, without a copy when they already are."""
    return np.ascontiguousarray(values, dtype=_U64).view(np.uint8)


class _Columns(tuple):
    """The state columns of a bulk add, one sequence per field, as one
    entry of a :class:`ListShard`'s ``states`` among per-edge tuples."""

    __slots__ = ()


class ListShard:
    """Write shard of every plan: parallel columns.

    ``sources``, ``states`` and ``producers`` exist only when the plan
    stores them or the caller records producing agents; COUNT_ONLY keeps
    targets alone, and so does EXISTENCE_BIT unless producers are recorded.
    ``add`` appends once to each present column, a state tuple to
    ``states``; ``extend`` appends arrays, and its state columns as one
    :class:`_Columns` entry. The merge casts both.
    """

    __slots__ = ("targets", "sources", "states", "producers", "add")

    def __init__(self, info: EdgeTypeInfo, record_producers: bool = False):
        self._bind(
            array.array("Q"),
            array.array("Q") if info.has_source else None,
            [] if info.has_state else None,
            array.array("Q")
            if record_producers and info.plan is not EdgePlan.COUNT_ONLY
            else None,
        )

    def _bind(self, targets, sources, states, producers):
        self.targets, self.sources = targets, sources
        self.states, self.producers = states, producers
        # The appends of the present columns are looked up once: ``add`` is
        # the per-edge write path, and a targets-only shard skips the tests.
        t = targets.append
        s = None if sources is None else sources.append
        st = None if states is None else states.append
        p = None if producers is None else producers.append

        def add(target, source=0, state=None, producer=0):
            t(target)
            if s is not None:
                s(source)
            if st is not None:
                st(state)
            if p is not None:
                p(producer)

        def add_target(target, source=0, state=None, producer=0):
            t(target)

        self.add = add if s or st or p else add_target

    def __getstate__(self):
        return self.targets, self.sources, self.states, self.producers

    def __setstate__(self, columns):
        self._bind(*columns)

    def extend(self, targets, sources=None, states=None, producers=0):
        """Append edges: ``states`` holds one column per field and
        ``producers`` one producer per edge or one for all."""
        self.targets.frombytes(_u64_bytes(targets))
        if self.sources is not None:
            self.sources.frombytes(_u64_bytes(sources))
        if self.states is not None:
            self.states.append(_Columns(states))
        if self.producers is not None:
            self.producers.frombytes(
                _u64_bytes(np.broadcast_to(np.asarray(producers, dtype=_U64), (len(targets),)))
            )

    def __len__(self):
        return len(self.targets)


def make_shard(info: EdgeTypeInfo, record_producers: bool = False) -> ListShard:
    return ListShard(info, record_producers)


def make_checked_adder(
    shard: ListShard,
    info: EdgeTypeInfo,
    sink: ViolationSink,
    check_single_type: bool,
    seen: set | None = None,
) -> Callable:
    """Wrap a shard's add with the contract checks made at the call.

    SINGLE_TYPE is checked per edge. SINGLE_EDGE is checked here only with
    ``seen``, the set of targets an EXISTENCE_BIT type received so far
    during initialization, so that the second add raises at the call; in a
    transition the merge, which sees every edge, checks it.
    """
    st_tag = info.single_type_tag if check_single_type else None
    if st_tag is None and seen is None:
        return shard.add
    name = info.name
    raw_add = shard.add

    def add(target, source=0, state=None, producer=0):
        if st_tag is not None and target >> 56 != st_tag:
            sink.report(
                "single_type", name, target, producer,
                f"edge targets an agent of the wrong type (expected tag {st_tag})",
            )
        if seen is not None:
            _flag_seen(info, sink, seen, [target], [producer])
        raw_add(target, source, state, producer)

    return add


def _flag_seen(info: EdgeTypeInfo, sink: ViolationSink, seen: set, targets, producers):
    """Report each of ``targets`` already in ``seen`` and add the others."""
    for i, target in enumerate(targets):
        if target in seen:
            sink.report(
                "single_edge", info.name, target, int(producers[i]),
                "second edge added to a SINGLE_EDGE target",
            )
        else:
            seen.add(target)


def edge_breaches(
    info: EdgeTypeInfo,
    sink: ViolationSink,
    check_single_type: bool,
    targets: np.ndarray,
    producers=0,
    seen: set | None = None,
) -> None:
    """Report what :func:`make_checked_adder`'s adder reports for adding
    ``targets`` (uint64) in order: one report per offending edge. The
    SINGLE_TYPE test uses array ops. ``producers`` holds edge ``i``'s
    producer at ``i``, or is one producer for all."""
    producers = np.broadcast_to(producers, targets.shape)
    if check_single_type and info.single_type_tag is not None:
        tag = info.single_type_tag
        for i in np.flatnonzero((targets >> _U64(56)) != _U64(tag)).tolist():
            sink.report(
                "single_type", info.name, int(targets[i]), int(producers[i]),
                f"edge targets an agent of the wrong type (expected tag {tag})",
            )
    if seen is not None:
        _flag_seen(info, sink, seen, targets.tolist(), producers)


# ---------------------------------------------------------------------------
# Read containers (immutable between commits)
# ---------------------------------------------------------------------------


def _concat_u64(parts: list) -> np.ndarray:
    arrays = [np.frombuffer(p, dtype=_U64) if isinstance(p, array.array) else np.asarray(p, dtype=_U64) for p in parts]
    arrays = [a for a in arrays if a.size]
    if not arrays:
        return _EMPTY_U64
    if len(arrays) == 1:
        return arrays[0].copy()
    return np.concatenate(arrays)


def _is_nondecreasing(a: np.ndarray) -> bool:
    return a.size < 2 or bool(np.all(a[1:] >= a[:-1]))


def _take(column, idx):
    """``column[idx]`` of a column, or of each column in a tuple of state
    columns; None stays None."""
    if isinstance(column, tuple):
        return tuple(c[idx] for c in column)
    return None if column is None else column[idx]


def _cat(first, second):
    """``first`` followed by ``second``, for columns as in :func:`_take`."""
    if isinstance(first, tuple):
        return tuple(np.concatenate(pair) for pair in zip(first, second))
    return None if first is None else np.concatenate([first, second])


def _build_indptr(targets: np.ndarray) -> dict[int, np.ndarray]:
    """Per target composite, slot-indexed run starts into sorted ``targets``."""
    out = {}
    lo, n = 0, targets.size
    while lo < n:
        comp = int(targets[lo]) >> COMP_SHIFT
        base = comp << COMP_SHIFT
        end_key = base + (1 << COMP_SHIFT)
        hi = n if end_key >= 1 << 64 else int(np.searchsorted(targets, _U64(end_key)))
        top = int(targets[hi - 1]) & INDEX_MASK
        keys = _U64(base) + np.arange(top + 2, dtype=_U64)
        out[comp] = np.searchsorted(targets[lo:hi], keys) + lo
        lo = hi
    return out


class ListEdgeRead:
    """CSR read container of every plan but EXISTENCE_BIT.

    ``targets`` is sorted; ``sources`` (uint64) is None when the plan drops
    source ids, and ``states`` is None or a tuple of numpy columns, one per
    declared field. Per-target runs are ordered by producing agent; a
    SINGLE_FULL_EDGE container holds at most one edge per target, and a
    COUNT_ONLY one only targets, so it answers counts and presence alone.
    ``indptr`` maps each target (type tag, partition) composite to an int64
    array indexed by local slot: the edges of slot ``s`` sit at positions
    ``indptr[comp][s]:indptr[comp][s + 1]``. A slot past the end of its
    array, such as an agent created after the container was built, has no
    edges.
    """

    __slots__ = (
        "info", "targets", "sources", "states", "indptr",
        "sources_local", "single_source_comp",
    )

    def __init__(self, info: EdgeTypeInfo, targets, sources, states):
        self.info = info
        self.targets = targets
        self.sources = sources
        self.states = states
        self.indptr = _build_indptr(targets)
        self.sources_local = None
        self.single_source_comp = None
        if sources is not None:
            groups = group_by_comp(sources)
            if len(groups) == 1:
                self.single_source_comp, _, self.sources_local = groups[0]

    # -- queries -------------------------------------------------------------

    @property
    def plan(self):
        return self.info.plan

    def n_stored(self) -> int:
        return int(self.targets.size)

    def span(self, aid: int) -> tuple[int, int]:
        """(start, end) positions of one target's edges; (0, 0) if none."""
        ptr = self.indptr.get(aid >> COMP_SHIFT)
        slot = aid & INDEX_MASK
        if ptr is None or slot + 1 >= ptr.size:
            return 0, 0
        return ptr.item(slot), ptr.item(slot + 1)

    def bounds(self, comp: int, slots: np.ndarray):
        """Per-slot (starts, ends) edge positions of targets in one composite;
        a slot without edges gets an empty run."""
        ptr = self.indptr.get(comp, _NO_RUNS)
        last = ptr.size - 1
        return ptr[np.minimum(slots, last)], ptr[np.minimum(slots + 1, last)]

    def runs(self, comp: int, slots: np.ndarray):
        """``(pos, indptr)``: the positions of the edges of targets ``slots``
        of one composite, slot after slot, and each slot's run in them."""
        starts, ends = self.bounds(comp, slots)
        counts = ends - starts
        indptr = np.zeros(slots.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        if slots.size and np.array_equal(starts[1:], ends[:-1]):
            return slice(int(starts[0]), int(ends[-1])), indptr  # one run of edges
        return np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], counts), indptr

    def has_for(self, aid: int) -> bool:
        lo, hi = self.span(aid)
        return hi > lo

    def has_for_slots(self, comp: int, slots: np.ndarray) -> np.ndarray:
        starts, ends = self.bounds(comp, slots)
        return ends > starts

    def _require_counts(self):
        if self.info.plan is EdgePlan.SINGLE_FULL_EDGE:
            raise HintViolation(
                f"edge type {self.info.name!r} holds at most one edge per target; "
                "use has_edge"
            )

    def count_for(self, aid: int) -> int:
        self._require_counts()
        lo, hi = self.span(aid)
        return hi - lo

    def count_for_slots(self, comp: int, slots: np.ndarray) -> np.ndarray:
        self._require_counts()
        starts, ends = self.bounds(comp, slots)
        return ends - starts

    def sources_for(self, aid: int) -> np.ndarray:
        if self.sources is None:
            raise HintViolation(
                f"edge type {self.info.name!r} does not store source ids (IGNORE_FROM)"
            )
        lo, hi = self.span(aid)
        return self.sources[lo:hi]

    def states_for(self, aid: int) -> list:
        if self.info.stateless:
            raise HintViolation(
                f"edge type {self.info.name!r} is STATELESS; edges carry no state"
            )
        return self.state_tuples(*self.span(aid))

    def state_tuples(self, lo: int = 0, hi: int | None = None) -> list:
        """States of the edges at positions ``lo:hi`` (all by default), in
        target order, as tuples of Python scalars."""
        hi = self.targets.size if hi is None else hi
        if self.states is None:
            return [()] * (hi - lo)
        return list(zip(*(c[lo:hi].tolist() for c in self.states)))

    def _require_records(self):
        if self.info.plan is EdgePlan.COUNT_ONLY:
            raise HintViolation(
                f"edge type {self.info.name!r} stores only per-target counts; "
                "edge records are not retrievable"
            )

    def records_for_slots(self, comp: int, slots: np.ndarray):
        """``(sources, states, indptr)`` of the edges of targets ``slots``
        of one composite, as :meth:`runs` orders them; ``sources`` is None
        without source ids, ``states`` (one column per field) when
        STATELESS."""
        self._require_records()
        pos, indptr = self.runs(comp, slots)
        sources = None if self.sources is None else self.sources[pos]
        states = None if self.info.stateless else tuple(c[pos] for c in self.states or ())
        return sources, states, indptr

    def records_for(self, aid: int) -> list[EdgeRecord]:
        self._require_records()
        lo, hi = self.span(aid)
        none = [None] * (hi - lo)
        sources = none if self.sources is None else self.sources[lo:hi].tolist()
        states = none if self.info.stateless else self.state_tuples(lo, hi)
        name = self.info.name
        return [EdgeRecord(src, st, name) for src, st in zip(sources, states)]

    def edge_endpoints(self):
        if self.sources is None:
            return None
        return self.targets, self.sources

    # -- maintenance -----------------------------------------------------------

    def filtered(self, alive_fn) -> "ListEdgeRead":
        if not self.targets.size:
            return self
        keep = alive_fn(self.targets)
        if self.sources is not None:
            keep &= alive_fn(self.sources)
        if bool(keep.all()):
            return self
        idx = np.flatnonzero(keep)
        return ListEdgeRead(
            self.info, self.targets[idx], _take(self.sources, idx), _take(self.states, idx)
        )

    def checksum_update(self, h):
        h.update(self.targets.tobytes())
        if self.sources is not None:
            h.update(self.sources.tobytes())
        if self.states is not None:
            for name, column in zip(self.info.field_names, self.states):
                h.update(name.encode())
                h.update(column.tobytes())


class ExistenceEdgeRead:
    """Read container of EXISTENCE_BIT: one presence byte per target slot."""

    __slots__ = ("info", "buckets")

    def __init__(self, info: EdgeTypeInfo, buckets: dict[int, np.ndarray]):
        self.info = info
        self.buckets = buckets  # comp -> uint8 array of presence bits

    @property
    def plan(self):
        return self.info.plan

    def n_stored(self) -> int:
        return sum(int(np.count_nonzero(b)) for b in self.buckets.values())

    def has_for(self, aid: int) -> bool:
        bucket = self.buckets.get(aid >> COMP_SHIFT)
        if bucket is None:
            return False
        idx = aid & INDEX_MASK
        return idx < bucket.size and bucket[idx] != 0

    def has_for_slots(self, comp: int, slots: np.ndarray) -> np.ndarray:
        out = np.zeros(slots.size, dtype=bool)
        bucket = self.buckets.get(comp)
        if bucket is not None:
            inside = slots < bucket.size
            out[inside] = bucket[slots[inside]] != 0
        return out

    def count_for(self, *_):
        raise HintViolation(
            f"edge type {self.info.name!r} stores only an existence bit; "
            "edge multiplicity is not retrievable"
        )

    def sources_for(self, aid: int):
        raise HintViolation(
            f"edge type {self.info.name!r} stores only an existence bit"
        )

    states_for = sources_for

    def records_for(self, *_):
        raise HintViolation(
            f"edge type {self.info.name!r} stores only an existence bit; "
            "edge records are not retrievable"
        )

    count_for_slots = count_for
    records_for_slots = records_for

    def edge_endpoints(self):
        return None

    def ids(self) -> np.ndarray:
        """The ids of the targets whose bit is set, ascending."""
        return np.concatenate([_EMPTY_U64] + [
            _U64(comp << COMP_SHIFT) + np.flatnonzero(self.buckets[comp]).astype(_U64)
            for comp in sorted(self.buckets)
        ])

    def filtered(self, alive_fn) -> "ExistenceEdgeRead":
        ids = self.ids()
        dead = ids[~alive_fn(ids)]
        if not dead.size:
            return self
        # The checksum hashes every composite key: one whose bits all die
        # keeps an empty bitmap, and one that was empty already is dropped.
        out = {comp: b for comp, b in self.buckets.items() if b.any()}
        for comp, _, slots in group_by_comp(dead):
            out[comp] = out[comp].copy()
            out[comp][slots] = 0
        return ExistenceEdgeRead(self.info, out)

    def checksum_update(self, h):
        ids = self.ids()
        comps = sorted(self.buckets)
        ends = np.searchsorted(ids >> _U64(COMP_SHIFT), np.array(comps, dtype=_U64), "right")
        lo = 0
        for comp, hi in zip(comps, ends.tolist()):
            h.update(comp.to_bytes(8, "little"))
            h.update((ids[lo:hi] & _U64(INDEX_MASK)).astype(np.int64).tobytes())
            lo = hi


# ---------------------------------------------------------------------------
# Merge: shards (+ optional carryover) -> read container
# ---------------------------------------------------------------------------


def _merge_states(info: EdgeTypeInfo, shards: list) -> tuple:
    """The shards' state columns, cast, in write order: runs of per-edge
    tuples become columns and bulk-added columns are kept as they are."""
    groups, rows = [], []
    for entry in (e for s in shards for e in s.states):
        if isinstance(entry, _Columns):
            if rows:
                groups.append(list(zip(*rows)))
                rows = []
            groups.append(entry)
        else:
            rows.append(entry)
    if rows:
        groups.append(list(zip(*rows)))
    cast = [cast_columns(info, g) for g in groups]
    if not cast:
        return cast_columns(info, [()] * len(info.field_names))
    if len(cast) == 1:
        return cast[0]
    return tuple(np.concatenate(columns) for columns in zip(*cast))


def _merge_list_shards(info: EdgeTypeInfo, shards: list, carryover):
    """``carryover``'s edges, then the shards' edges concatenated in worker
    order and ordered by producer.

    Returns targets, sources, states, the producers of the shards' edges
    (None unless every shard records them) and the number of carried-over
    edges.
    """
    targets = _concat_u64([s.targets for s in shards])
    sources = _concat_u64([s.sources for s in shards]) if info.has_source else None
    states = producers = None
    if info.has_state:
        states = _merge_states(info, shards)
    if all(s.producers is not None for s in shards):
        producers = _concat_u64([s.producers for s in shards])
        if not _is_nondecreasing(producers):
            order = np.argsort(producers, kind="stable")
            targets, sources, states = targets[order], _take(sources, order), _take(states, order)
            producers = producers[order]
    retained = 0
    if carryover is not None and carryover.targets.size:
        retained = carryover.targets.size
        targets = np.concatenate([carryover.targets, targets])
        sources = _cat(carryover.sources, sources)
        states = _cat(carryover.states, states)
    return targets, sources, states, producers, retained


def build_list_read(
    info: EdgeTypeInfo, shards: list, carryover: ListEdgeRead | None
) -> ListEdgeRead:
    targets, sources, states, _, _ = _merge_list_shards(info, shards, carryover)
    if not _is_nondecreasing(targets):
        order = np.argsort(targets, kind="stable")
        targets, sources, states = targets[order], _take(sources, order), _take(states, order)
    return ListEdgeRead(info, targets, sources, states)


def _single_edge_order(info, targets, producers, retained, sink):
    """Stable-sort merged ``targets``: the ``retained`` carried-over edges
    first, then the shards' edges in producer order.

    Returns the sort ``order`` and a mask over the sorted edges marking
    each one a later edge to its target follows. With a ``sink``, each
    edge beyond a target's first is reported, in target order, with its
    producer; a retained edge counts as the earliest.
    """
    order = np.argsort(targets, kind="stable")
    ordered = targets[order]
    superseded = np.zeros(ordered.size, dtype=bool)
    superseded[:-1] = ordered[1:] == ordered[:-1]
    if sink is not None:
        for i in np.flatnonzero(superseded).tolist():
            later = int(order[i + 1]) - retained
            sink.report(
                "single_edge", info.name, int(ordered[i]),
                0 if producers is None else int(producers[later]),
                "SINGLE_EDGE target already had a retained edge"
                if order[i] < retained
                else "second edge added to a SINGLE_EDGE target",
            )
    return order, superseded


def build_existence_read(
    info: EdgeTypeInfo,
    shards: list,
    carryover: ExistenceEdgeRead | None,
    sink: ViolationSink | None,
) -> ExistenceEdgeRead:
    """Set the bit of every target of the shards, after ``carryover``'s bits."""
    targets, _, _, producers, _ = _merge_list_shards(info, shards, None)
    buckets = {} if carryover is None else dict(carryover.buckets)
    if sink is not None:
        retained = _EMPTY_U64 if carryover is None else carryover.ids()
        _single_edge_order(info, np.concatenate([retained, targets]), producers,
                           retained.size, sink)
    for comp, _, slots in group_by_comp(targets):
        old = buckets.get(comp, np.zeros(0, dtype=np.uint8))
        bits = np.zeros(max(old.size, int(slots.max()) + 1), dtype=np.uint8)
        bits[: old.size] = old
        bits[slots] = 1
        buckets[comp] = bits
    return ExistenceEdgeRead(info, buckets)


def build_single_read(
    info: EdgeTypeInfo,
    shards: list,
    carryover: ListEdgeRead | None,
    sink: ViolationSink | None,
) -> ListEdgeRead:
    """Keep each target's last edge: the highest producer's last add wins,
    and a retained edge counts as earliest. SINGLE_EDGE is checked here,
    as :func:`_single_edge_order` says."""
    targets, sources, states, producers, retained = _merge_list_shards(
        info, shards, carryover
    )
    order, superseded = _single_edge_order(info, targets, producers, retained, sink)
    kept = order[~superseded]
    return ListEdgeRead(info, targets[kept], _take(sources, kept), _take(states, kept))


def build_read_container(
    info: EdgeTypeInfo,
    shards: list,
    carryover=None,
    sink: ViolationSink | None = None,
    check_single_edge: bool = False,
):
    """Merge write shards, after ``carryover``'s edges, into a read container;
    with no shards and no carryover, the type's empty container."""
    sink = sink if check_single_edge else None
    if info.plan is EdgePlan.EXISTENCE_BIT:
        return build_existence_read(info, shards, carryover, sink)
    if info.plan is EdgePlan.SINGLE_FULL_EDGE:
        return build_single_read(info, shards, carryover, sink)
    return build_list_read(info, shards, carryover)


def validate_endpoints(info: EdgeTypeInfo, shards: list, exists_fn) -> None:
    """Ensure every endpoint the shards add refers to an agent slot that
    exists.

    ``exists_fn`` maps an id array to a boolean array (allocated slots,
    dead or alive). Dangling *references* are a model bug and fail fast;
    dead endpoints are handled separately by the post-step edge sweep. Run
    before the merge, so that a target far past every slot raises here
    instead of sizing the merged index; carried-over edges were checked
    when they were added, and a slot once allocated stays allocated.
    """
    for shard in shards:
        for column in (shard.targets, shard.sources):
            if not column:
                continue
            arr = np.frombuffer(column, dtype=_U64)
            ok = exists_fn(arr)
            if not bool(ok.all()):
                bad = int(arr[np.flatnonzero(~ok)[0]])
                raise ContractViolation(
                    f"edge of type {info.name!r} references nonexistent "
                    f"agent {bad:#x}"
                )
