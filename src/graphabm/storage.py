"""Data-oriented storage for agents and edges.

The agents of one type live in one :class:`AgentSegment`
(structure-of-arrays plus a liveness mask for mortal types). Edges are
always stored under their *target*: while a transition runs, every worker
appends into its own write shard, a :class:`ListShard` for every plan,
and seals it into a list of :class:`Chunk` records; at commit the chunk
lists of every worker are merged into an immutable read container whose
shape is chosen by the edge type's storage plan. A shard never leaves the
process that wrote it: the merge, the endpoint check, the id rewrite and
the comparison with a kept merge all take per-worker chunk lists.

Edges take one of two shapes. A CSR (compressed sparse row) container,
:class:`ListEdgeRead`, serves every plan but EXISTENCE_BIT: it holds the
index, not a target column (per target type, the run start of each
slot's edges), plus optional sources and optional state columns, one
numpy array per declared field, as :class:`AgentSegment` holds agent
fields. Sources of one type tag whose slots fit in 32 bits are kept as
uint32 slots and that tag, any others as uint64 ids
(:func:`narrow_sources`). COUNT_ONLY keeps the index alone, nothing per edge;
SINGLE_FULL_EDGE keeps one edge per target. EXISTENCE_BIT keeps a bitmap,
one presence byte per target slot: its shards hold targets only (and
producers when the checks are on). Every plan takes one merge,
:func:`build_read_container`, which differs by plan only in what it
keeps of the edges it has ordered by target.
A write shard holds its edges as chunks, in call order, and every chunk
is made by one constructor: per-edge adds go to a tail of ``array.array``
columns, which is moved into a chunk before the next bulk add and at the
merge, as a bulk add's columns are. The chunk keeps one owned copy of
each column the plan stores, sources in their stored form and states as
columns of the declared dtypes, except targets in nondecreasing order in
a shard that records no producers, of which it keeps only their index.
A bulk add reads each id column once, in blocks of ``_BLOCK`` ids that
stay in cache: one pass over the targets tests their order and finds
their runs of equal targets, from which :func:`_build_indptr`, the one
index builder of the adds and the merges, makes the index; one pass over
the sources takes each block's range and casts it into the stored column
(:func:`narrow_sources`). A list plan's sole indexed chunk, with no edge
carried over, becomes the read container as it is, so a graph added in
one sorted bulk call copies its sources and states once and its targets
never; every other merge rebuilds indexed targets with ``np.repeat``.
Every write of agent or edge state passes one contract:
:func:`cast_columns` for columns, :func:`~graphabm.schema.state_row` for
one agent's or one edge's state, each refusing with
:class:`~graphabm.errors.UsageError`. Agent slots are taken by
:meth:`AgentSegment.place` alone. The endpoint and SINGLE_TYPE
checks of a chunk start from one range test on each type's largest id,
:func:`_largest_ids`, and look at each id only when that test fails.

Read containers are read by target slot, ``(tag, slot)``, and answer
every read they are asked. Which reads a plan refuses is decided in one
place, :func:`~graphabm.schema.check_read`, which the view, the batch and
``aggregate`` call before they ask a container.

The edge contracts are checked in one place, the merge, which sees every
worker's edges: at ``commit_initial`` and in each transition, after the
newborns' ids are rewritten and before the endpoint check. Per edge type,
SINGLE_TYPE is reported first (:func:`check_single_type`), in producer
order and each producer's edges in call order, which during
initialization is add order; then SINGLE_EDGE, one report per edge beyond
a target's first, in target order. So the reports do not depend on the
worker count, the partition or the order in which agents ran.

Buffer form: every container gives the arrays it holds as ``buffers()``,
a dict of named numpy arrays, and the class method ``from_buffers(info,
buffers)`` wraps such arrays as a container, rebuilding nothing. A
segment's are ``count``, ``alive`` (mortal types), ``free`` and
``field:<name>`` per field. A CSR container's are ``indptr:<tag>`` per
target type, then the sources when stored, ``source_slots:<tag>``
(uint32) or ``sources`` (uint64 ids), and ``field:<name>`` per state
field; a bitmap's are ``bits:<tag>`` per target type. Each type's index
or bitmap ends at its last slot with an edge, a type without edges has
none, and the sources' form depends on the sources alone, so equal edges
give equal buffers however they were built or swept. The state checksum
hashes this form.

Merge determinism: within a shard, adds appear in producing-agent order
(workers iterate their agents by ascending id); the merge stable-sorts the
concatenated chunk lists by producer and then by target, so every per-target
edge list is ordered by producing-agent id no matter how many workers ran
or in which order agents executed. A sort is skipped when its ids are
already in order. Ids spanning fewer than 2**16 values, such as the
slots of one agent type below 65,536, are sorted as 16-bit
offsets from the smallest, which numpy orders with a radix sort, and
wider spans as they are; a stable sort's permutation is unique, so both
give the same order.
"""

from __future__ import annotations

import array
from typing import NamedTuple

import numpy as np

from .checks import ViolationSink
from .errors import ContractViolation, IndexOverflow, UsageError
from .ids import (
    MAX_SLOT, agent_id, as_ids, local_index, slot_ids, slots_of, split_by_tag, type_tag,
)
from .schema import AgentTypeInfo, EdgePlan, EdgeTypeInfo, state_row

_U64 = np.uint64
_EMPTY_U64 = np.empty(0, dtype=_U64)
_NO_RUNS = np.zeros(1, dtype=np.int64)  # indptr of a type without edges
# Index entries a sorted bulk add may always take in place of its targets;
# past this, only as many as it has targets, so that a target far past
# every slot is copied and rejected by the endpoint check instead of
# sizing an index first.
_INDEX_FLOOR = 1 << 16
# Ids a one-pass scan takes at a time (:func:`_build_indptr`,
# :func:`narrow_sources`): a block, and what is made of it, stay in a
# core's cache while the scan's few operations read it.
_BLOCK = 1 << 16
# Ids the first block of an index scan takes (:func:`_blocks`)
_PROBE = 1 << 10


class EdgeRecord(NamedTuple):
    """One stored incoming edge, as handed to transition functions.

    ``source`` is None when the type drops source ids (IGNORE_FROM);
    ``state`` is None when the type is STATELESS.
    """

    source: int | None
    state: tuple | None
    edge_type: str


def cast_columns(info, columns, n: int | None = None) -> tuple:
    """``columns``, one sequence of values per declared field of an agent or
    edge type (its info), as numpy arrays of the declared dtypes. A column
    count other than the type's, None (which numpy would store as NaN or
    False), a value that does not cast and, given ``n``, a shape other
    than ``(n,)`` raise :class:`UsageError` naming the type and field."""
    count = "none" if columns is None else len(columns)
    if count != len(info.field_names):
        raise UsageError(
            f"{info.kind} type {info.name!r} takes {len(info.field_names)} "
            f"state fields, got {count}"
        )
    out = []
    for name, dt, values in zip(info.field_names, info.dtypes, columns):
        where = f"{info.kind} type {info.name!r}, field {name!r}"
        try:
            if _holds_none(values):
                raise TypeError("None is not a value")
            arr = np.asarray(values, dtype=dt)
        except (TypeError, ValueError, OverflowError) as exc:
            raise UsageError(f"{where}: a value does not cast to {dt}: {exc}") from None
        if n is not None and arr.shape != (n,):
            raise UsageError(f"{where}: expected {n} values, got an array of shape {arr.shape}")
        out.append(arr)
    return tuple(out)


def _holds_none(values) -> bool:
    if isinstance(values, np.ndarray):
        return values.dtype == object and any(v is None for v in values.flat)
    return isinstance(values, (list, tuple)) and any(v is None for v in values)


# ---------------------------------------------------------------------------
# Agent storage
# ---------------------------------------------------------------------------


class AgentSegment:
    """The agents of one type.

    Slots are allocated densely; for mortal types a liveness mask marks dead
    slots and a LIFO free list recycles them.
    """

    __slots__ = ("count", "fields", "alive", "free", "immortal")

    def __init__(self, info: AgentTypeInfo):
        self.count = 0
        self.immortal = info.immortal
        self.fields = {name: np.empty(0, dtype=dt)
                       for name, dt in zip(info.field_names, info.dtypes)}
        self.alive = None if info.immortal else np.zeros(0, dtype=bool)
        self.free: list[int] = []

    # -- placement -----------------------------------------------------------

    def place(self, k: int) -> np.ndarray:
        """Take ``k`` slots, marked alive: the most recently freed first, as
        a LIFO free list pops them, then fresh ones. A negative ``k``, or
        one past ``MAX_SLOT``, raises before anything changes."""
        if k < 0:
            raise UsageError(f"cannot place {k} agents")
        cut = max(len(self.free) - k, 0)
        start = self.count
        end = start + k - (len(self.free) - cut)
        if end > MAX_SLOT:
            raise IndexOverflow("agent index space exhausted for this agent type")
        slots = np.concatenate([np.array(self.free[cut:][::-1], dtype=np.int64),
                                np.arange(start, end, dtype=np.int64)])
        del self.free[cut:]
        held = next(iter(self.fields.values()), self.alive)
        if held is not None and end > held.size:  # grow by doubling
            cap = max(end, 2 * held.size, 16)
            self.fields = {name: _grown(arr, start, cap) for name, arr in self.fields.items()}
            self.alive = None if self.alive is None else _grown(self.alive, start, cap)
        self.count = end
        if self.alive is not None:
            self.alive[slots] = True
        return slots

    def write(self, slots, columns) -> None:
        """Store :func:`cast_columns`' columns at ``slots``."""
        for arr, values in zip(self.fields.values(), columns):
            arr[slots] = values

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

    # -- buffer form -------------------------------------------------------

    def buffers(self) -> dict[str, np.ndarray]:
        """The primary columns, as views: ``count``, the ``alive`` mask of a
        mortal type, the ``free`` list and one ``field:<name>`` per field."""
        n = self.count
        out = {"count": np.array(n, dtype=np.int64)}
        if self.alive is not None:
            out["alive"] = self.alive[:n]
        out["free"] = np.array(self.free, dtype=np.int64)
        for name, arr in self.fields.items():
            out["field:" + name] = arr[:n]
        return out

    @classmethod
    def from_buffers(cls, info: AgentTypeInfo, buffers: dict) -> "AgentSegment":
        """The segment of :meth:`buffers`' columns. It copies them, since a
        segment is written in place."""
        seg = cls(info)
        seg.count = int(buffers["count"])
        seg.fields = {name: buffers["field:" + name].copy() for name in info.field_names}
        if not info.immortal:
            seg.alive = buffers["alive"].copy()
        seg.free = buffers["free"].tolist()
        return seg

    def staged(self, fields: bool, alive: bool) -> "AgentSegment":
        """A segment of this one's agents for a merge to write into: with
        ``fields`` a copy of each field column, with ``alive`` of the
        liveness mask, and this segment's own arrays otherwise, which the
        merge must then leave as they are. The free list is always a copy."""
        seg = AgentSegment.__new__(AgentSegment)
        seg.count, seg.immortal, seg.free = self.count, self.immortal, list(self.free)
        n = self.count
        seg.fields = {name: arr[:n].copy() if fields else arr
                      for name, arr in self.fields.items()}
        seg.alive = self.alive[:n].copy() if alive and self.alive is not None else self.alive
        return seg


def _grown(arr: np.ndarray, n: int, capacity: int) -> np.ndarray:
    """A zeroed array of ``capacity`` items that starts with ``arr[:n]``."""
    new = np.zeros(capacity, dtype=arr.dtype)
    new[:n] = arr[:n]
    return new


# ---------------------------------------------------------------------------
# Write shards (one per edge type per worker per transition)
# ---------------------------------------------------------------------------


class Chunk(NamedTuple):
    """Edges a :class:`ListShard` holds as arrays: uint64 ``targets``, and
    ``sources``, ``states`` and ``producers`` when the shard keeps them;
    ``states`` holds one column per field, of its declared dtype. ``sources`` are
    uint32 slots of type ``source_tag`` when it is set, else uint64 ids.
    Targets a bulk add gave in nondecreasing order may be held as their
    ``index`` alone, in the form of :attr:`ListEdgeRead.indptr`, with
    ``targets`` None."""

    targets: np.ndarray | None
    sources: np.ndarray | None
    states: tuple | None
    producers: np.ndarray | None
    index: dict | None = None
    source_tag: int | None = None

    def target_ids(self) -> np.ndarray:
        """The chunk's targets, rebuilt from its index when it holds one."""
        return self.targets if self.index is None else _index_targets(self.index)


def _ids(sources: np.ndarray, tag: int | None) -> np.ndarray:
    """The ids of a source column in its stored form (:func:`narrow_sources`)."""
    return sources if tag is None else slot_ids(tag, sources)


def narrow_sources(ids: np.ndarray):
    """The stored form of a column of source ids (an array of
    :func:`~graphabm.ids.as_ids`), as ``(column, tag)``: uint32 slots and
    their type tag when every id has that tag and every slot fits in 32
    bits, else uint64 ids and None, as are no ids. It depends on the ids
    alone. Ids that need no cast are returned as they are.

    One pass over ``_BLOCK``-id blocks takes each block's range and casts
    it, while it is in cache, into the new slot column; the first block
    whose range does not fit gives up on it."""
    if not ids.size:
        return _EMPTY_U64, None
    if ids.dtype == np.uint32:
        return ids, 0
    tag = type_tag(int(ids[0]))
    base = _U64(agent_id(tag, 0))
    out = np.empty(ids.size, dtype=np.uint32)
    for lo in range(0, ids.size, _BLOCK):
        block = ids[lo:lo + _BLOCK]
        if (tag and block.min() < base) or (block.max() - base) >> 32:
            return ids, None
        out[lo:lo + _BLOCK] = block  # the low 32 bits of an id are its slot here
    return out, tag


def _join_sources(parts: list):
    """The ``(column, tag)`` parts of a source column, in order, as one,
    in stored form when every non-empty part holds slots of one tag, else
    as ids."""
    parts = [(column, tag) for column, tag in parts if column.size]
    tags = {tag for _, tag in parts}
    if len(tags) == 1 and None not in tags:
        return _concat([column for column, _ in parts]), tags.pop()
    return _concat([_ids(column, tag) for column, tag in parts]), None


def _owned_u64(values) -> np.ndarray:
    """A fresh contiguous uint64 copy of ``values``."""
    return np.array(values, dtype=_U64, order="C")


class ListShard:
    """Write shard of every plan: edges as chunks, then a per-edge tail.

    ``extend``, the bulk write path, keeps its columns as one
    :class:`Chunk`, made by the one constructor ``_add_chunk``: it copies
    each column the plan stores once, into an owned contiguous numpy
    array, states cast by :func:`cast_columns` and sources in their stored
    form (:func:`narrow_sources`), so a chunk never holds a wider copy of
    them; nondecreasing targets in a shard that records no producers are
    kept as their index instead (see ``_INDEX_FLOOR``), so the caller's
    array is neither copied nor referenced. ``add``, the per-edge write
    path, appends to the tail: ``array.array`` columns ``targets``,
    ``sources`` and ``producers`` and a list of state tuples, ``states``.
    A bulk add, and :meth:`seal`, first move the tail through the same
    constructor, then empty it in place, never swapping in a new object,
    since every adder binds the tail's appends once. So the chunks hold
    the edges in call order, all in one form, and the merge takes a sole
    indexed chunk's index and arrays as its container without copying
    them again.

    ``sources`` and ``states`` exist only when the plan stores them, and
    ``producers`` when the caller records producing agents
    (:func:`~graphabm.engine.step_shard`). ``info`` is the edge type,
    whose fields the casts take. A shard stays in the process that wrote
    it: what leaves it is :meth:`seal`'s chunk list.
    """

    __slots__ = ("info", "targets", "sources", "states", "producers", "chunks", "add")

    def __init__(self, info: EdgeTypeInfo, record_producers: bool = False):
        self.info = info
        self.targets = array.array("Q")
        self.sources = array.array("Q") if info.has_source else None
        self.states = [] if info.has_state else None
        self.producers = array.array("Q") if record_producers else None
        self.chunks = []
        # The appends of the present columns are looked up once: ``add`` is
        # the per-edge write path, and a targets-only shard skips the tests.
        t = self.targets.append
        s = None if self.sources is None else self.sources.append
        st = None if self.states is None else self.states.append
        p = None if self.producers is None else self.producers.append

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

    def seal(self) -> list[Chunk]:
        """The shard's chunks, after moving a non-empty tail into one as
        :meth:`extend` adds one. The tail is emptied once the chunk holds
        its copies, so a state that does not cast raises with it intact."""
        if self.targets:
            states = None
            if self.states is not None:
                try:
                    states = tuple(zip(*self.states, strict=True))
                except (TypeError, ValueError):  # a state of another arity
                    for state in self.states:
                        state_row(self.info, state)  # raises at the first
                    raise
            self._add_chunk(self.targets, self.sources, states, self.producers)
            for tail in (self.targets, self.sources, self.states, self.producers):
                if tail is not None:
                    del tail[:]
        return self.chunks

    def extend(self, targets, sources=None, states=None, producers=0):
        """Append edges as one chunk: ``targets`` and ``sources`` are ids
        (:func:`~graphabm.ids.as_ids`), ``states`` holds one column per
        field and ``producers`` one producer per edge or one for all."""
        self.seal()
        self._add_chunk(targets, sources, states, producers)

    def _add_chunk(self, targets, sources, states, producers):
        """Keep a copy of each column the plan stores as one chunk, casting
        the states before any id array is read; the columns may be the
        tail's, which the chunk never references."""
        n = len(targets)
        if self.states is None:
            states = None
        else:
            # a cast array is new; one the cast returned as given is copied
            states = tuple(c.copy() if c is given else c
                           for c, given in zip(cast_columns(self.info, states, n), states))
        if not n:
            return
        where = f"edge type {self.info.name!r}:"
        targets = as_ids(targets, f"{where} targets")
        index = None  # built before the copies below, to keep the peak down
        if self.producers is None:
            index = _build_indptr(targets, max(targets.size, _INDEX_FLOOR))
        source_tag = None
        if self.sources is None:
            sources = None
        else:
            given = as_ids(sources, f"{where} sources")
            sources, source_tag = narrow_sources(given)
            if sources is given:
                sources = sources.copy()
        self.chunks.append(Chunk(
            _owned_u64(targets) if index is None else None,
            sources,
            states,
            None if self.producers is None
            else _owned_u64(np.broadcast_to(np.asarray(producers, dtype=_U64), targets.shape)),
            index,
            source_tag=source_tag,
        ))


# ---------------------------------------------------------------------------
# Read containers (immutable between commits)
# ---------------------------------------------------------------------------


def _concat(parts: list) -> np.ndarray:
    """Chunk columns as one array; a sole chunk's is taken as it is, and
    no chunk gives an empty uint64 column."""
    if not parts:
        return _EMPTY_U64
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def is_nondecreasing(a: np.ndarray) -> bool:
    return a.size < 2 or bool(np.all(a[1:] >= a[:-1]))


def _stable_order(ids: np.ndarray) -> np.ndarray:
    """``np.argsort(ids, kind="stable")``. When the ids span fewer than
    2**16 values they are sorted as 16-bit offsets from the smallest,
    which numpy orders with a radix sort; a stable order is unique, so the
    permutation is the same."""
    if ids.size:
        lo = ids.min()
        if ids.max() - lo < 1 << 16:
            key = ids.astype(np.uint16)  # offsets mod 2**16, which the span keeps exact
            key -= np.uint16(lo & 0xFFFF)
            return np.argsort(key, kind="stable")
    return np.argsort(ids, kind="stable")


def _take(column, idx):
    """``column[idx]`` of a column, or of each column in a tuple of state
    columns; None stays None."""
    if isinstance(column, tuple):
        return tuple(c[idx] for c in column)
    return None if column is None else column[idx]


def run_positions(pos, indptr: np.ndarray):
    """The edge positions that :meth:`ListEdgeRead.runs`' ``pos`` stands
    for: the slice itself, or each run's positions from its start on."""
    if isinstance(pos, slice):
        return pos
    return np.arange(indptr[-1]) + np.repeat(pos - indptr[:-1], np.diff(indptr))


def _build_indptr(targets: np.ndarray, limit: int | None = None) -> dict[int, np.ndarray] | None:
    """Per target type, slot-indexed run starts into ``targets``: one
    entry per slot up to the type's largest target, and one more. None
    when ``targets`` are not in nondecreasing order, or, with nothing
    slot-sized allocated, when the index would take over ``limit``
    entries.

    The types split by a search on tag boundaries, as if the targets were
    in order, which gives each type's entries before anything is read;
    then :func:`_fill_runs` reads each type's targets once. Out of order,
    the split still partitions them, and each search ends between an id
    below the next type's first and one at or above it, so the pair
    across each boundary ascends and the fills, which test every other
    pair, find every decrease."""
    spans = []
    lo, n = 0, targets.size
    last = type_tag(int(targets[-1])) if n else None
    while lo < n:
        tag = type_tag(int(targets[lo]))
        # a type past the last one's is out of order: its span runs to the end
        hi = n if tag >= last else int(np.searchsorted(targets, _U64(agent_id(tag + 1, 0))))
        spans.append((tag, lo, hi, local_index(int(targets[hi - 1])) + 2))
        lo = hi
    if limit is not None and sum(span[3] for span in spans) > limit:
        return None
    indptr = {}
    changed = np.empty(min(n, _BLOCK), dtype=bool)
    for tag, lo, hi, size in spans:
        indptr[tag] = ptr = np.empty(size, dtype=np.int64)
        if not _fill_runs(targets, lo, hi, ptr, changed):
            return None
    return indptr


def _fill_runs(targets: np.ndarray, lo: int, hi: int, ptr: np.ndarray, changed) -> bool:
    """Fill ``ptr``, the index of one type's targets ``targets[lo:hi]``,
    in one pass over the blocks of :func:`_blocks`; False when they are
    out of order. Each block's compare of every target with the one before it
    finds where runs of equal targets start; order is tested on those
    alone, against the type's first and last targets, and each run's
    start fills its slot and the empty slots before it. ``changed`` is
    scratch space of at least ``_BLOCK`` flags, or of the targets'
    size."""
    done = local_index(int(targets[lo]))  # the last entry filled
    ptr[:done + 1] = lo
    for start, end in _blocks(lo + 1, hi):
        at = np.flatnonzero(np.not_equal(targets[start:end], targets[start - 1:end - 1],
                                         out=changed[:end - start]))
        if not at.size:
            continue
        at += start
        head = targets[at]
        if (head[0] < targets[at[0] - 1] or head[-1] > targets[hi - 1]
                or bool((head[1:] < head[:-1]).any())):
            return False
        slots = slots_of(head)
        fill = np.empty(at.size, dtype=np.int64)  # the entries each run start fills
        fill[0] = slots[0] - done
        np.subtract(slots[1:], slots[:-1], out=fill[1:])
        ptr[done + 1:int(slots[-1]) + 1] = np.repeat(at, fill)
        done = int(slots[-1])
    ptr[done + 1] = hi
    return True


def _blocks(lo: int, hi: int):
    """``(start, end)`` of the blocks of ids ``lo..hi`` a scan reads: a
    first one of ``_PROBE`` ids (``_BLOCK`` if fewer), so a scan that
    stops at targets out of order, as a merge of unsorted edges does,
    reads few of them, then ``_BLOCK`` ids each."""
    start, end = lo, min(lo + min(_PROBE, _BLOCK), hi)
    while start < hi:
        yield start, end
        start, end = end, min(end + _BLOCK, hi)


def _index_targets(indptr: dict[int, np.ndarray]) -> np.ndarray:
    """The sorted targets a :func:`_build_indptr` index encodes."""
    return _concat([np.repeat(slot_ids(tag, np.arange(ptr.size - 1)), np.diff(ptr))
                    for tag, ptr in indptr.items()])


class ListEdgeRead:
    """CSR read container of every plan but EXISTENCE_BIT.

    It keeps the index, not a target column: ``indptr`` maps each target
    type tag with edges, ascending, to an int64 array indexed by slot, and
    the edges of slot ``s``, targets sorted, sit at positions
    ``indptr[tag][s]:indptr[tag][s + 1]``. Each array ends at the entry
    after the type's last slot with an edge; a slot past that, such as an
    agent created after the container was built, has no edges.
    ``sources`` is None when the plan drops source ids, and ``states`` is
    None or a tuple of numpy columns, one per declared field. The sources
    are held in the form :func:`narrow_sources` gives them, which the
    constructor makes: uint32 slots of type ``single_source_tag``, or
    uint64 ids with ``single_source_tag`` None. ``source_ids`` and
    ``source_slots`` read them. Per-target runs are ordered by producing
    agent; a SINGLE_FULL_EDGE container holds at most one edge per target,
    and a COUNT_ONLY one only the index. Every read takes a target's type
    tag and slot; a read of what the plan drops is refused before it gets
    here (:func:`~graphabm.schema.check_read`).
    """

    __slots__ = ("info", "indptr", "sources", "states", "single_source_tag", "__weakref__")

    def __init__(self, info: EdgeTypeInfo, indptr: dict, sources, states,
                 source_tag: int | None = None):
        """``sources`` are ids, or with ``source_tag`` the uint32 slots of
        that type."""
        self.info = info
        self.indptr = indptr
        self.states = states
        self.single_source_tag = None
        if sources is not None:
            if source_tag is None or not sources.size:
                sources, source_tag = narrow_sources(_ids(sources, source_tag))
            self.single_source_tag = source_tag
        self.sources = sources

    # -- queries -------------------------------------------------------------

    @property
    def plan(self):
        return self.info.plan

    def n_stored(self) -> int:
        if not self.indptr:
            return 0
        return int(next(reversed(self.indptr.values()))[-1])

    def nbytes(self) -> int:
        """Bytes of the arrays the container holds: index, sources, states."""
        arrays = [*self.indptr.values(), self.sources, *(self.states or ())]
        return sum(a.nbytes for a in arrays if a is not None)

    def span(self, tag: int, slot: int) -> tuple[int, int]:
        """(start, end) positions of the edges of the target at ``slot`` of
        type ``tag``; (0, 0) if none. Every read of one target goes
        through it."""
        ptr = self.indptr.get(tag)
        if ptr is None or slot + 1 >= ptr.size:
            return 0, 0
        return ptr.item(slot), ptr.item(slot + 1)

    def bounds(self, tag: int, slots):
        """Per-slot (starts, ends) edge positions of targets ``slots`` of
        one type, an array or a ``slice(lo, hi)`` of consecutive slots; a
        slot without edges gets an empty run."""
        ptr = self.indptr.get(tag, _NO_RUNS)
        if isinstance(slots, slice):
            width = slots.stop - slots.start + 1
            edge = ptr[slots.start:slots.stop + 1]  # a view, unless slots pass the end
            if edge.size < width:
                edge = np.concatenate([edge, np.full(width - edge.size, ptr[-1])])
            return edge[:-1], edge[1:]
        last = ptr.size - 1
        return ptr[np.minimum(slots, last)], ptr[np.minimum(slots + 1, last)]

    def runs(self, starts: np.ndarray, ends: np.ndarray):
        """``(pos, indptr)`` of the runs of edges ``starts[i]:ends[i]``
        that :meth:`bounds` gives: ``indptr`` holds each run's extent in
        their concatenation, and ``pos`` is one slice of edge positions when
        the runs are back to back, else ``starts`` (:func:`run_positions`
        spells the positions out). Back-to-back runs' extents are their
        starts less the first, which takes no cumsum."""
        indptr = np.empty(starts.size + 1, dtype=np.int64)
        if starts.size and np.array_equal(starts[1:], ends[:-1]):
            np.subtract(starts, starts[0], out=indptr[:-1])
            indptr[-1] = ends[-1] - starts[0]
            return slice(int(starts[0]), int(ends[-1])), indptr
        indptr[0] = 0
        np.cumsum(ends - starts, out=indptr[1:])
        return starts, indptr

    def _slot_runs(self, tag: int, slots: np.ndarray, runs):
        return runs if runs is not None else self.runs(*self.bounds(tag, slots))

    def has_at(self, tag: int, slot: int) -> bool:
        lo, hi = self.span(tag, slot)
        return hi > lo

    def has_for_slots(self, tag: int, slots: np.ndarray, runs=None) -> np.ndarray:
        """Per slot, whether it has an edge; ``runs`` is the slots'
        :meth:`runs`, computed when not given, as for every ``*_for_slots``."""
        indptr = self._slot_runs(tag, slots, runs)[1]
        return indptr[1:] > indptr[:-1]

    def count_at(self, tag: int, slot: int) -> int:
        lo, hi = self.span(tag, slot)
        return hi - lo

    def count_for_slots(self, tag: int, slots: np.ndarray, runs=None) -> np.ndarray:
        return np.diff(self._slot_runs(tag, slots, runs)[1])

    def sources_at(self, tag: int, slot: int) -> np.ndarray:
        return self.source_ids(slice(*self.span(tag, slot)))

    def source_ids(self, pos=slice(None)) -> np.ndarray:
        """Ids (uint64) of the sources at positions ``pos``, a slice or an
        index array, all by default; rebuilt when slots are stored."""
        return _ids(self.sources[pos], self.single_source_tag)

    def source_slots(self, pos) -> np.ndarray:
        """Slots (intp) of the sources at positions ``pos``, a slice or an
        index array, when every source is of ``single_source_tag``. They
        are widened here, as numpy gathers through an intp index faster
        than through a uint32 one."""
        return self.sources[pos].astype(np.intp)

    def states_at(self, tag: int, slot: int) -> list:
        return self.state_tuples(*self.span(tag, slot))

    def state_tuples(self, lo: int = 0, hi: int | None = None) -> list:
        """States of the edges at positions ``lo:hi`` (all by default), in
        target order, as tuples of Python scalars."""
        hi = self.n_stored() if hi is None else hi
        if self.states is None:
            return [()] * (hi - lo)
        return list(zip(*(c[lo:hi].tolist() for c in self.states)))

    def records_for_slots(self, tag: int, slots: np.ndarray, runs=None):
        """``(sources, states, indptr)`` of the edges of targets ``slots``
        of one type, slot after slot; ``sources`` is None without source
        ids, ``states`` (one column per field) when STATELESS."""
        pos, indptr = self._slot_runs(tag, slots, runs)
        pos = run_positions(pos, indptr)
        sources = None if self.sources is None else self.source_ids(pos)
        states = None if self.info.stateless else tuple(c[pos] for c in self.states or ())
        return sources, states, indptr

    def records_at(self, tag: int, slot: int) -> list[EdgeRecord]:
        lo, hi = self.span(tag, slot)
        none = [None] * (hi - lo)
        sources = none if self.sources is None else self.source_ids(slice(lo, hi)).tolist()
        states = none if self.info.stateless else self.state_tuples(lo, hi)
        name = self.info.name
        return [EdgeRecord(src, st, name) for src, st in zip(sources, states)]

    def target_ids(self) -> np.ndarray:
        """The target id of every stored edge, in target order."""
        return _index_targets(self.indptr)

    def edge_endpoints(self):
        if self.sources is None:
            return None
        return self.target_ids(), self.source_ids()

    # -- buffer form -------------------------------------------------------

    def buffers(self) -> dict[str, np.ndarray]:
        """The arrays the container holds: ``indptr:<tag>`` per target type,
        ascending, then the sources when stored, ``source_slots:<tag>`` or
        ``sources``, and one ``field:<name>`` per stored state field."""
        out = {f"indptr:{tag}": ptr for tag, ptr in self.indptr.items()}
        if self.sources is not None:
            tag = self.single_source_tag
            out["sources" if tag is None else f"source_slots:{tag}"] = self.sources
        for name, column in zip(self.info.field_names, self.states or ()):
            out["field:" + name] = column
        return out

    @classmethod
    def from_buffers(cls, info: EdgeTypeInfo, buffers: dict) -> "ListEdgeRead":
        """The container that holds :meth:`buffers`' arrays."""
        indptr, sources, source_tag = {}, buffers.get("sources"), None
        for name, buf in buffers.items():
            kind, _, tag = name.partition(":")
            if kind == "indptr":
                indptr[int(tag)] = buf
            elif kind == "source_slots":
                sources, source_tag = buf, int(tag)
        states = None
        if info.has_state:
            states = tuple(buffers["field:" + name] for name in info.field_names)
        return cls(info, indptr, sources, states, source_tag=source_tag)


class ExistenceEdgeRead:
    """Read container of EXISTENCE_BIT: one presence byte per target slot.

    ``buckets`` maps each target type tag with edges, ascending, to a uint8
    array of 0 or 1 per slot, ending at the type's last set slot. It
    answers presence alone, the one read the plan serves.
    """

    __slots__ = ("info", "buckets")

    def __init__(self, info: EdgeTypeInfo, buckets: dict[int, np.ndarray]):
        self.info = info
        self.buckets = buckets

    @classmethod
    def from_targets(cls, info: EdgeTypeInfo, ids: np.ndarray) -> "ExistenceEdgeRead":
        """The bitmap with the bit of each target id in ``ids`` set."""
        buckets = {}
        for tag, _, slots in split_by_tag(ids):
            bits = buckets[tag] = np.zeros(int(slots.max()) + 1, dtype=np.uint8)
            bits[slots] = 1
        return cls(info, buckets)

    @property
    def plan(self):
        return self.info.plan

    def n_stored(self) -> int:
        return sum(int(np.count_nonzero(b)) for b in self.buckets.values())

    def nbytes(self) -> int:
        """Bytes of the bitmap."""
        return sum(b.nbytes for b in self.buckets.values())

    def has_at(self, tag: int, slot: int) -> bool:
        bucket = self.buckets.get(tag)
        return bucket is not None and slot < bucket.size and bucket[slot] != 0

    def has_for_slots(self, tag: int, slots: np.ndarray, _runs=None) -> np.ndarray:
        out = np.zeros(slots.size, dtype=bool)
        bucket = self.buckets.get(tag)
        if bucket is not None:
            inside = slots < bucket.size
            out[inside] = bucket[slots[inside]] != 0
        return out

    def target_ids(self) -> np.ndarray:
        """The id of every target whose bit is set, ascending."""
        return _concat([slot_ids(tag, np.flatnonzero(bits)) for tag, bits in self.buckets.items()])

    def edge_endpoints(self):
        return None

    def buffers(self) -> dict[str, np.ndarray]:
        """The arrays the container holds: ``bits:<tag>`` per target type,
        ascending."""
        return {f"bits:{tag}": bits for tag, bits in self.buckets.items()}

    @classmethod
    def from_buffers(cls, info: EdgeTypeInfo, buffers: dict) -> "ExistenceEdgeRead":
        """The container that holds :meth:`buffers`' arrays."""
        return cls(info, {int(name[len("bits:"):]): bits for name, bits in buffers.items()})


def drop_dead_edges(container, alive_fn):
    """``container`` without the edges whose target, or stored source, is
    dead (``alive_fn`` maps an id array to a mask); ``container`` itself
    when none is.

    A bitmap is rebuilt from its live targets by its one constructor. A
    CSR container's targets are looked up per slot and their verdicts
    spread over each slot's run of edges; the new index counts the edges
    kept before each run start. Each type's array is then cut after its
    last slot with an edge, and a type left without edges is dropped,
    which is the form a build of the surviving edges gives.
    """
    if isinstance(container, ExistenceEdgeRead):
        ids = container.target_ids()
        live = ids[alive_fn(ids)]
        if live.size == ids.size:
            return container
        return ExistenceEdgeRead.from_targets(container.info, live)
    keep = np.concatenate([np.ones(0, dtype=bool)] + [
        np.repeat(alive_fn(slot_ids(tag, np.arange(ptr.size - 1))), np.diff(ptr))
        for tag, ptr in container.indptr.items()
    ])
    if container.sources is not None:
        keep &= alive_fn(container.source_ids())
    if bool(keep.all()):
        return container
    kept_before = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(keep, out=kept_before[1:])
    indptr = {}
    for tag, ptr in container.indptr.items():
        ptr = kept_before[ptr]
        filled = np.flatnonzero(ptr[1:] > ptr[:-1])
        if filled.size:
            indptr[tag] = ptr[: filled[-1] + 2]
    return ListEdgeRead(container.info, indptr, _take(container.sources, keep),
                        _take(container.states, keep), source_tag=container.single_source_tag)


# ---------------------------------------------------------------------------
# Merge: per-worker chunk lists (+ optional carryover) -> read container
# ---------------------------------------------------------------------------


def _merge_chunks(info: EdgeTypeInfo, chunks: list, carryover):
    """``carryover``'s edges, then the edges of ``chunks``, every worker's
    in worker order, ordered by producer.

    Returns targets, sources, their tag (see :func:`narrow_sources`),
    states, the producers of the chunks' edges (None unless every chunk
    records them) and the number of carried-over edges. ``carryover`` is
    either container kind; both give their targets as ``target_ids``.
    """
    targets = _concat([c.target_ids() for c in chunks])
    sources = source_tag = states = producers = None
    if info.has_source:
        sources, source_tag = _join_sources([(c.sources, c.source_tag) for c in chunks])
    if info.has_state:
        states = tuple(_concat([c.states[i] for c in chunks]) if chunks else np.empty(0, dt)
                       for i, dt in enumerate(info.dtypes))
    if all(c.producers is not None for c in chunks):
        producers = _concat([c.producers for c in chunks])
        if not is_nondecreasing(producers):
            order = _stable_order(producers)
            targets, sources, states = targets[order], _take(sources, order), _take(states, order)
            producers = producers[order]
    retained = 0 if carryover is None else carryover.n_stored()
    if retained:
        targets = np.concatenate([carryover.target_ids(), targets])
        if sources is not None:
            sources, source_tag = _join_sources([
                (carryover.sources, carryover.single_source_tag), (sources, source_tag)])
        if states is not None:
            states = tuple(map(np.concatenate, zip(carryover.states, states)))
    return targets, sources, source_tag, states, producers, retained


def _single_edge_order(info, ordered, order, producers, retained, sink):
    """Over merged targets stable-sorted by target, ``ordered``, at merge
    positions ``order`` (the ``retained`` carried-over edges first, then
    the chunks' edges in producer order): the mask of the edges that a
    later edge to their target follows. With a ``sink``, each edge beyond
    a target's first is reported, in target order, with its producer; a
    retained edge counts as the earliest.
    """
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
    return superseded


def build_read_container(
    info: EdgeTypeInfo,
    chunk_lists: list,
    carryover=None,
    sink: ViolationSink | None = None,
):
    """Merge sealed write shards, one chunk list per worker in worker
    order, after ``carryover``'s edges, into the read container of the
    type's plan; with no chunk and no carryover, the type's empty
    container. With a ``sink``, SINGLE_EDGE breaches are reported to it.

    Every plan takes one merge: :func:`_merge_chunks` puts the edges in
    producer order, kept edges first; a stable sort orders them by
    target, unless they are in order already, which a list plan learns
    from building their index (:func:`_build_indptr`); and the plan's
    projection keeps every edge (the list plans), each target's last
    (SINGLE_FULL_EDGE, where the highest producer's last add wins) or
    each target's bit (EXISTENCE_BIT). The two single
    plans report each edge after a target's first through
    :func:`_single_edge_order`. A sole indexed chunk of a list plan with
    nothing carried over becomes the container as it is, and an
    EXISTENCE_BIT merge without a sink sorts nothing.
    """
    chunks = [c for worker in chunk_lists for c in worker]
    bitmap = info.plan is EdgePlan.EXISTENCE_BIT
    single = bitmap or info.plan is EdgePlan.SINGLE_FULL_EDGE
    carried = carryover is not None and carryover.n_stored()
    if not single and not carried and len(chunks) == 1 and chunks[0].index is not None:
        chunk = chunks[0]
        return ListEdgeRead(info, chunk.index, chunk.sources, chunk.states, chunk.source_tag)
    targets, sources, source_tag, states, producers, retained = _merge_chunks(
        info, chunks, carryover)
    if bitmap and sink is None:
        return ExistenceEdgeRead.from_targets(info, targets)
    # a list plan's targets in order need no sort: their index is built at once
    order, indptr = slice(None), None if single else _build_indptr(targets)
    if indptr is None:
        order = _stable_order(targets)
        targets = targets[order]
        if single:
            last = ~_single_edge_order(info, targets, order, producers, retained, sink)
            if bitmap:
                return ExistenceEdgeRead.from_targets(info, targets)
            order, targets = order[last], targets[last]
        indptr = _build_indptr(targets)
    return ListEdgeRead(info, indptr, _take(sources, order), _take(states, order), source_tag)


def rewrite_ids(chunk_lists: list, old: np.ndarray, new: np.ndarray) -> None:
    """In the targets and sources of each worker's chunk list, replace each
    id found in ``old`` (sorted, uint64) by the id at its position in
    ``new``. An indexed chunk's targets are rebuilt first, and the list
    keeps the chunk with them. Sources held as slots are left as they are:
    ``old`` are provisional ids, whose slots need more than 32 bits."""
    for chunks in chunk_lists:
        for i, chunk in enumerate(chunks):
            chunks[i] = chunk = chunk._replace(targets=chunk.target_ids(), index=None)
            sources = chunk.sources if chunk.source_tag is None else None
            for ids in (chunk.targets, sources):  # the chunk's own arrays
                if ids is not None and ids.size:
                    pos = np.minimum(np.searchsorted(old, ids), old.size - 1)
                    hit = old[pos] == ids
                    ids[hit] = new[pos[hit]]


def same_edges(chunks: list, kept: list) -> bool:
    """Whether the sealed shard ``chunks`` holds what ``kept`` holds, chunk
    for chunk: every column and index array of the same dtype, shape and
    bytes, compared as unsigned integers of the item size, without a copy,
    so -0.0 differs from 0.0 and two NaN payloads differ, and sources of
    the same form."""
    return len(chunks) == len(kept) and all(map(_same_chunk, chunks, kept))


def _same_chunk(a: Chunk, b: Chunk) -> bool:
    if (a.states is None) != (b.states is None) or a.source_tag != b.source_tag:
        return False
    pairs = [(a.targets, b.targets), (a.sources, b.sources), (a.producers, b.producers),
             *zip(a.states or (), b.states or ())]
    if a.index is not None or b.index is not None:
        if a.index is None or b.index is None or list(a.index) != list(b.index):
            return False
        pairs += [(a.index[tag], b.index[tag]) for tag in a.index]
    return all(x is y or _same_bytes(x, y) for x, y in pairs)


_UINTS = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _same_bytes(a, b) -> bool:
    if a is None or b is None or a.dtype != b.dtype or a.shape != b.shape or not (
            a.flags.c_contiguous and b.flags.c_contiguous):
        return False
    kind = _UINTS.get(a.itemsize, np.uint8)
    return bool(np.array_equal(a.reshape(-1).view(kind), b.reshape(-1).view(kind)))


def differs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where two columns of one dtype and length differ, item by item,
    compared as :func:`_same_bytes` compares them."""
    kind = _UINTS[a.itemsize]
    return a.view(kind) != b.view(kind)


def _largest_ids(chunk: Chunk, column: str) -> list | None:
    """Per type, the largest id of a chunk's ``"targets"`` or ``"sources"``,
    where that takes no look at each id: an indexed chunk's targets give
    each type's from the index, sources held as slots give their type's,
    and an array its largest when its smallest is of the same type. None
    when the array's ids are of more than one type.

    A tag is an id's top bits, and a type's allocated slots are 0 to its
    count - 1, with a provisional id above them all, so the ids pass a
    test of their tag or of their existence when these do."""
    if column == "targets" and chunk.index is not None:
        return [agent_id(tag, ptr.size - 2) for tag, ptr in chunk.index.items()]
    if column == "sources" and chunk.source_tag is not None:
        return [agent_id(chunk.source_tag, int(chunk.sources.max()))]
    ids = getattr(chunk, column)
    lo, hi = int(ids.min()), int(ids.max())
    return [hi] if type_tag(lo) == type_tag(hi) else None


def check_single_type(info: EdgeTypeInfo, chunk_lists: list, sink: ViolationSink | None) -> None:
    """Report to ``sink``, unless it is None (checks off), each edge of each
    worker's chunk list whose target is not of the agent type SINGLE_TYPE
    declares: in producer order, each producer's edges in call order. A
    producer runs on one worker, whose chunks hold its edges in call order,
    so a stable sort of the breaches by producer gives that order. The
    edges of a chunk without producers, as during initialization, are
    producer 0's, in add order.

    A chunk passes whole when each type's largest target
    (:func:`_largest_ids`) carries the declared tag; otherwise each
    target's tag is compared.
    """
    tag = info.single_type_tag
    if tag is None or sink is None:
        return
    targets, producers = [], []
    for chunks in chunk_lists:
        for chunk in chunks:
            tops = _largest_ids(chunk, "targets")
            if tops is not None and all(type_tag(top) == tag for top in tops):
                continue
            ids = chunk.target_ids()
            bad = np.flatnonzero(type_tag(ids) != tag)
            targets.append(ids[bad])
            producers.append(np.zeros(bad.size, dtype=_U64) if chunk.producers is None
                             else chunk.producers[bad])
    if not targets:
        return
    producers = _concat(producers)
    order = np.argsort(producers, kind="stable")
    for target, producer in zip(_concat(targets)[order].tolist(), producers[order].tolist()):
        sink.report("single_type", info.name, target, producer,
                    f"edge targets an agent of the wrong type (expected tag {tag})")


def validate_endpoints(info: EdgeTypeInfo, chunk_lists: list, exists_fn) -> None:
    """Ensure every endpoint in each worker's chunk list refers to an agent
    slot that exists.

    ``exists_fn`` maps an id array to a boolean array (allocated slots,
    dead or alive). Dangling *references* are a model bug and fail fast;
    dead endpoints are handled separately by the post-step edge sweep. Run
    before the merge, so that a target far past every slot raises here
    instead of sizing the merged index; carried-over edges were checked
    when they were added, and a slot once allocated stays allocated.

    A column of a chunk passes whole when each type's largest id in it
    (:func:`_largest_ids`) exists; otherwise each id is looked up. The
    error names the smallest bad target across every worker's lists or,
    when no target is bad, the smallest bad source, so it does not depend
    on the worker count.
    """
    for column in ("targets", "sources"):
        bad = []
        for chunks in chunk_lists:
            for chunk in chunks:
                if column == "sources" and chunk.sources is None:
                    continue
                tops = _largest_ids(chunk, column)
                if tops is not None and bool(exists_fn(np.array(tops, dtype=_U64)).all()):
                    continue
                ids = (chunk.target_ids() if column == "targets"
                       else _ids(chunk.sources, chunk.source_tag))
                ok = exists_fn(ids)
                if not bool(ok.all()):
                    bad.append(int(ids[~ok].min()))
        if bad:
            raise ContractViolation(
                f"edge of type {info.name!r} references nonexistent agent {min(bad):#x}"
            )
