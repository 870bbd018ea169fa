"""Data-oriented storage for agents and edges.

The agents of one type live in one :class:`AgentSegment`
(structure-of-arrays plus a liveness mask for mortal types). Edges are
always stored under their *target*: while a transition runs, every worker
appends into its own write shard, a :class:`ListShard` for every plan; at
commit the shards are merged into an immutable read container whose shape
is chosen by the edge type's storage plan.

Edges take one of two shapes. A CSR (compressed sparse row) container,
:class:`ListEdgeRead`, serves every plan but EXISTENCE_BIT: it holds the
index, not a target column (per target type, the run start of each
slot's edges), plus optional source ids and optional state columns, one
numpy array per declared field, as :class:`AgentSegment` holds agent
fields. COUNT_ONLY keeps the index alone, nothing per edge;
SINGLE_FULL_EDGE keeps one edge per target. EXISTENCE_BIT keeps a bitmap,
one presence byte per target slot: its shards hold targets only (and
producers when SINGLE_EDGE is checked), and the merge sets their bits.
A write shard holds its edges as chunks, in call order: a bulk add copies
each column the plan keeps once, into an owned contiguous numpy array,
except targets given in nondecreasing order to a shard that records no
producers, of which the chunk keeps only their index; per-edge adds go to
a tail of ``array.array`` columns, which is moved into a chunk and
emptied in place before the next bulk add and at the merge. A sole
indexed chunk becomes the read container as it is, so a graph added in
one sorted bulk call copies its sources and states once and its targets
never; every other merge rebuilds indexed targets with ``np.repeat``.
Shards keep edge states as the model passed them, per-edge tuples or the
columns of a bulk add; the merge casts each field once with
:func:`cast_columns`, the cast every agent write path uses too, and a
value that does not cast raises :class:`~graphabm.errors.UsageError`. The
endpoint and SINGLE_TYPE checks of a chunk start from a range test on its
largest ids (an index gives each type's for free) and look at each
id only when that test fails.

SINGLE_EDGE is checked where every edge is seen. During initialization an
EXISTENCE_BIT duplicate is flagged at the call, and a SINGLE_FULL_EDGE one
at commit; in a transition both are flagged at the merge, one report per
edge beyond a target's first at any worker count.

Buffer form: every container gives its primary columns as ``buffers()``,
a dict of named numpy arrays, and the class method ``from_buffers(info,
buffers)`` rebuilds it and any derived index. A segment's are ``count``,
``alive`` (mortal types), ``free`` and ``field:<name>`` per field; an edge
container's hold one entry per edge: ``targets`` (the set ids of a bitmap;
a CSR container rebuilds them from its index), ``sources`` and
``field:<name>`` per state field when stored. The state checksum, the
dead-edge sweep and the existence build read this form; the checksum
reads a CSR container's targets block by block
(:meth:`ListEdgeRead.target_blocks`), the same bytes without the whole
column.

Merge determinism: within a shard, adds appear in producing-agent order
(workers iterate their agents by ascending id); the merge stable-sorts the
concatenated shards by producer and then by target, so every per-target
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
from typing import Callable, NamedTuple

import numpy as np

from .checks import ViolationSink
from .errors import ContractViolation, HintViolation, IndexOverflow, UsageError
from .ids import MAX_INDEX, SLOT_MASK, TAG_SHIFT, split_by_tag
from .schema import AgentTypeInfo, EdgePlan, EdgeTypeInfo

_U64 = np.uint64
_EMPTY_U64 = np.empty(0, dtype=_U64)
_NO_RUNS = np.zeros(1, dtype=np.int64)  # indptr of a type without edges
# Index entries a sorted bulk add may always take in place of its targets;
# past this, only as many as it has targets, so that a target far past
# every slot is copied and rejected by the endpoint check instead of
# sizing an index first.
_INDEX_FLOOR = 1 << 16
# Edges per block of :meth:`ListEdgeRead.target_blocks`.
_TARGET_BLOCK = 1 << 16


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
    """The agents of one type.

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
                raise IndexOverflow("agent index space exhausted for this agent type")
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


# ---------------------------------------------------------------------------
# Write shards (one per edge type per worker per transition)
# ---------------------------------------------------------------------------


class Chunk(NamedTuple):
    """Edges a :class:`ListShard` holds as arrays: uint64 ``targets``, and
    ``sources`` and ``producers`` when the shard keeps them; ``states``
    holds one sequence per field, which the merge casts. Targets a bulk
    add gave in nondecreasing order may be held as their ``index`` alone,
    in the form of :attr:`ListEdgeRead.indptr`, with ``targets`` None."""

    targets: np.ndarray | None
    sources: np.ndarray | None
    states: tuple | None
    producers: np.ndarray | None
    index: dict | None = None

    def target_ids(self) -> np.ndarray:
        """The chunk's targets, rebuilt from its index when it holds one."""
        return self.targets if self.index is None else _index_targets(self.index)


def _owned_u64(values) -> np.ndarray:
    """A fresh contiguous uint64 copy of ``values``."""
    return np.array(values, dtype=_U64, order="C")


def _drain(tail: array.array | None) -> np.ndarray | None:
    """A copy of a tail column as uint64, emptying the column in place."""
    if tail is None:
        return None
    out = np.frombuffer(tail, dtype=_U64).copy()
    del tail[:]
    return out


class ListShard:
    """Write shard of every plan: edges as chunks, then a per-edge tail.

    ``extend``, the bulk write path, copies each column it is given once,
    into an owned contiguous numpy array, and keeps the copies as one
    :class:`Chunk`; nondecreasing targets in a shard that records no
    producers are kept as their index instead (see ``_INDEX_FLOOR``), so
    the caller's array is neither copied nor referenced. ``add``, the
    per-edge write path, appends to the tail: ``array.array`` columns
    ``targets``, ``sources`` and ``producers`` and a list of state tuples,
    ``states``. A bulk add, and :meth:`seal`, first move the tail into a
    chunk and empty it in place, never swapping in a new object, since
    every adder binds the tail's appends once. So the chunks hold the edges
    in call order, and the merge takes a sole indexed chunk's index and
    arrays as its container without copying them again.

    ``sources``, ``states`` and ``producers`` exist only when the plan
    stores them or the caller records producing agents; COUNT_ONLY keeps
    targets alone, and so does EXISTENCE_BIT unless producers are recorded.
    """

    __slots__ = ("targets", "sources", "states", "producers", "chunks", "add")

    def __init__(self, info: EdgeTypeInfo, record_producers: bool = False):
        self._bind(
            array.array("Q"),
            array.array("Q") if info.has_source else None,
            [] if info.has_state else None,
            array.array("Q")
            if record_producers and info.plan is not EdgePlan.COUNT_ONLY
            else None,
            [],
        )

    def _bind(self, targets, sources, states, producers, chunks):
        self.targets, self.sources = targets, sources
        self.states, self.producers = states, producers
        self.chunks = chunks
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
        return self.targets, self.sources, self.states, self.producers, self.chunks

    def __setstate__(self, columns):
        self._bind(*columns)

    def seal(self) -> list[Chunk]:
        """The shard's chunks, after moving a non-empty tail into one."""
        if self.targets:
            columns = None
            if self.states is not None:
                columns = tuple(zip(*self.states))
                del self.states[:]
            self.chunks.append(Chunk(_drain(self.targets), _drain(self.sources),
                                     columns, _drain(self.producers)))
        return self.chunks

    def extend(self, targets, sources=None, states=None, producers=0):
        """Append edges as one chunk: ``states`` holds one column per field
        and ``producers`` one producer per edge or one for all."""
        self.seal()
        targets = np.asarray(targets, dtype=_U64)
        if not targets.size:
            return
        index = None  # checked before the copies below, to keep the peak down
        if self.producers is None and _is_nondecreasing(targets):
            index = _build_indptr(targets, max(targets.size, _INDEX_FLOOR))
        self.chunks.append(Chunk(
            _owned_u64(targets) if index is None else None,
            None if self.sources is None else _owned_u64(sources),
            # arrays are copied; a sequence of values is cast into a new array
            None if self.states is None
            else tuple(np.array(c) if isinstance(c, np.ndarray) else c for c in states),
            None if self.producers is None
            else _owned_u64(np.broadcast_to(np.asarray(producers, dtype=_U64), targets.shape)),
            index,
        ))


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
        if st_tag is not None and target >> TAG_SHIFT != st_tag:
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
    ``targets`` (uint64) in order: one report per offending edge.
    ``producers`` holds edge ``i``'s producer at ``i``, or is one producer
    for all.

    SINGLE_TYPE starts from a range test: a tag is an id's top bits, so
    when the smallest and the largest target carry the declared tag, every
    target does. Otherwise each target's tag is compared.
    """
    producers = np.broadcast_to(producers, targets.shape)
    tag = info.single_type_tag
    if check_single_type and tag is not None and targets.size and (
        int(targets.min()) >> TAG_SHIFT != tag or int(targets.max()) >> TAG_SHIFT != tag
    ):
        for i in np.flatnonzero((targets >> _U64(TAG_SHIFT)) != _U64(tag)).tolist():
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
    """Chunk columns as one array; a sole chunk's is taken as it is."""
    if not parts:
        return _EMPTY_U64
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _is_nondecreasing(a: np.ndarray) -> bool:
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


def _cat(first, second):
    """``first`` followed by ``second``, for columns as in :func:`_take`."""
    if isinstance(first, tuple):
        return tuple(np.concatenate(pair) for pair in zip(first, second))
    return None if first is None else np.concatenate([first, second])


def _build_indptr(targets: np.ndarray, limit: int | None = None) -> dict[int, np.ndarray] | None:
    """Per target type, slot-indexed run starts into sorted ``targets``:
    one entry per slot up to the type's largest target, and one more.
    None, with nothing allocated, when that is over ``limit`` entries."""
    spans = []
    lo, n = 0, targets.size
    while lo < n:
        tag = int(targets[lo]) >> TAG_SHIFT
        end_key = (tag + 1) << TAG_SHIFT
        hi = n if end_key >= 1 << 64 else int(np.searchsorted(targets, _U64(end_key)))
        spans.append((tag, lo, hi, (int(targets[hi - 1]) & SLOT_MASK) + 2))
        lo = hi
    if limit is not None and sum(span[3] for span in spans) > limit:
        return None
    out = {}
    for tag, lo, hi, size in spans:
        keys = _U64(tag << TAG_SHIFT) + np.arange(size, dtype=_U64)
        out[tag] = np.searchsorted(targets[lo:hi], keys) + lo
    return out


def _index_targets(indptr: dict[int, np.ndarray]) -> np.ndarray:
    """The sorted targets a :func:`_build_indptr` index encodes."""
    return _concat_u64([
        np.repeat(_U64(tag << TAG_SHIFT) + np.arange(ptr.size - 1, dtype=_U64), np.diff(ptr))
        for tag, ptr in indptr.items()
    ])


class ListEdgeRead:
    """CSR read container of every plan but EXISTENCE_BIT.

    It keeps the index, not a target column: ``indptr`` maps each target
    type tag to an int64 array indexed by slot, and the edges of slot
    ``s``, targets sorted, sit at positions
    ``indptr[tag][s]:indptr[tag][s + 1]``. A slot past the end of its
    array, such as an agent created after the container was built, has no
    edges. ``sources`` (uint64) is None when the plan drops source ids, and
    ``states`` is None or a tuple of numpy columns, one per declared field.
    Per-target runs are ordered by producing agent; a SINGLE_FULL_EDGE
    container holds at most one edge per target, and a COUNT_ONLY one only
    the index, so it answers counts and presence alone.
    ``single_source_tag`` is the type tag of every source when they share
    one, else None.
    """

    __slots__ = ("info", "indptr", "sources", "states", "single_source_tag")

    def __init__(self, info: EdgeTypeInfo, indptr: dict, sources, states):
        self.info = info
        self.indptr = indptr
        self.sources = sources
        self.states = states
        self.single_source_tag = None
        if sources is not None and sources.size:
            tag = int(sources.min()) >> TAG_SHIFT
            if tag == int(sources.max()) >> TAG_SHIFT:
                self.single_source_tag = tag

    @classmethod
    def from_sorted(cls, info: EdgeTypeInfo, targets: np.ndarray, sources, states):
        """The container of edges with sorted ``targets``."""
        return cls(info, _build_indptr(targets), sources, states)

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

    def span(self, aid: int) -> tuple[int, int]:
        """(start, end) positions of one target's edges; (0, 0) if none."""
        ptr = self.indptr.get(aid >> TAG_SHIFT)
        slot = aid & SLOT_MASK
        if ptr is None or slot + 1 >= ptr.size:
            return 0, 0
        return ptr.item(slot), ptr.item(slot + 1)

    def bounds(self, tag: int, slots: np.ndarray):
        """Per-slot (starts, ends) edge positions of targets of one type; a
        slot without edges gets an empty run."""
        ptr = self.indptr.get(tag, _NO_RUNS)
        last = ptr.size - 1
        return ptr[np.minimum(slots, last)], ptr[np.minimum(slots + 1, last)]

    def runs(self, tag: int, slots: np.ndarray):
        """``(pos, indptr)``: the positions of the edges of targets ``slots``
        of one type, slot after slot, and each slot's run in them."""
        starts, ends = self.bounds(tag, slots)
        counts = ends - starts
        indptr = np.zeros(slots.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        if slots.size and np.array_equal(starts[1:], ends[:-1]):
            return slice(int(starts[0]), int(ends[-1])), indptr  # one run of edges
        return np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], counts), indptr

    def has_for(self, aid: int) -> bool:
        lo, hi = self.span(aid)
        return hi > lo

    def has_for_slots(self, tag: int, slots: np.ndarray) -> np.ndarray:
        starts, ends = self.bounds(tag, slots)
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

    def count_for_slots(self, tag: int, slots: np.ndarray) -> np.ndarray:
        self._require_counts()
        starts, ends = self.bounds(tag, slots)
        return ends - starts

    def sources_for(self, aid: int) -> np.ndarray:
        if self.sources is None:
            raise HintViolation(
                f"edge type {self.info.name!r} does not store source ids (IGNORE_FROM)"
            )
        lo, hi = self.span(aid)
        return self.sources[lo:hi]

    def source_slots(self, pos) -> np.ndarray:
        """Slots (int64) of the sources at positions ``pos``, a slice or an
        index array, when every source is of ``single_source_tag``. Type
        0's ids are their slots, so those are a view."""
        if self.single_source_tag == 0:
            return self.sources.view(np.int64)[pos]
        return (self.sources[pos] & _U64(SLOT_MASK)).view(np.int64)

    def states_for(self, aid: int) -> list:
        if self.info.stateless:
            raise HintViolation(
                f"edge type {self.info.name!r} is STATELESS; edges carry no state"
            )
        return self.state_tuples(*self.span(aid))

    def state_tuples(self, lo: int = 0, hi: int | None = None) -> list:
        """States of the edges at positions ``lo:hi`` (all by default), in
        target order, as tuples of Python scalars."""
        hi = self.n_stored() if hi is None else hi
        if self.states is None:
            return [()] * (hi - lo)
        return list(zip(*(c[lo:hi].tolist() for c in self.states)))

    def _require_records(self):
        if self.info.plan is EdgePlan.COUNT_ONLY:
            raise HintViolation(
                f"edge type {self.info.name!r} stores only per-target counts; "
                "edge records are not retrievable"
            )

    def records_for_slots(self, tag: int, slots: np.ndarray):
        """``(sources, states, indptr)`` of the edges of targets ``slots``
        of one type, as :meth:`runs` orders them; ``sources`` is None
        without source ids, ``states`` (one column per field) when
        STATELESS."""
        self._require_records()
        pos, indptr = self.runs(tag, slots)
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
        return _index_targets(self.indptr), self.sources

    # -- buffer form -------------------------------------------------------

    def buffers(self) -> dict[str, np.ndarray]:
        """The primary columns: ``targets``, rebuilt from the index, then
        :meth:`stored_columns`."""
        return {"targets": _index_targets(self.indptr), **self.stored_columns()}

    def stored_columns(self) -> dict[str, np.ndarray]:
        """The primary columns but ``targets``: ``sources`` when stored and
        one ``field:<name>`` per stored state field."""
        out = {}
        if self.sources is not None:
            out["sources"] = self.sources
        for name, column in zip(self.info.field_names, self.states or ()):
            out["field:" + name] = column
        return out

    def target_blocks(self):
        """``buffers()["targets"]`` in consecutive blocks of whole slots,
        each of about ``_TARGET_BLOCK`` edges or one slot's edges, so that
        a reader never holds the whole column."""
        for tag, ptr in self.indptr.items():
            base = _U64(tag << TAG_SHIFT)
            starts = np.arange(ptr[0], ptr[-1], _TARGET_BLOCK)
            cuts = np.searchsorted(ptr, starts, side="right") - 1
            cuts = np.unique(np.append(cuts, ptr.size - 1)).tolist()
            for lo, hi in zip(cuts, cuts[1:]):
                yield np.repeat(base + np.arange(lo, hi, dtype=_U64), np.diff(ptr[lo: hi + 1]))

    @classmethod
    def from_buffers(cls, info: EdgeTypeInfo, buffers: dict) -> "ListEdgeRead":
        """The container of :meth:`buffers`' columns, ``targets`` sorted,
        with its index rebuilt."""
        states = None
        if info.has_state:
            states = tuple(buffers["field:" + name] for name in info.field_names)
        return cls.from_sorted(info, buffers["targets"], buffers.get("sources"), states)


class ExistenceEdgeRead:
    """Read container of EXISTENCE_BIT: one presence byte per target slot."""

    __slots__ = ("info", "buckets")

    def __init__(self, info: EdgeTypeInfo, buckets: dict[int, np.ndarray]):
        self.info = info
        self.buckets = buckets  # type tag -> uint8 array of presence bits

    @property
    def plan(self):
        return self.info.plan

    def n_stored(self) -> int:
        return sum(int(np.count_nonzero(b)) for b in self.buckets.values())

    def nbytes(self) -> int:
        """Bytes of the bitmap."""
        return sum(b.nbytes for b in self.buckets.values())

    def has_for(self, aid: int) -> bool:
        bucket = self.buckets.get(aid >> TAG_SHIFT)
        if bucket is None:
            return False
        idx = aid & SLOT_MASK
        return idx < bucket.size and bucket[idx] != 0

    def has_for_slots(self, tag: int, slots: np.ndarray) -> np.ndarray:
        out = np.zeros(slots.size, dtype=bool)
        bucket = self.buckets.get(tag)
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

    def buffers(self) -> dict[str, np.ndarray]:
        """The one primary column: ``targets``, the ids whose bit is set,
        ascending."""
        return {"targets": np.concatenate([_EMPTY_U64] + [
            _U64(tag << TAG_SHIFT) + np.flatnonzero(self.buckets[tag]).astype(_U64)
            for tag in sorted(self.buckets)
        ])}

    @classmethod
    def from_buffers(cls, info: EdgeTypeInfo, buffers: dict) -> "ExistenceEdgeRead":
        """Set the bit of every id in ``targets``, in any order and with
        repeats."""
        buckets = {}
        for tag, _, slots in split_by_tag(buffers["targets"]):
            bits = np.zeros(int(slots.max()) + 1, dtype=np.uint8)
            bits[slots] = 1
            buckets[tag] = bits
        return cls(info, buckets)


def drop_dead_edges(container, alive_fn):
    """``container`` without the edges whose target, or stored source, is
    dead (``alive_fn`` maps an id array to a mask): its endpoint buffers
    are masked and the container is rebuilt from them."""
    buffers = container.buffers()
    keep = alive_fn(buffers["targets"])
    if "sources" in buffers:
        keep &= alive_fn(buffers["sources"])
    if bool(keep.all()):
        return container
    return type(container).from_buffers(
        container.info, {name: column[keep] for name, column in buffers.items()}
    )


# ---------------------------------------------------------------------------
# Merge: shards (+ optional carryover) -> read container
# ---------------------------------------------------------------------------


def _merge_states(info: EdgeTypeInfo, chunks: list) -> tuple:
    """The chunks' state columns, each cast, in write order."""
    cast = [cast_columns(info, c.states) for c in chunks]
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
    chunks = [c for s in shards for c in s.seal()]
    targets = _concat_u64([c.target_ids() for c in chunks])
    sources = _concat_u64([c.sources for c in chunks]) if info.has_source else None
    states = producers = None
    if info.has_state:
        states = _merge_states(info, chunks)
    if all(s.producers is not None for s in shards):
        producers = _concat_u64([c.producers for c in chunks])
        if not _is_nondecreasing(producers):
            order = _stable_order(producers)
            targets, sources, states = targets[order], _take(sources, order), _take(states, order)
            producers = producers[order]
    retained = 0
    if carryover is not None and carryover.n_stored():
        retained = carryover.n_stored()
        targets = np.concatenate([_index_targets(carryover.indptr), targets])
        sources = _cat(carryover.sources, sources)
        states = _cat(carryover.states, states)
    return targets, sources, states, producers, retained


def build_list_read(
    info: EdgeTypeInfo, shards: list, carryover: ListEdgeRead | None
) -> ListEdgeRead:
    """A sole indexed chunk and no carried-over edge: the chunk's index and
    columns as they are. Otherwise the merged edges, sorted by target."""
    chunks = [c for s in shards for c in s.seal()]
    if len(chunks) == 1 and chunks[0].index is not None and not (
        carryover is not None and carryover.n_stored()
    ):
        states = _merge_states(info, chunks) if info.has_state else None
        return ListEdgeRead(info, chunks[0].index, chunks[0].sources, states)
    targets, sources, states, _, _ = _merge_list_shards(info, shards, carryover)
    if not _is_nondecreasing(targets):
        order = _stable_order(targets)
        targets, sources, states = targets[order], _take(sources, order), _take(states, order)
    return ListEdgeRead.from_sorted(info, targets, sources, states)


def _single_edge_order(info, targets, producers, retained, sink):
    """Stable-sort merged ``targets``: the ``retained`` carried-over edges
    first, then the shards' edges in producer order.

    Returns the sort ``order`` and a mask over the sorted edges marking
    each one a later edge to its target follows. With a ``sink``, each
    edge beyond a target's first is reported, in target order, with its
    producer; a retained edge counts as the earliest.
    """
    order = _stable_order(targets)
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
    """Set the bit of every target of the shards and of ``carryover``."""
    targets, _, _, producers, _ = _merge_list_shards(info, shards, None)
    retained = _EMPTY_U64 if carryover is None else carryover.buffers()["targets"]
    ids = np.concatenate([retained, targets])
    if sink is not None:
        _single_edge_order(info, ids, producers, retained.size, sink)
    return ExistenceEdgeRead.from_buffers(info, {"targets": ids})


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
    return ListEdgeRead.from_sorted(info, targets[kept], _take(sources, kept), _take(states, kept))


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


def rewrite_ids(shards: list, old: np.ndarray, new: np.ndarray) -> None:
    """In the shards' targets and sources, replace each id found in
    ``old`` (sorted, uint64) by the id at its position in ``new``. An
    indexed chunk's targets are rebuilt first, and the chunk keeps them."""
    for shard in shards:
        chunks = shard.seal()
        for i, chunk in enumerate(chunks):
            chunks[i] = chunk = chunk._replace(targets=chunk.target_ids(), index=None)
            for ids in (chunk.targets, chunk.sources):  # the chunk's own arrays
                if ids is not None and ids.size:
                    pos = np.minimum(np.searchsorted(old, ids), old.size - 1)
                    hit = old[pos] == ids
                    ids[hit] = new[pos[hit]]


def validate_endpoints(info: EdgeTypeInfo, shards: list, exists_fn) -> None:
    """Ensure every endpoint the shards add refers to an agent slot that
    exists.

    ``exists_fn`` maps an id array to a boolean array (allocated slots,
    dead or alive). Dangling *references* are a model bug and fail fast;
    dead endpoints are handled separately by the post-step edge sweep. Run
    before the merge, so that a target far past every slot raises here
    instead of sizing the merged index; carried-over edges were checked
    when they were added, and a slot once allocated stays allocated.

    A type's allocated slots are 0 to its count - 1, and an id with a
    partition other than 0 sorts above every slot of its type, so a column
    passes whole when the largest id of each type in it exists: an indexed
    chunk's targets give each type's largest from the index, and an array
    passes on its largest when its smallest and largest share one type. Otherwise each id is looked up, and the first bad one,
    shard by shard, targets before sources, is named.
    """
    for shard in shards:
        chunks = shard.seal()
        for column in ("targets", "sources"):
            for chunk in chunks:
                if column == "targets" and chunk.index is not None:
                    tops = [(tag << TAG_SHIFT) | (ptr.size - 2)
                            for tag, ptr in chunk.index.items()]
                else:
                    arr = getattr(chunk, column)
                    if arr is None:
                        continue
                    hi = int(arr.max())
                    tops = [hi] if int(arr.min()) >> TAG_SHIFT == hi >> TAG_SHIFT else []
                if tops and bool(exists_fn(np.array(tops, dtype=_U64)).all()):
                    continue
                arr = chunk.target_ids() if column == "targets" else chunk.sources
                ok = exists_fn(arr)
                if not bool(ok.all()):
                    bad = int(arr[np.flatnonzero(~ok)[0]])
                    raise ContractViolation(
                        f"edge of type {info.name!r} references nonexistent "
                        f"agent {bad:#x}"
                    )
