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

Buffer form: every container gives the arrays it holds as ``buffers()``,
a dict of named numpy arrays, and the class method ``from_buffers(info,
buffers)`` wraps such arrays as a container, rebuilding nothing. A
segment's are ``count``, ``alive`` (mortal types), ``free`` and
``field:<name>`` per field. A CSR container's are ``indptr:<tag>`` per
target type, then ``sources`` and ``field:<name>`` per state field when
stored; a bitmap's are ``bits:<tag>`` per target type. Each type's index
or bitmap ends at its last slot with an edge, and a type without edges
has none, so equal edges give equal buffers however they were built or
swept. The state checksum hashes this form.

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
from .ids import MAX_SLOT, agent_id, local_index, slot_ids, split_by_tag, type_tag
from .schema import AgentTypeInfo, EdgePlan, EdgeTypeInfo

_U64 = np.uint64
_EMPTY_U64 = np.empty(0, dtype=_U64)
_NO_RUNS = np.zeros(1, dtype=np.int64)  # indptr of a type without edges
# Index entries a sorted bulk add may always take in place of its targets;
# past this, only as many as it has targets, so that a target far past
# every slot is copied and rejected by the endpoint check instead of
# sizing an index first.
_INDEX_FLOOR = 1 << 16


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
            if slot >= MAX_SLOT:
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
    in the form of :attr:`ListEdgeRead.indptr`, with ``targets`` None.
    ``source_range``, the smallest and largest source id, is set by
    :func:`validate_endpoints`, which scans them, for the container built
    next, and dropped by :func:`rewrite_ids`, which changes them."""

    targets: np.ndarray | None
    sources: np.ndarray | None
    states: tuple | None
    producers: np.ndarray | None
    index: dict | None = None
    source_range: tuple | None = None

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

    def extend(self, targets, sources=None, states=None, producers=0, ordered=None):
        """Append edges as one chunk: ``states`` holds one column per field
        and ``producers`` one producer per edge or one for all. ``ordered``
        says whether ``targets`` are nondecreasing, when the caller found
        out already."""
        self.seal()
        targets = np.asarray(targets, dtype=_U64)
        if not targets.size:
            return
        index = None  # checked before the copies below, to keep the peak down
        if self.producers is None and (
                is_nondecreasing(targets) if ordered is None else ordered):
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
    lo, hi = (0, 0) if st_tag is None else (agent_id(st_tag, 0), agent_id(st_tag + 1, 0))

    def add(target, source=0, state=None, producer=0):
        if st_tag is not None and not lo <= target < hi:  # not of type st_tag
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
    ordered: bool = False,
) -> None:
    """Report what :func:`make_checked_adder`'s adder reports for adding
    ``targets`` (uint64) in order: one report per offending edge.
    ``producers`` holds edge ``i``'s producer at ``i``, or is one producer
    for all.

    SINGLE_TYPE starts from a range test: a tag is an id's top bits, so
    when the smallest and the largest target carry the declared tag, every
    target does; of ``ordered`` (nondecreasing) targets those are the first
    and the last. Otherwise each target's tag is compared.
    """
    producers = np.broadcast_to(producers, targets.shape)
    tag = info.single_type_tag
    if check_single_type and tag is not None and targets.size:
        lo, hi = (targets[0], targets[-1]) if ordered else (targets.min(), targets.max())
        if type_tag(int(lo)) != tag or type_tag(int(hi)) != tag:
            for i in np.flatnonzero(type_tag(targets) != tag).tolist():
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


def _cat(first, second):
    """``first`` followed by ``second``, for columns as in :func:`_take`."""
    if isinstance(first, tuple):
        return tuple(np.concatenate(pair) for pair in zip(first, second))
    return None if first is None else np.concatenate([first, second])


def run_positions(pos, indptr: np.ndarray):
    """The edge positions that :meth:`ListEdgeRead.runs`' ``pos`` stands
    for: the slice itself, or each run's positions from its start on."""
    if isinstance(pos, slice):
        return pos
    return np.arange(indptr[-1]) + np.repeat(pos - indptr[:-1], np.diff(indptr))


def _build_indptr(targets: np.ndarray, limit: int | None = None) -> dict[int, np.ndarray] | None:
    """Per target type, slot-indexed run starts into sorted ``targets``:
    one entry per slot up to the type's largest target, and one more.
    None, with nothing allocated, when that is over ``limit`` entries.

    A type whose edges are fewer than its entries gets its index by
    counting the edges per slot; any other by one search per slot, which
    costs less there. Both give the same array."""
    spans = []
    lo, n = 0, targets.size
    last = type_tag(int(targets[-1])) if n else None
    while lo < n:
        tag = type_tag(int(targets[lo]))
        hi = n if tag == last else int(np.searchsorted(targets, _U64(agent_id(tag + 1, 0))))
        spans.append((tag, lo, hi, local_index(int(targets[hi - 1])) + 2))
        lo = hi
    if limit is not None and sum(span[3] for span in spans) > limit:
        return None
    indptr = {}
    for tag, lo, hi, size in spans:
        if hi - lo < size:
            counts = np.bincount(local_index(targets[lo:hi]).view(np.int64), minlength=size - 1)
            ptr = np.zeros(size, dtype=np.int64)
            np.cumsum(counts, out=ptr[1:])
            ptr += lo
        else:
            ptr = np.searchsorted(targets[lo:hi], slot_ids(tag, np.arange(size))) + lo
        indptr[tag] = ptr
    return indptr


def _index_targets(indptr: dict[int, np.ndarray]) -> np.ndarray:
    """The sorted targets a :func:`_build_indptr` index encodes."""
    return _concat_u64([np.repeat(slot_ids(tag, np.arange(ptr.size - 1)), np.diff(ptr))
                        for tag, ptr in indptr.items()])


class _ByAgentId:
    """The reads of one target by its agent id: each splits the id and
    asks the slot-keyed read of its name (``has_for`` asks ``has_at``),
    which the view calls with the tag and slot it holds."""

    __slots__ = ()

    def has_for(self, aid: int) -> bool:
        return self.has_at(type_tag(aid), local_index(aid))

    def count_for(self, aid: int) -> int:
        return self.count_at(type_tag(aid), local_index(aid))

    def sources_for(self, aid: int) -> np.ndarray:
        return self.sources_at(type_tag(aid), local_index(aid))

    def states_for(self, aid: int) -> list:
        return self.states_at(type_tag(aid), local_index(aid))

    def records_for(self, aid: int) -> list:
        return self.records_at(type_tag(aid), local_index(aid))


class ListEdgeRead(_ByAgentId):
    """CSR read container of every plan but EXISTENCE_BIT.

    It keeps the index, not a target column: ``indptr`` maps each target
    type tag with edges, ascending, to an int64 array indexed by slot, and
    the edges of slot ``s``, targets sorted, sit at positions
    ``indptr[tag][s]:indptr[tag][s + 1]``. Each array ends at the entry
    after the type's last slot with an edge; a slot past that, such as an
    agent created after the container was built, has no edges.
    ``sources`` (uint64) is None when the plan drops source ids, and
    ``states`` is None or a tuple of numpy columns, one per declared field.
    Per-target runs are ordered by producing agent; a SINGLE_FULL_EDGE
    container holds at most one edge per target, and a COUNT_ONLY one only
    the index, so it answers counts and presence alone.
    ``single_source_tag`` is the type tag of every source when they share
    one, else None; it is found from the smallest and the largest source,
    or from ``source_range`` when the caller knows them.
    """

    __slots__ = ("info", "indptr", "sources", "states", "single_source_tag", "__weakref__")

    def __init__(self, info: EdgeTypeInfo, indptr: dict, sources, states,
                 source_range: tuple | None = None):
        self.info = info
        self.indptr = indptr
        self.sources = sources
        self.states = states
        self.single_source_tag = None
        if sources is not None and sources.size:
            lo, hi = source_range or (int(sources.min()), int(sources.max()))
            if type_tag(lo) == type_tag(hi):
                self.single_source_tag = type_tag(lo)

    @classmethod
    def from_sorted(cls, info: EdgeTypeInfo, targets: np.ndarray, sources, states,
                    source_range: tuple | None = None):
        """The container of edges with sorted ``targets``."""
        return cls(info, _build_indptr(targets), sources, states, source_range)

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
        spells the positions out)."""
        indptr = np.zeros(starts.size + 1, dtype=np.int64)
        np.cumsum(ends - starts, out=indptr[1:])
        if starts.size and np.array_equal(starts[1:], ends[:-1]):
            return slice(int(starts[0]), int(ends[-1])), indptr
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

    def _require_counts(self):
        if self.info.plan is EdgePlan.SINGLE_FULL_EDGE:
            raise HintViolation(
                f"edge type {self.info.name!r} holds at most one edge per target; "
                "use has_edge"
            )

    def count_at(self, tag: int, slot: int) -> int:
        self._require_counts()
        lo, hi = self.span(tag, slot)
        return hi - lo

    def count_for_slots(self, tag: int, slots: np.ndarray, runs=None) -> np.ndarray:
        self._require_counts()
        return np.diff(self._slot_runs(tag, slots, runs)[1])

    def sources_at(self, tag: int, slot: int) -> np.ndarray:
        if self.sources is None:
            raise HintViolation(
                f"edge type {self.info.name!r} does not store source ids (IGNORE_FROM)"
            )
        lo, hi = self.span(tag, slot)
        return self.sources[lo:hi]

    def source_slots(self, pos) -> np.ndarray:
        """Slots (int64) of the sources at positions ``pos``, a slice or an
        index array, when every source is of ``single_source_tag``. Type
        0's ids are their slots, so those are a view."""
        if self.single_source_tag == 0:
            return self.sources.view(np.int64)[pos]
        return local_index(self.sources[pos]).view(np.int64)

    def states_at(self, tag: int, slot: int) -> list:
        if self.info.stateless:
            raise HintViolation(
                f"edge type {self.info.name!r} is STATELESS; edges carry no state"
            )
        return self.state_tuples(*self.span(tag, slot))

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

    def records_for_slots(self, tag: int, slots: np.ndarray, runs=None):
        """``(sources, states, indptr)`` of the edges of targets ``slots``
        of one type, slot after slot; ``sources`` is None without source
        ids, ``states`` (one column per field) when STATELESS."""
        self._require_records()
        pos, indptr = self._slot_runs(tag, slots, runs)
        pos = run_positions(pos, indptr)
        sources = None if self.sources is None else self.sources[pos]
        states = None if self.info.stateless else tuple(c[pos] for c in self.states or ())
        return sources, states, indptr

    def records_at(self, tag: int, slot: int) -> list[EdgeRecord]:
        self._require_records()
        lo, hi = self.span(tag, slot)
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
        """The arrays the container holds: ``indptr:<tag>`` per target type,
        ascending, then ``sources`` when stored and one ``field:<name>``
        per stored state field."""
        out = {f"indptr:{tag}": ptr for tag, ptr in self.indptr.items()}
        if self.sources is not None:
            out["sources"] = self.sources
        for name, column in zip(self.info.field_names, self.states or ()):
            out["field:" + name] = column
        return out

    @classmethod
    def from_buffers(cls, info: EdgeTypeInfo, buffers: dict) -> "ListEdgeRead":
        """The container that holds :meth:`buffers`' arrays."""
        indptr = {int(name[len("indptr:"):]): ptr for name, ptr in buffers.items()
                  if name.startswith("indptr:")}
        states = None
        if info.has_state:
            states = tuple(buffers["field:" + name] for name in info.field_names)
        return cls(info, indptr, buffers.get("sources"), states)


class ExistenceEdgeRead(_ByAgentId):
    """Read container of EXISTENCE_BIT: one presence byte per target slot.

    ``buckets`` maps each target type tag with edges, ascending, to a uint8
    array of 0 or 1 per slot, ending at the type's last set slot.
    """

    __slots__ = ("info", "buckets")

    def __init__(self, info: EdgeTypeInfo, buckets: dict[int, np.ndarray]):
        self.info = info
        self.buckets = buckets

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

    def count_at(self, *_):
        raise HintViolation(
            f"edge type {self.info.name!r} stores only an existence bit; "
            "edge multiplicity is not retrievable"
        )

    def sources_at(self, *_):
        raise HintViolation(
            f"edge type {self.info.name!r} stores only an existence bit"
        )

    states_at = sources_at

    def records_at(self, *_):
        raise HintViolation(
            f"edge type {self.info.name!r} stores only an existence bit; "
            "edge records are not retrievable"
        )

    count_for_slots = count_at
    records_for_slots = records_at

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

    Targets are looked up per slot and their verdicts applied to the
    bitmap, or spread over each slot's run of edges; the new index counts
    the edges kept before each run start. Each type's array is then cut
    after its last slot with an edge, and a type left without edges is
    dropped, which is the form a build of the surviving edges gives.
    """
    if isinstance(container, ExistenceEdgeRead):
        buckets, kept = {}, 0
        for tag, bits in container.buckets.items():
            bits = bits * alive_fn(slot_ids(tag, np.arange(bits.size)))
            set_slots = np.flatnonzero(bits)
            kept += set_slots.size
            if set_slots.size:
                buckets[tag] = bits[: set_slots[-1] + 1]
        if kept == container.n_stored():
            return container
        return ExistenceEdgeRead(container.info, buckets)
    keep = np.concatenate([np.ones(0, dtype=bool)] + [
        np.repeat(alive_fn(slot_ids(tag, np.arange(ptr.size - 1))), np.diff(ptr))
        for tag, ptr in container.indptr.items()
    ])
    if container.sources is not None:
        keep &= alive_fn(container.sources)
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
                        _take(container.states, keep))


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
        if not is_nondecreasing(producers):
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
    carried = carryover is not None and carryover.n_stored()
    ranges = [c.source_range for c in chunks if c.sources is not None]
    source_range = None
    if ranges and None not in ranges and not carried:
        source_range = (min(lo for lo, _ in ranges), max(hi for _, hi in ranges))
    if len(chunks) == 1 and chunks[0].index is not None and not carried:
        states = _merge_states(info, chunks) if info.has_state else None
        return ListEdgeRead(info, chunks[0].index, chunks[0].sources, states, source_range)
    targets, sources, states, _, _ = _merge_list_shards(info, shards, carryover)
    if not is_nondecreasing(targets):
        order = _stable_order(targets)
        targets, sources, states = targets[order], _take(sources, order), _take(states, order)
    return ListEdgeRead.from_sorted(info, targets, sources, states, source_range)


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
    retained = _concat_u64([] if carryover is None else [
        slot_ids(tag, np.flatnonzero(bits))
        for tag, bits in carryover.buckets.items()
    ])
    ids = np.concatenate([retained, targets])
    if sink is not None:
        _single_edge_order(info, ids, producers, retained.size, sink)
    buckets = {}
    for tag, _, slots in split_by_tag(ids):
        buckets[tag] = np.zeros(int(slots.max()) + 1, dtype=np.uint8)
        buckets[tag][slots] = 1
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
    indexed chunk's targets are rebuilt first, and the chunk keeps them;
    a chunk's ``source_range`` is dropped."""
    for shard in shards:
        chunks = shard.seal()
        for i, chunk in enumerate(chunks):
            chunks[i] = chunk = chunk._replace(targets=chunk.target_ids(), index=None,
                                               source_range=None)
            for ids in (chunk.targets, chunk.sources):  # the chunk's own arrays
                if ids is not None and ids.size:
                    pos = np.minimum(np.searchsorted(old, ids), old.size - 1)
                    hit = old[pos] == ids
                    ids[hit] = new[pos[hit]]


def same_edges(shard: ListShard, kept: ListShard) -> bool:
    """Whether ``shard`` holds what ``kept`` holds, chunk for chunk: every
    column and index array of the same dtype, shape and bytes, compared
    as unsigned integers of the item size, without a copy, so -0.0
    differs from 0.0 and two NaN payloads differ. Both are sealed first.
    States kept as Python values, which per-edge adds of a stateful type
    leave, never match, nor do object arrays, whose bytes are references;
    a chunk's ``source_range`` is not compared."""
    ours, theirs = shard.seal(), kept.seal()
    return len(ours) == len(theirs) and all(map(_same_chunk, ours, theirs))


def _same_chunk(a: Chunk, b: Chunk) -> bool:
    if (a.states is None) != (b.states is None):
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
    if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)) or (
        a.dtype != b.dtype or a.shape != b.shape or a.dtype.hasobject
        or not (a.flags.c_contiguous and b.flags.c_contiguous)
    ):
        return False
    kind = _UINTS.get(a.itemsize, np.uint8)
    return bool(np.array_equal(a.reshape(-1).view(kind), b.reshape(-1).view(kind)))


def validate_endpoints(info: EdgeTypeInfo, shards: list, exists_fn) -> None:
    """Ensure every endpoint the shards add refers to an agent slot that
    exists.

    ``exists_fn`` maps an id array to a boolean array (allocated slots,
    dead or alive). Dangling *references* are a model bug and fail fast;
    dead endpoints are handled separately by the post-step edge sweep. Run
    before the merge, so that a target far past every slot raises here
    instead of sizing the merged index; carried-over edges were checked
    when they were added, and a slot once allocated stays allocated.

    A type's allocated slots are 0 to its count - 1, and a provisional id
    sorts above every slot of its type, so a column
    passes whole when the largest id of each type in it exists: an indexed
    chunk's targets give each type's largest from the index, and an array
    passes on its largest when its smallest and largest share one type.
    Otherwise each id is looked up, and the first bad one, shard by shard,
    targets before sources, is named. Each chunk keeps its sources' range
    as its ``source_range``, for the container built next.
    """
    for shard in shards:
        chunks = shard.seal()
        for column in ("targets", "sources"):
            for i, chunk in enumerate(chunks):
                if column == "targets" and chunk.index is not None:
                    tops = [agent_id(tag, ptr.size - 2)
                            for tag, ptr in chunk.index.items()]
                else:
                    arr = getattr(chunk, column)
                    if arr is None:
                        continue
                    lo, hi = int(arr.min()), int(arr.max())
                    if column == "sources":
                        chunks[i] = chunk._replace(source_range=(lo, hi))
                    tops = [hi] if type_tag(lo) == type_tag(hi) else []
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
