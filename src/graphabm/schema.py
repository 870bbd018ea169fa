"""Type declarations: agent types, edge types, hints, and storage plans.

A schema is built once, before the simulation starts, and is immutable
afterwards. Agent and edge types get small integer tags in registration
order; the agent tag is embedded in every agent id of that type.

Edge hints are declared contracts about how a model uses an edge type.
They let the engine pick a leaner storage representation:

======================================  =====================
hints                                   representation
======================================  =====================
(none)                                  FULL_EDGE_LIST
IGNORE_FROM                             STATE_ONLY_LIST
STATELESS                               SOURCE_ONLY_LIST
STATELESS + IGNORE_FROM                 COUNT_ONLY
STATELESS + IGNORE_FROM + SINGLE_EDGE   EXISTENCE_BIT
SINGLE_EDGE (other combinations)        SINGLE_FULL_EDGE
======================================  =====================

SINGLE_TYPE and IGNORE_SOURCE_STATE never change the storage shape;
the former is a target-type contract, the latter only forbids reading
source-agent state. SINGLE_EDGE and SINGLE_TYPE may be combined only
when STATELESS and IGNORE_FROM are also set.

Registration also derives, per edge type, the reads its plan and hints
refuse (``EdgeTypeInfo.refused``), and :func:`check_read` is the one place
a refused read raises :class:`~graphabm.errors.HintViolation`: the view,
the batch and :func:`~graphabm.global_layer.aggregate` call it where each
read enters, and the read containers answer every read they are asked.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DuplicateName, HintViolation, IllegalHintCombination, TooManyTypes, UnknownName, UsageError,
)
from .ids import MAX_AGENT_TYPES


class Hint(enum.Flag):
    """Declared usage contracts for an edge type."""

    NONE = 0
    STATELESS = enum.auto()
    IGNORE_FROM = enum.auto()
    IGNORE_SOURCE_STATE = enum.auto()
    SINGLE_EDGE = enum.auto()
    SINGLE_TYPE = enum.auto()


class EdgePlan(enum.Enum):
    """Storage representation chosen for an edge type."""

    FULL_EDGE_LIST = "full_edge_list"
    SOURCE_ONLY_LIST = "source_only_list"
    STATE_ONLY_LIST = "state_only_list"
    COUNT_ONLY = "count_only"
    EXISTENCE_BIT = "existence_bit"
    SINGLE_FULL_EDGE = "single_full_edge"


_DTYPES = {"int64": np.int64, "float64": np.float64, "bool": np.bool_}


def dtype_for(kind) -> np.dtype:
    """Numpy dtype for a declared scalar kind.

    ``kind`` is one of the strings ``"int64"``, ``"float64"``, ``"bool"``,
    or an ``enum.IntEnum`` subclass (stored as int64).
    """
    if isinstance(kind, type) and issubclass(kind, enum.IntEnum):
        return np.dtype(np.int64)
    try:
        return np.dtype(_DTYPES[kind])
    except KeyError:
        raise UnknownName(f"unsupported scalar kind {kind!r}") from None


def validate_hints(hints: Hint) -> None:
    """Raise unless the hint combination is legal."""
    if Hint.SINGLE_EDGE in hints and Hint.SINGLE_TYPE in hints:
        if not (Hint.STATELESS in hints and Hint.IGNORE_FROM in hints):
            raise IllegalHintCombination(
                "SINGLE_EDGE and SINGLE_TYPE may only be combined when "
                "STATELESS and IGNORE_FROM are also set"
            )


def storage_plan_for(hints: Hint) -> EdgePlan:
    """Map a legal hint set to its storage representation."""
    validate_hints(hints)
    stateless = Hint.STATELESS in hints
    ignore_from = Hint.IGNORE_FROM in hints
    if Hint.SINGLE_EDGE in hints:
        if stateless and ignore_from:
            return EdgePlan.EXISTENCE_BIT
        return EdgePlan.SINGLE_FULL_EDGE
    if stateless and ignore_from:
        return EdgePlan.COUNT_ONLY
    if stateless:
        return EdgePlan.SOURCE_ONLY_LIST
    if ignore_from:
        return EdgePlan.STATE_ONLY_LIST
    return EdgePlan.FULL_EDGE_LIST


def _refused_reads(plan: EdgePlan, hints: Hint) -> dict[str, str]:
    """The reads of an edge type's incoming edges that ``plan`` and
    ``hints`` refuse, each with its reason; every other read is served.
    The reads are ``has``, ``count``, ``sources``, ``states``, ``records``
    (sources and states together) and ``source_state`` (state of the
    agents at the sources)."""
    refused = {}
    if plan is EdgePlan.EXISTENCE_BIT:
        bit = "stores only an existence bit"
        refused.update(count=bit + "; edge multiplicity is not retrievable",
                       sources=bit, states=bit,
                       records=bit + "; edge records are not retrievable")
    elif plan is EdgePlan.SINGLE_FULL_EDGE:
        refused["count"] = "holds at most one edge per target; use has_edge"
    elif plan is EdgePlan.COUNT_ONLY:
        refused["records"] = "stores only per-target counts; edge records are not retrievable"
    if Hint.IGNORE_FROM in hints:
        refused.setdefault("sources", "does not store source ids (IGNORE_FROM)")
    if Hint.STATELESS in hints:
        refused.setdefault("states", "is STATELESS; edges carry no state")
    if Hint.IGNORE_FROM in hints or Hint.IGNORE_SOURCE_STATE in hints:
        refused["source_state"] = "forbids reading source-agent state"
    return refused


def check_read(info: EdgeTypeInfo, kind: str) -> None:
    """Raise :class:`~graphabm.errors.HintViolation` when the edge type
    ``info`` refuses the read ``kind`` (see :func:`_refused_reads`)."""
    reason = info.refused.get(kind)
    if reason is not None:
        raise HintViolation(f"edge type {info.name!r} {reason}")


@dataclass(frozen=True)
class AgentTypeDecl:
    """Declaration of an agent type.

    ``state_layout`` is an ordered list of (field name, scalar kind) pairs
    and may be empty. ``immortal`` promises the engine that agents of this
    type are never removed, so no liveness tracking is needed.
    """

    name: str
    state_layout: tuple = ()
    immortal: bool = False

    def __post_init__(self):
        names = [f for f, _ in self.state_layout]
        if len(set(names)) != len(names):
            raise DuplicateName(f"duplicate field name in {self.name!r}")


@dataclass(frozen=True)
class EdgeTypeDecl:
    """Declaration of an edge type.

    With SINGLE_TYPE, ``single_type_target`` names the agent type that all
    targets of this edge type must have.
    """

    name: str
    state_layout: tuple = ()
    hints: Hint = Hint.NONE
    single_type_target: str | None = None

    def __post_init__(self):
        validate_hints(self.hints)
        if (Hint.SINGLE_TYPE in self.hints) != (self.single_type_target is not None):
            raise IllegalHintCombination(
                "single_type_target must be given exactly when SINGLE_TYPE is set"
            )
        names = [f for f, _ in self.state_layout]
        if len(set(names)) != len(names):
            raise DuplicateName(f"duplicate field name in {self.name!r}")


@dataclass(frozen=True)
class AgentTypeInfo:
    kind = "agent"  # how errors name the type
    decl: AgentTypeDecl
    tag: int
    field_names: tuple[str, ...]
    dtypes: tuple[np.dtype, ...]

    @property
    def name(self) -> str:
        return self.decl.name

    @property
    def immortal(self) -> bool:
        return self.decl.immortal


@dataclass(frozen=True)
class EdgeTypeInfo:
    kind = "edge"  # how errors name the type
    decl: EdgeTypeDecl
    tag: int
    plan: EdgePlan
    # Effective storage/access flags derived from hints and layout.
    has_source: bool
    has_state: bool
    stateless: bool
    single_type_tag: int | None
    field_names: tuple[str, ...]
    dtypes: tuple[np.dtype, ...]
    # read kind -> why the plan and hints refuse it (_refused_reads)
    refused: dict = field(compare=False)

    @property
    def name(self) -> str:
        return self.decl.name

    @property
    def hints(self) -> Hint:
        return self.decl.hints


def state_row(info: AgentTypeInfo | EdgeTypeInfo, state) -> tuple:
    """One agent's or one edge's ``state`` as a tuple of its type's arity,
    the check of every per-agent and per-edge write; anything else raises
    :class:`UsageError` naming the type."""
    try:
        row = tuple(state)
    except TypeError:
        raise UsageError(
            f"{info.kind} type {info.name!r}: expected a state tuple, "
            f"got {type(state).__name__}"
        ) from None
    if len(row) != len(info.field_names):
        raise UsageError(
            f"{info.kind} type {info.name!r} takes {len(info.field_names)} "
            f"state fields, got {len(row)}"
        )
    return row


class Schema:
    """Registry of agent and edge types for one model.

    Types are registered single-threaded before simulation start.
    Registration order determines tags, so replaying the same sequence of
    registrations yields identical tags.
    """

    def __init__(self):
        self.agent_types: list[AgentTypeInfo] = []
        self.edge_types: list[EdgeTypeInfo] = []
        self._by_name: dict[str, AgentTypeInfo | EdgeTypeInfo] = {}
        self._frozen = False

    # -- registration -----------------------------------------------------

    def register_agent_type(self, decl: AgentTypeDecl) -> int:
        """Register an agent type and return its tag."""
        self._check_mutable(decl.name)
        if len(self.agent_types) >= MAX_AGENT_TYPES:
            raise TooManyTypes(f"at most {MAX_AGENT_TYPES} agent types")
        info = AgentTypeInfo(
            decl=decl,
            tag=len(self.agent_types),
            field_names=tuple(f for f, _ in decl.state_layout),
            dtypes=tuple(dtype_for(k) for _, k in decl.state_layout),
        )
        self.agent_types.append(info)
        self._by_name[decl.name] = info
        return info.tag

    def register_edge_type(self, decl: EdgeTypeDecl) -> int:
        """Register an edge type, compute its storage plan, return its tag."""
        self._check_mutable(decl.name)
        plan = storage_plan_for(decl.hints)
        st_tag = None
        if decl.single_type_target is not None:
            target = self._by_name.get(decl.single_type_target)
            if not isinstance(target, AgentTypeInfo):
                raise UnknownName(
                    f"single_type_target {decl.single_type_target!r} is not a "
                    "registered agent type"
                )
            st_tag = target.tag
        stateless = Hint.STATELESS in decl.hints
        has_state = (
            not stateless
            and bool(decl.state_layout)
            and plan in (
                EdgePlan.FULL_EDGE_LIST,
                EdgePlan.STATE_ONLY_LIST,
                EdgePlan.SINGLE_FULL_EDGE,
            )
        )
        info = EdgeTypeInfo(
            decl=decl,
            tag=len(self.edge_types),
            plan=plan,
            has_source=plan in (
                EdgePlan.FULL_EDGE_LIST,
                EdgePlan.SOURCE_ONLY_LIST,
            ) or (plan is EdgePlan.SINGLE_FULL_EDGE and Hint.IGNORE_FROM not in decl.hints),
            has_state=has_state,
            stateless=stateless,
            single_type_tag=st_tag,
            field_names=tuple(f for f, _ in decl.state_layout),
            dtypes=tuple(dtype_for(k) for _, k in decl.state_layout),
            refused=_refused_reads(plan, decl.hints),
        )
        self.edge_types.append(info)
        self._by_name[decl.name] = info
        return info.tag

    def _check_mutable(self, name: str):
        if self._frozen:
            raise DuplicateName("schema is frozen; register types before start")
        if name in self._by_name:
            raise DuplicateName(f"type name {name!r} already registered")

    def freeze(self):
        self._frozen = True

    # -- lookups ----------------------------------------------------------

    def agent_type(self, name: str) -> AgentTypeInfo:
        info = self._by_name.get(name)
        if not isinstance(info, AgentTypeInfo):
            raise UnknownName(f"unknown agent type {name!r}")
        return info

    def edge_type(self, name: str) -> EdgeTypeInfo:
        info = self._by_name.get(name)
        if not isinstance(info, EdgeTypeInfo):
            raise UnknownName(f"unknown edge type {name!r}")
        return info

    def type_by_name(self, name: str) -> AgentTypeInfo | EdgeTypeInfo:
        info = self._by_name.get(name)
        if info is None:
            raise UnknownName(f"unknown type {name!r}")
        return info
