"""graphabm: a typed-graph agent-based simulation engine.

Models declare agent and edge types (with optional storage hints), build an
initial directed graph, and evolve it through synchronous transition
functions: every agent observes its 1-neighborhood at time t and emits its
fragment of the time t+1 graph. Execution can fan out over worker
processes; results are bit-identical for any worker count.

>>> from graphabm import Schema, Simulation, TransitionSpec, apply_transition
"""

from __future__ import annotations

from .checks import Violation
from .engine import TransitionSpec, apply_transition, finalize_step, run
from .errors import (
    ContractViolation,
    DuplicateName,
    DuplicateRasterName,
    EngineError,
    HintViolation,
    IllegalHintCombination,
    IndexOutOfBounds,
    IndexOverflow,
    MidStepMutation,
    ParamFrozen,
    TooManyTypes,
    TypeNotReadable,
    TypeNotWritable,
    UnknownAgentType,
    UnknownName,
    UsageError,
    WorkerError,
)
from .global_layer import aggregate
from .ids import agent_id, local_index, type_tag
from .parallel import (
    Partition,
    cut_edge_counts,
    cut_fraction,
    partition_graph,
)
from .schema import (
    AgentTypeDecl,
    EdgePlan,
    EdgeTypeDecl,
    Hint,
    Schema,
    storage_plan_for,
)
from .sim import Simulation
from .spatial import (
    RasterMap,
    add_raster,
    cell_id,
    connect_raster_neighbors,
    move_to,
)
from .storage import EdgeRecord
from .view import AgentBatch, NeighborhoodView

__version__ = "0.1.0"

__all__ = [
    "AgentBatch",
    "AgentTypeDecl",
    "ContractViolation",
    "DuplicateName",
    "DuplicateRasterName",
    "EdgePlan",
    "EdgeRecord",
    "EdgeTypeDecl",
    "EngineError",
    "Hint",
    "HintViolation",
    "IllegalHintCombination",
    "IndexOutOfBounds",
    "IndexOverflow",
    "MidStepMutation",
    "NeighborhoodView",
    "ParamFrozen",
    "Partition",
    "RasterMap",
    "Schema",
    "Simulation",
    "TooManyTypes",
    "TransitionSpec",
    "TypeNotReadable",
    "TypeNotWritable",
    "UnknownAgentType",
    "UnknownName",
    "UsageError",
    "Violation",
    "WorkerError",
    "add_raster",
    "agent_id",
    "aggregate",
    "apply_transition",
    "cell_id",
    "connect_raster_neighbors",
    "cut_edge_counts",
    "cut_fraction",
    "finalize_step",
    "local_index",
    "move_to",
    "partition_graph",
    "run",
    "storage_plan_for",
    "type_tag",
]
