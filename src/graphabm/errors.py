"""Exception taxonomy for the engine.

Everything raised by graphabm derives from :class:`EngineError`, so callers
can catch one base class. Contract breaches detected by the runtime checks
raise :class:`ContractViolation` (or are recorded, in warn mode).
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all graphabm errors."""


class DuplicateName(EngineError):
    """A type, raster, or other named entity was registered twice."""


class TooManyTypes(EngineError):
    """The agent-type tag space (8 bits, 255 types) is exhausted."""


class IllegalHintCombination(EngineError):
    """The declared edge hints cannot be combined."""


class UnknownName(EngineError):
    """Lookup of an unregistered type, parameter, global, or raster."""


class UnknownAgentType(UnknownName):
    """An agent-type name that is not registered in the schema."""


class TypeNotWritable(EngineError):
    """Write effect on a type outside the transition's write set."""


class TypeNotReadable(EngineError):
    """Neighborhood query on a type outside the transition's read set."""


class HintViolation(EngineError):
    """Query or access that the type's hints make unanswerable."""


class ContractViolation(EngineError):
    """A runtime check detected a breach of a declared contract."""


class ParamFrozen(EngineError):
    """Parameter mutation after the simulation has started stepping."""


class MidStepMutation(EngineError):
    """Global value mutation while a transition is in flight."""


class IndexOverflow(EngineError):
    """An agent index or partition number exceeds its bit-field range."""


class IndexOutOfBounds(EngineError):
    """A Cartesian index outside a raster's extents."""


class DuplicateRasterName(DuplicateName):
    """A raster name that is already in use."""


class UsageError(EngineError):
    """Engine API called outside its valid phase or with bad arguments."""


class WorkerError(EngineError):
    """A worker process ended without returning its result.

    ``worker`` is the worker id and ``exitcode`` its exit status; a
    negative exit code is the signal that ended it (``-9`` for SIGKILL).
    """

    def __init__(self, worker: int, exitcode: int | None):
        super().__init__(worker, exitcode)
        self.worker = worker
        self.exitcode = exitcode

    def __str__(self):
        return f"worker {self.worker} ended without a result (exit code {self.exitcode})"
