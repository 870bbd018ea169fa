"""Runtime contract checks.

Checks verify the contracts an edge type declares (SINGLE_EDGE
multiplicity, SINGLE_TYPE target tag) while a model runs. They are made
in one place, the merge of the written edges (``commit_initial`` and each
transition's merge, see :mod:`graphabm.storage`), which sees every
worker's edges. The setting, ``sim.checks``, is one of :data:`MODES`:
``"on"`` (the default) raises at the merge, ``"off"`` skips the checks
for speed once a model is trusted, and ``"warn"`` records violations and
continues. It may change between any two transitions, at any worker
count: every run request carries it to the workers, and every merge
checks all the edges it stages, a reused merge's too. Disabling checks
never changes the results of a contract-respecting model. A transition's
read and write type sets are enforced always.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractViolation, UsageError

MODES = ("on", "off", "warn")


def validate_mode(checks) -> str:
    """``checks`` if it is one of :data:`MODES`, else raise
    :class:`~graphabm.errors.UsageError` naming them."""
    if checks not in MODES:
        raise UsageError(f"unknown checks mode {checks!r}; expected one of {MODES}")
    return checks


@dataclass(frozen=True)
class Violation:
    """One detected contract breach, with enough context to reproduce."""

    kind: str
    edge_type: str
    target: int
    producer: int
    step: int
    message: str


class ViolationSink:
    """Collects the violations one merge finds.

    In ``"on"`` mode the first violation raises at the merge, which leaves
    nothing staged; in ``"warn"`` mode all violations are kept and merged
    into the simulation's report log at the step barrier.
    """

    def __init__(self, mode: str, step: int):
        self.mode = mode
        self.step = step
        self.reports: list[Violation] = []

    def report(self, kind: str, edge_type: str, target: int, producer: int, message: str):
        if self.mode == "on":
            raise ContractViolation(
                f"{message} (edge type {edge_type!r}, target {target:#x}, "
                f"producer {producer:#x}, step {self.step})"
            )
        self.reports.append(Violation(kind, edge_type, target, producer, self.step, message))


def merge_sink(checks, step: int) -> ViolationSink | None:
    """The sink of one merge at ``step`` under the setting ``checks``, which
    is validated here: None when the checks are off."""
    return None if validate_mode(checks) == "off" else ViolationSink(checks, step)
