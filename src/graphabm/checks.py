"""Runtime contract checks.

Checks verify the contracts an edge type declares (SINGLE_EDGE
multiplicity, SINGLE_TYPE target tag) while a model runs. They are made
in one place, the merge of the written edges (``commit_initial`` and each
transition's merge, see :mod:`graphabm.storage`), which sees every
worker's edges. They are on by default; once a model is trusted they can
be disabled for speed, or set to warn mode, which records violations and
continues. Disabling checks never changes the results of a
contract-respecting model. A transition's read and write type sets are
enforced always.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractViolation


@dataclass(frozen=True)
class CheckConfig:
    """Which contract checks run, and what happens on a violation.

    ``mode`` is one of ``"error"`` (raise, aborting the step) or ``"warn"``
    (record the violation and continue); ``enabled=False`` turns the
    SINGLE_EDGE and SINGLE_TYPE checks off. Reads and writes outside a
    transition's declared type sets always raise, whatever these settings
    say.
    """

    enabled: bool = True
    mode: str = "error"

    @classmethod
    def from_name(cls, name: str) -> "CheckConfig":
        """Build from the CLI-style names ``on``, ``off``, ``warn``."""
        if name == "on":
            return cls()
        if name == "off":
            return cls(enabled=False)
        if name == "warn":
            return cls(mode="warn")
        raise ValueError(f"unknown checks mode {name!r}")


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

    In error mode the first violation raises at the merge, which leaves
    nothing staged; in warn mode all violations are kept and merged into
    the simulation's report log at the step barrier.
    """

    def __init__(self, mode: str, step: int):
        self.mode = mode
        self.step = step
        self.reports: list[Violation] = []

    def report(self, kind: str, edge_type: str, target: int, producer: int, message: str):
        v = Violation(
            kind=kind,
            edge_type=edge_type,
            target=target,
            producer=producer,
            step=self.step,
            message=message,
        )
        if self.mode == "error":
            raise ContractViolation(
                f"{message} (edge type {edge_type!r}, target {target:#x}, "
                f"producer {producer:#x}, step {self.step})"
            )
        self.reports.append(v)
