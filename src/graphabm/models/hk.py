"""Bounded-confidence opinion dynamics.

Each agent holds an opinion in [0, 1] and, once per step, averages the
opinions of the neighbors it can see whose opinion lies within a confidence
bound eps of its own. Visibility is a directed edge type; every topology
includes a self-loop so the agent's own opinion is always in the average.

The visibility edge type is declared Stateless + SingleType by default
(only source ids are stored); ``hints=False`` registers it with no hints,
which stores full edge records and must produce bit-identical dynamics.

The step runs as a batch transition (``hk_transition``, one call per chunk
of agents). The per-agent form ``hk_agent_transition`` with
``HK_AGENT_SPEC`` computes bit-equal opinions and serves as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..engine import TransitionSpec, run
from ..schema import AgentTypeDecl, EdgeTypeDecl, Hint, Schema
from ..sim import Simulation
from .topology import Complete

AGENT = "Person"
EDGE = "Sees"


@dataclass(frozen=True)
class HKConfig:
    n: int
    epsilon: float
    topology: object = field(default_factory=Complete)
    seed: int = 0
    hints: bool = True


# Both forms of the step average with np.add.reduceat: its sum of a segment
# depends only on the segment's values, not on where the segment sits in a
# larger array, so the per-agent and the batch form (at any chunking) give
# bit-equal means. ndarray.mean() sums in another order and can differ by
# an ulp. The float mean of near-identical values can round one ulp outside
# their range, so it is clamped to the hull of the averaged set; the
# exact-arithmetic mean always lies inside it.


def _no_close_opinion(aid: int) -> ValueError:
    return ValueError(
        f"agent {aid:#x} sees no opinion within epsilon (it has no incoming "
        "edges or a negative epsilon)"
    )


def hk_agent_step(view, epsilon) -> float:
    """One agent's updated opinion: the mean over visible opinions within
    the confidence bound (the self-loop keeps the set nonempty)."""
    visible = view.neighbor_field(EDGE, "opinion")
    own = view.field("opinion")
    close = visible[np.abs(visible - own) <= epsilon]
    if not close.size:
        raise _no_close_opinion(view.agent_id)
    mean = np.add.reduceat(close, [0])[0] / close.size
    return np.minimum(np.maximum(mean, close.min()), close.max())


def hk_agent_transition(view, params, _globals):
    """The per-agent form of :func:`hk_transition`, kept as its oracle."""
    return (hk_agent_step(view, params["epsilon"]),)


def hk_transition(batch, params, _globals):
    """Updated opinions of a chunk of agents, each as in :func:`hk_agent_step`."""
    visible, indptr = batch.neighbor_field(EDGE, "opinion")
    gap = visible - np.repeat(batch.field("opinion"), np.diff(indptr))
    np.abs(gap, out=gap)
    close = np.flatnonzero(gap <= params["epsilon"])
    starts = np.searchsorted(close, indptr)  # per-agent runs in ``close``
    counts = np.diff(starts)
    if not counts.all():
        raise _no_close_opinion(int(batch.ids[np.argmin(counts)]))
    values = visible[close]
    starts = starts[:-1]
    mean = np.add.reduceat(values, starts) / counts
    lo = np.minimum.reduceat(values, starts)
    hi = np.maximum.reduceat(values, starts)
    return (np.minimum(np.maximum(mean, lo), hi),)


HK_SPEC = TransitionSpec(
    callable_types=(AGENT,),
    read_types=(EDGE, AGENT),
    write_types=(AGENT,),
    batch=True,
)

HK_AGENT_SPEC = TransitionSpec(
    callable_types=(AGENT,),
    read_types=(EDGE, AGENT),
    write_types=(AGENT,),
)


def build_hk(config: HKConfig, checks="on") -> Simulation:
    """A simulation holding the initial opinion graph for a config."""
    schema = Schema()
    schema.register_agent_type(
        AgentTypeDecl(AGENT, (("opinion", "float64"),), immortal=True)
    )
    if config.hints:
        schema.register_edge_type(
            EdgeTypeDecl(
                EDGE,
                hints=Hint.STATELESS | Hint.SINGLE_TYPE,
                single_type_target=AGENT,
            )
        )
    else:
        schema.register_edge_type(EdgeTypeDecl(EDGE))

    n = config.topology.size(config.n)
    sim = Simulation(
        schema, seed=config.seed, params={"epsilon": config.epsilon}, checks=checks
    )
    rng = np.random.default_rng(config.seed)
    sim.add_agents(AGENT, n, {"opinion": rng.random(n)})
    # The builders' uint32 slots are the agents' ids: AGENT is type 0, and
    # its agents take slots 0 to n - 1. So they go in as they are, never
    # widened, and the store keeps the sources as uint32 slots.
    sim.add_edges(EDGE, *config.topology.build(n))
    sim.commit_initial()
    return sim


def hk_program():
    return [(hk_transition, HK_SPEC)]


def opinions(sim: Simulation) -> np.ndarray:
    """Current opinions, ascending by agent id (creation order)."""
    return sim.field_array(AGENT, "opinion")


def cluster_count(values: np.ndarray, tol: float = 1e-9) -> int:
    """Number of opinion clusters: runs of sorted values separated by more
    than ``tol``."""
    if values.size == 0:
        return 0
    ordered = np.sort(values)
    return 1 + int(np.count_nonzero(np.diff(ordered) > tol))


def hk_metrics(sim: Simulation) -> dict:
    ops = opinions(sim)
    return {
        "min": ops.min(),
        "max": ops.max(),
        # cumsum adds left to right, as aggregate's fold does, so the mean is
        # bit-equal to aggregate(AGENT, lambda s: s[0]) / n; ops.sum() is not.
        "mean": np.cumsum(ops)[-1] / ops.size,
        "clusters": cluster_count(ops),
    }


@dataclass
class HKResult:
    final_opinions: np.ndarray
    metrics: list[dict]
    trajectory: list[np.ndarray]
    checksum: str
    transition_wall_s: float
    step_walls: list
    storage: dict  # the final graph's ``Simulation.describe()``


def hk_run(config: HKConfig, steps: int, *, workers: int = 1,
           strategy: str = "contiguous", checks="on",
           collect_metrics: bool = True,
           record_trajectory: bool = False) -> HKResult:
    """Run the model for ``steps`` steps; deterministic given the seed."""
    sim = build_hk(config, checks=checks)
    metrics: list[dict] = []
    trajectory: list[np.ndarray] = []

    def on_step(s):
        if collect_metrics:
            metrics.append(hk_metrics(s))
        if record_trajectory:
            trajectory.append(opinions(s).copy())

    run(
        sim, steps, hk_program(),
        workers=workers, strategy=strategy,
        on_step=on_step if (collect_metrics or record_trajectory) else None,
    )
    walls = [m["wall_ms"] for m in sim.step_metrics]
    return HKResult(
        final_opinions=opinions(sim),
        metrics=metrics,
        trajectory=trajectory,
        checksum=sim.state_checksum(),
        transition_wall_s=sum(walls) / 1e3,
        step_walls=walls,
        storage=sim.describe(),
    )
