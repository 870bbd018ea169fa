"""One births path for both transition forms.

A per-agent call's ``view.add_agent`` and a batch's ``batch.add_agents``
number their newborns alike and hand them to the same merge, so a model
that creates agents gives one state checksum in either form, at any
worker count, partition strategy and execution order: newborns take
their ids by producing agent, each producer's in call order, edges to and
from them are rewritten to those ids, and births land in the slots that
deaths freed.
"""

from __future__ import annotations

import numpy as np
import pytest

from graphabm import (
    AgentTypeDecl,
    EdgeTypeDecl,
    Schema,
    Simulation,
    TransitionSpec,
    agent_id,
    apply_transition,
    finalize_step,
    local_index,
    partition_graph,
    run,
)

STEPS = 4
N = 30


def births_sim():
    """``N`` mortal ``Cell`` agents on a ring of ``Link`` edges, and two
    mortal ``Spore`` agents."""
    schema = Schema()
    schema.register_agent_type(AgentTypeDecl("Cell", (("x", "float64"), ("gen", "int64"))))
    schema.register_agent_type(AgentTypeDecl("Spore", (("x", "float64"),)))
    schema.register_edge_type(EdgeTypeDecl("Link", (("w", "float64"),)))
    sim = Simulation(schema, seed=17)
    ids = sim.add_agents("Cell", N, {"x": np.linspace(0.0, 1.0, N),
                                     "gen": np.zeros(N, dtype=np.int64)})
    sim.add_edges("Link", ids, np.roll(ids, 1), [(0.5,)] * N)
    sim.add_agents("Spore", 2, {"x": np.ones(2)})
    return sim


def cull(view, params, g):
    """A per-agent step in both programs: about a fifth of the cells die,
    so the newborns of the next transition take freed slots."""
    if view.rng.random() < 0.2:
        return None
    return view.state


def breed_agent(view, params, g):
    """Each cell has 0, 1 or 2 children, linked to it both ways, and with
    two children a spore, linked from it; it moves towards the largest
    value of its incoming links' sources."""
    x, gen = view.field("x"), view.field("gen")
    seen = view.neighbor_field("Link", "x")
    draw = view.rng.random()
    for rank in range(2 if draw > 0.8 else 1 if draw > 0.5 else 0):
        child = view.add_agent("Cell", x * 0.5 + rank, gen + 1)
        view.add_edge("Link", child, (float(rank),))
        view.add_edge("Link", view.agent_id, (-1.0,), source=child)
        if rank == 1:
            spore = view.add_agent("Spore", x)
            view.add_edge("Link", spore, (2.0,))
    top = float(seen.max()) if seen.size else x
    return (0.5 * (x + top) + view.num_edges("Link"), gen)


def breed_batch(batch, params, g):
    """:func:`breed_agent` for a chunk."""
    x, gen = batch.field("x"), batch.field("gen")
    n = batch.slots.size
    seen, indptr = batch.neighbor_field("Link", "x")
    draw = batch.random(np.ones(n, dtype=np.int64))
    kids = np.where(draw > 0.8, 2, np.where(draw > 0.5, 1, 0))
    parents = np.repeat(np.arange(n), kids)
    rank = np.arange(parents.size) - np.repeat(np.cumsum(kids) - kids, kids)
    children = batch.add_agents("Cell", [x[parents] * 0.5 + rank, gen[parents] + 1],
                                agents=parents)
    twins = np.flatnonzero(kids == 2)
    spores = batch.add_agents("Spore", [x[twins]], agents=twins)
    # each parent's edges in the per-agent call order: to and from each
    # child, then to its spore
    own = batch.ids[parents]
    agents = np.concatenate([np.repeat(parents, 2), twins])
    targets = np.concatenate([np.column_stack([children, own]).ravel(), spores])
    sources = np.concatenate([np.column_stack([own, children]).ravel(), batch.ids[twins]])
    weights = np.concatenate([np.column_stack([rank, -np.ones(rank.size)]).ravel(),
                              np.full(twins.size, 2.0)])
    order = np.argsort(agents, kind="stable")
    batch.add_edges("Link", targets[order], agents=agents[order], sources=sources[order],
                    states=[weights[order]])
    counts = batch.count("Link")
    top = np.full(n, -np.inf)
    some = counts > 0
    if some.any():
        top[some] = np.maximum.reduceat(seen, indptr[:-1][some])
    return (np.where(some, 0.5 * (x + top), x) + counts, gen)


def program(batch: bool, keep_spores: bool) -> list:
    """``cull``, then the form's breed. With ``keep_spores`` the spores are
    retained and newborn ones join them; without, ``Spore`` is written but
    not called, so its old agents die each step."""
    breed = TransitionSpec(
        callable_types=("Cell",), read_types=("Cell", "Link"),
        write_types=("Cell", "Link", "Spore"),
        keep_existing=("Spore",) if keep_spores else (), batch=batch)
    return [(cull, TransitionSpec(callable_types=("Cell",), write_types=("Cell",))),
            (breed_batch if batch else breed_agent, breed)]


def checksums(batch, keep_spores=True, workers=1, strategy="contiguous", shuffled=False):
    """The state checksum after each step, and the simulation."""
    sim, sums = births_sim(), []
    if not shuffled:
        run(sim, STEPS, program(batch, keep_spores), workers=workers, strategy=strategy,
            on_step=lambda s: sums.append(s.state_checksum()))
        return sums, sim
    for step in range(STEPS):
        for fn, spec in program(batch, keep_spores):
            partition = partition_graph(sim, workers, strategy) if workers > 1 else None
            apply_transition(sim, fn, spec, workers=workers, partition=partition,
                             shuffle=np.random.default_rng(step))
            finalize_step(sim)
        sums.append(sim.state_checksum())
    return sums, sim


class TestBirthsOracle:
    @pytest.mark.parametrize("keep_spores", [True, False], ids=["kept", "lost"])
    def test_both_forms_give_one_checksum(self, keep_spores):
        expected, sim = checksums(False, keep_spores)
        assert len(set(expected)) == STEPS
        for workers in (1, 2, 4):
            for strategy in ("contiguous", "round_robin"):
                for shuffled in (False, True):
                    for batch in (False, True):
                        got, _sim = checksums(batch, keep_spores, workers, strategy, shuffled)
                        assert got == expected, (workers, strategy, shuffled, batch)

    @pytest.mark.parametrize("batch", [False, True], ids=["per-agent", "batch"])
    def test_the_program_covers_every_case(self, batch):
        """One step: cells die and newborns take their slots, links run to
        and from newborns of both types, and retained spores keep their
        agents while newborn ones join them; lost ones do not."""
        sim = births_sim()
        (cull_fn, cull_spec), (breed, spec) = program(batch, True)
        apply_transition(sim, cull_fn, cull_spec)
        finalize_step(sim)
        freed = list(sim._segments[0].free)
        assert freed
        apply_transition(sim, breed, spec)
        finalize_step(sim)
        cells = sim._segments[0]
        assert cells.alive[freed].any()
        links = sim.edge_container("Link")
        born = np.flatnonzero(cells.alive & (cells.fields["gen"] == 1))
        assert born.size > len(freed)
        for slot in born.tolist():
            (parent,) = [r.source for r in links.records_at(0, slot)]
            assert cells.fields["gen"][local_index(parent)] == 0
            assert agent_id(0, slot) in [r.source for r in
                                         links.records_at(0, local_index(parent))]
        old = [agent_id(1, 0), agent_id(1, 1)]
        spores = sim.agent_ids("Spore")
        assert spores.size > 2 and spores[:2].tolist() == old
        assert all(len(links.records_at(1, local_index(aid))) == 1 for aid in spores[2:])

        sim = births_sim()
        for fn, spec in program(batch, False):
            apply_transition(sim, fn, spec)
            finalize_step(sim)
        spores = sim.agent_ids("Spore")
        assert spores.size and not set(spores.tolist()) & set(old)
