"""The benchmark's workloads: seeded inputs, model builds and output checks.

The benchmark generates every input from ``--seed`` (opinions, the visit
schedule, the seed cases) and hands only those to graphabm. Builds use the
package's public API the way ``graphabm.models`` does, minus the models'
own input generation.
"""

from __future__ import annotations

import numpy as np

import checks
from tracer import NullTracer
from graphabm import AgentTypeDecl, EdgeTypeDecl, Hint, Schema, Simulation, run
from graphabm.models import episim, hk
from graphabm.models.topology import Complete, Regular


class HKWorkload:
    """HK opinion dynamics; ``k=None`` is the complete graph."""

    epsilon = 0.2
    transitions = 1
    extra_setups = 0

    def __init__(self, name, n, k, steps):
        self.name, self.n, self.k, self.steps = name, n, k, steps
        self.topology = Complete() if k is None else Regular(k)

    def make_inputs(self, seed):
        return np.random.default_rng(seed).random(self.n)

    def build(self, opinions, seed, tracer):
        """Schema, agents, edges and ``commit_initial``, as ``hk.build_hk``."""
        schema = Schema()
        schema.register_agent_type(
            AgentTypeDecl(hk.AGENT, (("opinion", "float64"),), immortal=True)
        )
        schema.register_edge_type(
            EdgeTypeDecl(hk.EDGE, hints=Hint.STATELESS | Hint.SINGLE_TYPE,
                         single_type_target=hk.AGENT)
        )
        sim = Simulation(schema, seed=seed, params={"epsilon": self.epsilon})
        ids = sim.add_agents(hk.AGENT, self.n, {"opinion": opinions})
        with tracer.span("topology.build"):
            targets, sources = self.topology.build(self.n)
        base = np.uint64(ids[0])
        sim.add_edges(hk.EDGE, base + targets, base + sources)
        sim.commit_initial()
        return sim, hk.hk_program()

    def step_metrics(self, sim, rows, opinions):
        return hk.hk_metrics(sim)

    def snapshot(self, sim):
        return hk.opinions(sim).copy()

    def check_run(self, opinions, rows, snaps, full: bool) -> list[str]:
        """``full`` adds the first-step reference and the per-agent hull."""
        out = checks.check_hk_extremes(opinions, rows)
        if full:
            out += checks.check_hk_first_step(opinions, snaps[0], self.epsilon, self.k)
            prev = opinions
            for new in snaps:
                out += checks.check_hk_hull(prev, new, self.k)
                prev = new
        return out

    def extra_checks(self, seed) -> list[str]:
        return []


class EpidemicWorkload:
    """Persons visiting locations on a fixed daily schedule."""

    theta = 0.3
    transitions = 3
    extra_setups = 6  # a build takes ~20 ms; more samples keep its median steady

    def __init__(self, name, persons, locations, seed_cases, days):
        self.name = name
        self.persons, self.locations = persons, locations
        self.seed_cases, self.steps = seed_cases, days

    def make_inputs(self, seed, persons=None, locations=None, cases=None):
        """Visit rows of plain Python ints, 0-2 visits a person, and the seed cases."""
        persons = persons or self.persons
        locations = locations or self.locations
        rng = np.random.default_rng(seed)
        visits = rng.integers(0, 3, persons)
        who = np.repeat(np.arange(persons), visits)
        where = rng.integers(0, locations, who.size)
        start = rng.integers(0, 900, who.size)
        end = start + rng.integers(30, 120, who.size)
        schedule = tuple(zip(who.tolist(), where.tolist(), start.tolist(), end.tolist()))
        infected = tuple(sorted(rng.choice(persons, cases or self.seed_cases,
                                           replace=False).tolist()))
        graph = checks.copresence_graph(schedule, persons)
        return {
            "persons": persons, "locations": locations,
            "schedule": schedule, "infected": infected, "graph": graph,
            "dist": checks.hop_distance(graph, infected, persons),
        }

    def config(self, inputs, seed, theta):
        return episim.EpiConfig(
            persons=inputs["persons"], locations=inputs["locations"], theta=theta,
            seed=seed, schedule=inputs["schedule"],
            initial_infected=inputs["infected"],
        )

    def build(self, inputs, seed, tracer, theta=None):
        model = episim.build_epi(self.config(inputs, seed, self.theta if theta is None else theta))
        return model.sim, episim.day_program(model)

    def step_metrics(self, sim, rows, inputs):
        prev = rows[-1]["infected"] if rows else len(inputs["infected"])
        return episim.epi_metrics(sim, prev)

    def snapshot(self, sim):
        return sim.field_array(episim.PERSON, "status") == int(episim.Status.INFECTED)

    def check_run(self, inputs, rows, snaps, full: bool) -> list[str]:
        return checks.check_epidemic(snaps, inputs["dist"], inputs["graph"],
                                     inputs["infected"], exact=False)

    def extra_checks(self, seed) -> list[str]:
        """At theta = 1 on a small schedule the infected set equals the ball,
        at one and at two workers, with equal checksums."""
        small = self.make_inputs(seed, persons=3000, locations=300, cases=2)
        days = 4
        found, sums = [], []
        for workers in (1, 2):
            sim, program = self.build(small, seed, NullTracer(), theta=1.0)
            snaps = []
            run(sim, days, program, workers=workers,
                on_step=lambda s: snaps.append(self.snapshot(s)))
            sums.append(sim.state_checksum())
            found += checks.check_epidemic(snaps, small["dist"], small["graph"],
                                           small["infected"], exact=True)
        return found + checks.check_same_checksum(*sums)


WORKLOADS = {
    w.name: w
    for w in (
        HKWorkload("hk_ring", n=50_000, k=100, steps=5),
        HKWorkload("hk_complete", n=3000, k=None, steps=8),
        EpidemicWorkload("epidemic", persons=20_000, locations=1000,
                         seed_cases=50, days=10),
    )
}
