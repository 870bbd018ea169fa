from __future__ import annotations

import numpy as np
import pytest

from graphabm import (
    AgentTypeDecl,
    EdgeTypeDecl,
    Hint,
    HintViolation,
    MidStepMutation,
    ParamFrozen,
    Schema,
    Simulation,
    TransitionSpec,
    UnknownName,
    apply_transition,
    finalize_step,
)


def sim_with_values(values, checks="on"):
    schema = Schema()
    schema.register_agent_type(
        AgentTypeDecl("P", (("x", "float64"),), immortal=True)
    )
    sim = Simulation(schema, checks=checks)
    sim.add_agents("P", len(values), {"x": np.asarray(values, dtype=float)})
    return sim


WRITE_P = TransitionSpec(callable_types=("P",), write_types=("P",))


def step(sim, fn, spec=WRITE_P):
    apply_transition(sim, fn, spec)
    finalize_step(sim)


class TestParameters:
    def test_set_get_before_start(self):
        sim = sim_with_values([0.5])
        sim.set_param("epsilon", 0.2)
        assert sim.get_param("epsilon") == 0.2
        assert sim.params["epsilon"] == 0.2
        assert sim.params.epsilon == 0.2

    def test_frozen_after_first_step(self):
        sim = sim_with_values([0.5])
        sim.set_param("epsilon", 0.2)
        step(sim, lambda v, p, g: v.state)
        with pytest.raises(ParamFrozen):
            sim.set_param("epsilon", 0.3)
        assert sim.get_param("epsilon") == 0.2

    def test_unknown_param(self):
        sim = sim_with_values([0.5])
        with pytest.raises(UnknownName):
            sim.get_param("nope")

    def test_params_visible_in_transition(self):
        sim = sim_with_values([1.0])
        sim.set_param("scale", 3.0)
        step(sim, lambda v, p, g: (v.field("x") * p["scale"],))
        assert sim.field_array("P", "x").tolist() == [3.0]


class TestGlobals:
    def test_set_between_steps_visible_next_transition(self):
        sim = sim_with_values([1.0, 2.0])
        sim.set_global("boost", 10.0)
        seen = []
        step(sim, lambda v, p, g: (seen.append(g["boost"]), v.state)[1])
        assert seen == [10.0, 10.0]

    def test_mutation_inside_transition_rejected(self):
        sim = sim_with_values([1.0])

        def mutate(view, params, g):
            sim.set_global("boost", 1.0)

        with pytest.raises(MidStepMutation):
            apply_transition(sim, mutate, TransitionSpec(callable_types=("P",)))

    def test_unset_global_read(self):
        sim = sim_with_values([1.0])
        with pytest.raises(UnknownName):
            sim.get_global("nope")
        failures = []

        def read_missing(view, params, g):
            try:
                g["nope"]
            except UnknownName:
                failures.append(True)

        step(sim, read_missing, TransitionSpec(callable_types=("P",)))
        assert failures == [True]

    def test_snapshot_isolation(self):
        # A mutation staged between apply and the next step never bleeds
        # into the snapshot a running transition observed.
        sim = sim_with_values([1.0])
        sim.set_global("g", 1.0)
        seen = []
        apply_transition(
            sim,
            lambda v, p, g: (seen.append(g["g"]), v.state)[1],
            WRITE_P,
        )
        finalize_step(sim)
        sim.set_global("g", 2.0)
        apply_transition(
            sim,
            lambda v, p, g: (seen.append(g["g"]), v.state)[1],
            WRITE_P,
        )
        finalize_step(sim)
        assert seen == [1.0, 2.0]


class TestAggregate:
    def test_sum_min_max_count(self):
        sim = sim_with_values([0.5] * 10)
        assert sim.aggregate("P", lambda s: s[0], "sum") == 5.0
        assert sim.aggregate("P", lambda s: s[0], "min") == 0.5
        assert sim.aggregate("P", lambda s: s[0], "max") == 0.5
        assert sim.aggregate("P", reduce="count") == 10

    def test_count_tracks_deaths(self):
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("P", (("x", "float64"),)))
        sim = Simulation(schema)
        for i in range(10):
            sim.add_agent("P", float(i))

        def cull_two(view, params, g):
            return None if view.field("x") < 2.0 else view.state

        step(sim, cull_two)
        assert sim.aggregate("P", reduce="count") == 8

    def test_sum_matches_serial_oracle(self):
        rng = np.random.default_rng(9)
        values = rng.random(101)
        sim = sim_with_values(values)
        expected = 0.0
        for v in values:  # ascending id order left fold
            expected = expected + v
        assert sim.aggregate("P", lambda s: s[0], "sum") == expected

    def test_aggregate_sum_identical_across_workers(self):
        values = np.random.default_rng(3).random(64)

        def mean_field(view, params, g):
            return (view.field("x") * 1.0000001,)

        results = []
        for w in (1, 2, 4):
            sim = sim_with_values(values)
            apply_transition(sim, mean_field, WRITE_P, workers=w)
            finalize_step(sim)
            results.append(sim.aggregate("P", lambda s: s[0], "sum"))
        assert results[0] == results[1] == results[2]

    def test_edge_aggregate_respects_hints(self):
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("P", (), immortal=True))
        schema.register_edge_type(EdgeTypeDecl("W", (("w", "float64"),)))
        schema.register_edge_type(EdgeTypeDecl("S", hints=Hint.STATELESS))
        sim = Simulation(schema)
        sim.add_agents("P", 3, {})
        sim.add_edge("W", 0, 1, (2.0,))
        sim.add_edge("W", 2, 1, (3.0,))
        sim.add_edge("S", 0, 1)
        sim.commit_initial()
        assert sim.aggregate("W", lambda s: s[0], "sum") == 5.0
        assert sim.aggregate("W", reduce="count") == 2
        assert sim.aggregate("S", reduce="count") == 1
        with pytest.raises(HintViolation):
            sim.aggregate("S", lambda s: s[0], "sum")

    def test_empty_min_raises(self):
        sim = sim_with_values([])
        with pytest.raises(ValueError):
            sim.aggregate("P", lambda s: s[0], "min")


class TestSnapshotPickling:
    def test_snapshot_round_trips(self):
        import copy
        import pickle

        sim = sim_with_values([0.5])
        sim.set_global("bonus", 3)
        sim.set_global("weights", (0.25, 0.75))
        snap = pickle.loads(pickle.dumps(sim.globals_snapshot()))
        assert dict(snap) == {"bonus": 3, "weights": (0.25, 0.75)}
        assert snap.bonus == 3
        assert dict(copy.deepcopy(snap)) == dict(snap)
        with pytest.raises(UnknownName):
            snap["missing"]
        with pytest.raises(UnknownName):
            snap.missing
