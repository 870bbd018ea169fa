"""Agent deltas: a worker ships, of each agent type it re-adds, only the
slots whose state changed byte for byte and the slots that died, and
every result equals that of a run that ships every re-added state, at any
worker count, shuffled or not."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphabm import (
    AgentTypeDecl,
    ContractViolation,
    EdgeTypeDecl,
    Schema,
    Simulation,
    TransitionSpec,
    UsageError,
    apply_transition,
    finalize_step,
    run,
)
from graphabm import engine
from graphabm.ids import agent_id
from graphabm.models.episim import EpiConfig, build_epi, day_program
from graphabm.storage import AgentSegment

# 0.0 and -0.0 compare equal, and NaNs of two payloads compare unequal to
# everything: only their bytes tell whether a state changed
VALUES = np.array([0x0, 0x8000000000000000, 0x7FF8000000000001, 0x7FF8000000000002,
                   0x3FF8000000000000], dtype=np.uint64).view(np.float64)
ACTIONS = ("set", "die", "birth", "spawn")
STEPS = 4


def full_columns(monkeypatch):
    """Make every worker ship every state it re-adds, as before deltas."""
    delta = engine.agent_delta
    monkeypatch.setattr(engine, "agent_delta",
                        lambda seg, ran, slots, columns, _compare:
                        delta(seg, ran, slots, columns, False))


class TestAgentDelta:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_it_ships_the_slots_whose_bytes_changed(self, data):
        n = data.draw(st.integers(1, 12))
        schema = Schema()
        schema.register_agent_type(
            AgentTypeDecl("T", (("x", "float64"), ("k", "int64"), ("b", "bool"))))
        seg = AgentSegment(schema.agent_types[0])
        seg.place(n)
        pick = st.lists(st.tuples(st.integers(0, 4), st.integers(-1, 1), st.booleans()),
                        min_size=n, max_size=n)
        old = data.draw(pick)
        seg.write(np.arange(n), [VALUES[[v for v, _, _ in old]],
                                 np.array([k for _, k, _ in old]),
                                 np.array([b for _, _, b in old])])
        ran = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
        slots = np.array(data.draw(st.permutations(ran.tolist()))[
            :data.draw(st.integers(0, ran.size))], dtype=np.int64)
        new = data.draw(st.lists(st.tuples(st.integers(0, 4), st.integers(-1, 1),
                                           st.booleans()),
                                 min_size=slots.size, max_size=slots.size))
        columns = [VALUES[[v for v, _, _ in new]].reshape(-1),
                   np.array([k for _, k, _ in new], dtype=np.int64),
                   np.array([b for _, _, b in new], dtype=bool)]

        def row_bytes(values):
            x, k, b = values
            return np.float64(x).tobytes() + np.int64(k).tobytes() + np.bool_(b).tobytes()

        expected = [s for s, row in zip(slots.tolist(), new)
                    if row_bytes((VALUES[row[0]], row[1], row[2]))
                    != row_bytes(tuple(a[s] for a in seg.fields.values()))]
        died = sorted(set(ran.tolist()) - set(slots.tolist()))
        shipped, states, dead = engine.agent_delta(seg, ran, slots, columns, True)
        assert shipped.tolist() == expected
        assert dead.tolist() == died
        for got, column in zip(states, columns):
            assert got.tobytes() == column[np.isin(slots, expected)].tobytes()
        every, states, dead = engine.agent_delta(seg, ran, slots, columns, False)
        assert every.tolist() == slots.tolist() and dead.tolist() == died
        assert all(a.tobytes() == b.tobytes() for a, b in zip(states, columns))


def delta_sim(n: int, seed: int = 3):
    """Mortal ``M`` agents of a float and an int field, and mortal ``W``
    agents that no transition runs."""
    schema = Schema()
    for name in ("M", "W"):
        schema.register_agent_type(AgentTypeDecl(name, (("x", "float64"), ("k", "int64"))))
    sim = Simulation(schema, seed=seed)
    sim.add_agents("M", n, {"x": VALUES[np.arange(n) % 5], "k": np.arange(n) % 3})
    sim.add_agents("W", 3, {"x": np.ones(3), "k": np.ones(3, dtype=np.int64)})
    return sim


def scripted(plan: dict):
    """A per-agent transition that does what ``plan`` says at its step
    and slot: set its state, die, set it and give birth to an ``M``, or
    set it and give birth to a ``W``. Any other agent keeps its state."""
    def act(view, params, g):
        what, v, k = plan.get((view.step, int(view.agent_id) & 0xFFFF), ("keep", 0, 0))
        if what == "keep":
            return view.state
        if what == "die":
            return None
        state = (VALUES[v], k)
        if what == "birth":
            view.add_agent("M", VALUES[(v + 1) % 5], k + 1)
        elif what == "spawn":
            view.add_agent("W", *state)
        return state
    return act


SCRIPT = TransitionSpec(callable_types=("M",), read_types=("M",), write_types=("M", "W"))


def step_checksums(n, plan, workers, shuffled):
    """The state checksum after each step; shuffled runs apply every step
    alone, on a pool forked for it."""
    sim, act, sums = delta_sim(n), scripted(plan), []
    if shuffled:
        for step in range(STEPS):
            apply_transition(sim, act, SCRIPT, workers=workers,
                             shuffle=np.random.default_rng(step))
            finalize_step(sim)
            sums.append(sim.state_checksum())
    else:
        run(sim, STEPS, [(act, SCRIPT)], workers=workers,
            on_step=lambda s: sums.append(s.state_checksum()))
    return sums, sim


class TestDeltaOracle:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(2, 9), st.dictionaries(
        st.tuples(st.integers(0, STEPS - 1), st.integers(0, 12)),
        st.tuples(st.sampled_from(ACTIONS), st.integers(0, 4), st.integers(0, 2)),
        max_size=30))
    def test_every_run_equals_one_that_ships_full_columns(self, n, plan):
        with pytest.MonkeyPatch.context() as patch:
            full_columns(patch)
            expected, reference = step_checksums(n, plan, 2, False)
        for workers in (1, 2, 4):
            for shuffled in (False, True):
                got, sim = step_checksums(n, plan, workers, shuffled)
                assert got == expected, (workers, shuffled)
                assert sim.n_alive("M") == reference.n_alive("M")
                assert sim.n_alive("W") == reference.n_alive("W")

    def test_the_script_covers_every_case(self):
        """A fixed plan of the oracle's: states equal, -0.0 against 0.0 and
        NaNs of two payloads, deaths, births into freed slots and the W
        agents that nobody runs, all of which die each step."""
        plan = {(0, 0): ("set", 0, 0), (0, 1): ("set", 1, 1), (1, 1): ("set", 0, 1),
                (0, 2): ("set", 2, 2), (1, 2): ("set", 3, 2), (0, 3): ("die", 0, 0),
                (1, 4): ("birth", 4, 0), (2, 5): ("spawn", 1, 1)}
        sums, sim = step_checksums(6, plan, 1, False)
        assert len(set(sums)) == STEPS
        # slot 3 died at step 0 and the birth of step 1 took it
        assert sim.n_alive("M") == 6 and sim._segments[0].count == 6
        assert sim.n_alive("W") == 0  # the step-2 spawn died at step 3
        x = sim.field_array("M", "x").view(np.uint64).tolist()
        assert x[1] == 0 and x[2] == 0x7FF8000000000002
        # a dead slot's fields are zeroed, so it hashes alike however it died
        dead = sim._segments[1].buffers()
        assert dead["count"] == 3 and not dead["alive"].any()
        assert not dead["field:x"].any() and not dead["field:k"].any()
        for workers in (2, 4):
            for shuffled in (False, True):
                assert step_checksums(6, plan, workers, shuffled)[0] == sums

    @settings(max_examples=6, deadline=None)
    @given(st.integers(2, 9), st.data())
    def test_an_immortal_type_that_drops_an_agent_raises_as_before(self, n, data):
        quiet = data.draw(st.integers(0, n - 1))
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("I", (("x", "float64"),), immortal=True))
        spec = TransitionSpec(callable_types=("I",), write_types=("I",))

        def drop(view, params, g):
            return None if int(view.agent_id) == quiet else (view.field("x") + 1.0,)

        messages = set()
        for workers in (1, 2, 4):
            sim = Simulation(schema)
            sim.add_agents("I", n, {"x": np.zeros(n)})
            with pytest.raises(UsageError) as exc:
                run(sim, 1, [(drop, spec)], workers=workers)
            assert sim._staged is None and not sim._in_transition
            messages.add(str(exc.value))
        assert messages == {f"agent {agent_id(0, quiet):#x} of type 'I' must return a state"}


class TestMergeCopies:
    def test_a_column_no_worker_changed_is_not_copied(self):
        sim = delta_sim(8)
        sim.commit_initial()
        before = dict(sim._segments[0].fields)
        # every agent re-adds its state unchanged: nothing ships, nothing is copied
        run(sim, 2, [(scripted({}), SCRIPT)], workers=2)
        assert all(sim._segments[0].fields[name] is arr for name, arr in before.items())
        assert [m["bytes_received"] for m in sim.step_metrics][1] < 1000

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failed_merge_leaves_time_t_as_it_was(self, workers):
        """The merge writes deaths, births and changed states before the
        endpoint check fails; the time-t segments it started from stay
        as they were."""
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("M", (("x", "float64"), ("k", "int64"))))
        schema.register_edge_type(EdgeTypeDecl("E"))
        sim = Simulation(schema)
        sim.add_agents("M", 8, {"x": np.zeros(8), "k": np.zeros(8, dtype=np.int64)})
        sim.commit_initial()
        before = sim.state_checksum()
        act = scripted({(0, 1): ("die", 0, 0), (0, 2): ("birth", 4, 1), (0, 6): ("set", 4, 2)})

        def act_and_link(view, params, g):
            if int(view.agent_id) == 7:
                view.add_edge("E", agent_id(0, 99), view.agent_id)
            return act(view, params, g)

        spec = TransitionSpec(callable_types=("M",), write_types=("M", "E"))
        with pytest.raises(ContractViolation):
            apply_transition(sim, act_and_link, spec, workers=workers)
        assert sim.state_checksum() == before and sim.n_alive("M") == 8

    def test_a_written_column_is_a_copy(self):
        sim = delta_sim(8)
        sim.commit_initial()
        before = sim._segments[0].fields["x"]
        held = before.copy()
        run(sim, 1, [(scripted({(0, 5): ("set", 4, 2)}), SCRIPT)], workers=2)
        assert sim._segments[0].fields["x"] is not before
        assert before.tobytes() == held.tobytes()


class TestBytesPerStep:
    def test_two_runs_ship_the_same_bytes_and_one_worker_none(self):
        counts = []
        for workers in (2, 2, 1):
            model = build_epi(EpiConfig(persons=400, locations=20, theta=0.5, seed=4))
            run(model.sim, 4, day_program(model), workers=workers)
            counts.append([(m["bytes_sent"], m["bytes_received"])
                           for m in model.sim.step_metrics])
        assert counts[0] == counts[1]
        assert all(sent > 0 and received > 0 for sent, received in counts[0])
        assert counts[2] == [(0, 0)] * 4

    def test_unchanged_persons_do_not_ship(self):
        """From day 2 on, only the statuses that changed cross the pipe:
        far fewer bytes than the Persons' full status column."""
        model = build_epi(EpiConfig(persons=4000, locations=200, theta=0.5, seed=4))
        run(model.sim, 4, day_program(model), workers=2)
        column = 4000 * 8  # every Person's int64 status
        assert all(m["bytes_received"] < column / 2 for m in model.sim.step_metrics[1:])
