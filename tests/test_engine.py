from __future__ import annotations

import numpy as np
import pytest

from graphabm import (
    AgentTypeDecl,
    ContractViolation,
    EdgeTypeDecl,
    Hint,
    Schema,
    Simulation,
    TransitionSpec,
    TypeNotReadable,
    TypeNotWritable,
    UnknownName,
    UsageError,
    agent_id,
    apply_transition,
    finalize_step,
    local_index,
    run,
    type_tag,
)
from graphabm.ids import MAX_SLOT

from edge_reads import edge_read


def two_type_sim(mortal=True, checks="on"):
    schema = Schema()
    schema.register_agent_type(
        AgentTypeDecl("P", (("x", "float64"),), immortal=not mortal)
    )
    schema.register_edge_type(EdgeTypeDecl("E"))
    return Simulation(schema, seed=0, checks=checks)


def step(sim, fn, spec, **kw):
    apply_transition(sim, fn, spec, **kw)
    finalize_step(sim)


WRITE_P = TransitionSpec(callable_types=("P",), write_types=("P",))


class TestBasicSemantics:
    def test_identity_transition_preserves_state(self):
        sim = two_type_sim()
        for i in range(5):
            sim.add_agent("P", float(i))
        sim.commit_initial()
        before = sim.state_checksum()
        step(sim, lambda v, p, g: v.state, WRITE_P)
        assert sim.state_checksum() == before
        assert sim.step == 1

    def test_never_readding_empties_type(self):
        sim = two_type_sim()
        for i in range(4):
            sim.add_agent("P", float(i))
        step(sim, lambda v, p, g: None, WRITE_P)
        assert sim.n_alive("P") == 0

    def test_reads_see_time_t_state(self):
        sim = two_type_sim()
        a = sim.add_agent("P", 1.0)
        b = sim.add_agent("P", 2.0)
        sim.add_edge("E", a, b)
        sim.add_edge("E", b, a)

        def swap_sum(view, params, g):
            total = 0.0
            for rec in view.edges("E"):
                total += view.source_state(rec)[0]
            return (total,)

        spec = TransitionSpec(
            callable_types=("P",), read_types=("E", "P"), write_types=("P",)
        )
        step(sim, swap_sum, spec)
        assert sim.agent_state(a) == (2.0,)
        assert sim.agent_state(b) == (1.0,)

    def test_unwritten_types_pass_through(self):
        sim = two_type_sim()
        a = sim.add_agent("P", 1.0)
        sim.add_edge("E", a, a)
        sim.commit_initial()
        step(sim, lambda v, p, g: v.state, WRITE_P)
        assert edge_read(sim.edge_container("E"), "count", a) == 1

    def test_keep_existing_agents_carry_over_and_accept_additions(self):
        sim = two_type_sim()
        sim.add_agent("P", 1.0)
        sim.add_agent("P", 2.0)

        def spawn_one(view, params, g):
            if view.field("x") == 1.0:
                view.add_agent("P", 99.0)
            return None

        spec = TransitionSpec(
            callable_types=("P",), write_types=("P",), keep_existing=("P",)
        )
        step(sim, spawn_one, spec)
        assert sim.n_alive("P") == 3
        values = sorted(sim.field_array("P", "x").tolist())
        assert values == [1.0, 2.0, 99.0]

    def test_step_counter_increments_per_finalize(self):
        sim = two_type_sim()
        sim.add_agent("P", 0.0)
        for _ in range(3):
            step(sim, lambda v, p, g: v.state, WRITE_P)
        assert sim.step == 3


class TestWriteSetEnforcement:
    def test_add_agent_outside_write_set(self):
        sim = two_type_sim()
        sim.add_agent("P", 0.0)

        def adds(view, params, g):
            view.add_agent("P", 1.0)

        with pytest.raises(TypeNotWritable):
            apply_transition(sim, adds, TransitionSpec(callable_types=("P",)))

    def test_add_edge_outside_write_set(self):
        sim = two_type_sim()
        a = sim.add_agent("P", 0.0)

        def adds(view, params, g):
            view.add_edge("E", a)

        with pytest.raises(TypeNotWritable):
            apply_transition(sim, adds, TransitionSpec(callable_types=("P",)))

    def test_returning_state_outside_write_set(self):
        sim = two_type_sim()
        sim.add_agent("P", 0.0)
        with pytest.raises(TypeNotWritable):
            apply_transition(
                sim, lambda v, p, g: v.state, TransitionSpec(callable_types=("P",))
            )

    def test_query_outside_read_set(self):
        sim = two_type_sim()
        sim.add_agent("P", 0.0)

        def reads(view, params, g):
            view.edges("E")

        with pytest.raises(TypeNotReadable):
            apply_transition(sim, reads, TransitionSpec(callable_types=("P",)))

    def test_failed_transition_leaves_state_untouched(self):
        sim = two_type_sim()
        sim.add_agent("P", 5.0)
        sim.commit_initial()
        before = sim.state_checksum()

        def boom(view, params, g):
            raise RuntimeError("model bug")

        with pytest.raises(RuntimeError):
            apply_transition(sim, boom, WRITE_P)
        assert sim.state_checksum() == before
        step(sim, lambda v, p, g: v.state, WRITE_P)  # engine still usable
        assert sim.step == 1


class TestLifecycle:
    def test_finalize_requires_apply(self):
        sim = two_type_sim()
        sim.add_agent("P", 0.0)
        with pytest.raises(UsageError):
            finalize_step(sim)

    def test_second_apply_requires_finalize(self):
        sim = two_type_sim()
        sim.add_agent("P", 0.0)
        apply_transition(sim, lambda v, p, g: v.state, WRITE_P)
        with pytest.raises(UsageError):
            apply_transition(sim, lambda v, p, g: v.state, WRITE_P)
        finalize_step(sim)

    def test_run_rejects_zero_steps(self):
        sim = two_type_sim()
        sim.add_agent("P", 0.0)
        with pytest.raises(ValueError):
            run(sim, 0, [(lambda v, p, g: v.state, WRITE_P)])

    def test_run_counts_steps_and_metrics(self):
        sim = two_type_sim()
        sim.add_agent("P", 0.0)
        run(sim, 5, [(lambda v, p, g: v.state, WRITE_P)])
        assert sim.step == 5
        assert len(sim.step_metrics) == 5
        assert [m["agents_run"] for m in sim.step_metrics] == [1] * 5

    def test_direct_mutation_after_start_rejected(self):
        sim = two_type_sim()
        sim.add_agent("P", 0.0)
        step(sim, lambda v, p, g: v.state, WRITE_P)
        with pytest.raises(UsageError):
            sim.add_agent("P", 1.0)


class TestGuards:
    def test_a_type_name_given_alone_becomes_a_tuple(self):
        spec = TransitionSpec(callable_types="Cell", write_types="Cell")
        assert spec.callable_types == ("Cell",) and spec.write_types == ("Cell",)
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("Cell", (("x", "float64"),)))
        sim = Simulation(schema)
        sim.add_agent("Cell", 1.0)
        step(sim, lambda v, p, g: (v.field("x") + 1,), spec)
        assert sim.field_array("Cell", "x").tolist() == [2.0]

    def test_duplicate_callable_types_raise(self):
        sim = two_type_sim()
        sim.add_agent("P", 0.0)
        spec = TransitionSpec(callable_types=("P", "P"), write_types=("P",))
        with pytest.raises(UsageError, match="duplicate callable types"):
            apply_transition(sim, lambda v, p, g: v.state, spec)
        assert sim._staged is None

    def test_a_transition_cannot_apply_another_on_its_simulation(self):
        sim = two_type_sim()
        sim.add_agent("P", 0.0)

        def nested(view, params, g):
            apply_transition(sim, lambda v, p, g: v.state, WRITE_P)
            return view.state

        with pytest.raises(UsageError, match="transition already in flight"):
            apply_transition(sim, nested, WRITE_P)
        assert sim._staged is None and not sim._in_transition
        step(sim, lambda v, p, g: v.state, WRITE_P)
        assert sim.step == 1


class TestSlotReuse:
    def test_freed_slots_reused_lifo(self):
        # Six agents; kill slots 2 and 4; two later adds must land on 4 then 2;
        # a third add extends to slot 6.
        sim = two_type_sim()
        ids = [sim.add_agent("P", float(i)) for i in range(6)]

        def cull(view, params, g):
            if view.field("x") in (2.0, 4.0):
                return None
            return view.state

        step(sim, cull, WRITE_P)
        assert sim.n_alive("P") == 4

        def spawn(view, params, g):
            if view.field("x") == 0.0:
                for value in (10.0, 11.0, 12.0):
                    view.add_agent("P", value)
            return view.state

        step(sim, spawn, WRITE_P)
        # the add_agent ids are provisional: find the newborns by state
        by_state = dict(zip(sim.field_array("P", "x").tolist(), sim.agent_ids("P").tolist()))
        slots = [local_index(by_state[value]) for value in (10.0, 11.0, 12.0)]
        assert slots == [4, 2, 6]
        assert sim.is_alive(ids[0])
        assert sim.agent_state(ids[2]) == (11.0,)
        assert sim.agent_state(ids[4]) == (10.0,)


class TestDanglingEdges:
    def build(self):
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("P", (("x", "float64"),)))
        schema.register_edge_type(EdgeTypeDecl("Tracked"))
        schema.register_edge_type(EdgeTypeDecl("Blind", hints=Hint.IGNORE_FROM))
        sim = Simulation(schema)
        a = sim.add_agent("P", 0.0)
        b = sim.add_agent("P", 1.0)
        c = sim.add_agent("P", 2.0)
        sim.add_edge("Tracked", b, a)   # a -> b
        sim.add_edge("Tracked", a, c)   # c -> a
        sim.add_edge("Blind", b, a)     # a -> b, source dropped
        sim.add_edge("Blind", a, c)     # c -> a, source dropped
        sim.commit_initial()
        return sim, a, b, c

    def test_edges_touching_dead_agent_are_dropped(self):
        sim, a, b, c = self.build()

        def kill_a(view, params, g):
            return None if view.agent_id == a else view.state

        step(sim, kill_a, WRITE_P)
        tracked = sim.edge_container("Tracked")
        assert tracked.n_stored() == 0

    def test_ignore_from_edge_survives_source_death(self):
        sim, a, b, c = self.build()

        def kill_a(view, params, g):
            return None if view.agent_id == a else view.state

        step(sim, kill_a, WRITE_P)
        blind = sim.edge_container("Blind")
        # a -> b survives (source not stored); c -> a is swept (target dead)
        assert edge_read(blind, "count", b) == 1
        assert edge_read(blind, "count", a) == 0

    def test_no_deaths_leaves_edges_untouched(self):
        sim, a, b, c = self.build()
        tracked_before = sim.edge_container("Tracked")
        step(sim, lambda v, p, g: v.state, WRITE_P)
        assert sim.edge_container("Tracked") is tracked_before


class TestSynchrony:
    def _opinion_sim(self, n=12):
        schema = Schema()
        schema.register_agent_type(
            AgentTypeDecl("P", (("x", "float64"),), immortal=True)
        )
        schema.register_edge_type(EdgeTypeDecl("E", hints=Hint.STATELESS))
        sim = Simulation(schema, seed=5)
        rng = np.random.default_rng(5)
        ids = sim.add_agents("P", n, {"x": rng.random(n)})
        ring_t = np.repeat(np.arange(n, dtype=np.uint64), 2)
        ring_s = np.stack(
            [(np.arange(n) - 1) % n, (np.arange(n) + 1) % n], axis=1
        ).astype(np.uint64).ravel()
        sim.add_edges("E", ring_t, ring_s)
        return sim

    def _mean_fn(self):
        def fn(view, params, g):
            vals = view.neighbor_field("E", "x")
            return ((float(view.field("x")) + vals.sum()) / (1 + vals.size),)
        return fn

    def test_execution_order_does_not_matter(self):
        spec = TransitionSpec(
            callable_types=("P",), read_types=("E", "P"), write_types=("P",)
        )
        baseline = self._opinion_sim()
        step(baseline, self._mean_fn(), spec)
        expected = baseline.state_checksum()
        for trial in range(5):
            sim = self._opinion_sim()
            apply_transition(
                sim, self._mean_fn(), spec,
                shuffle=np.random.default_rng(trial),
            )
            finalize_step(sim)
            assert sim.state_checksum() == expected

    def test_shuffled_edge_emission_merges_identically(self):
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("P", (), immortal=True))
        schema.register_edge_type(EdgeTypeDecl("E"))
        spec = TransitionSpec(callable_types=("P",), write_types=("E",))

        def emit(view, params, g):
            view.add_edge("E", 0)  # everyone points at agent 0
            return None

        def build():
            sim = Simulation(schema_copy())
            sim.add_agents("P", 9, {})
            return sim

        def schema_copy():
            s = Schema()
            s.register_agent_type(AgentTypeDecl("P", (), immortal=True))
            s.register_edge_type(EdgeTypeDecl("E"))
            return s

        base = build()
        step(base, emit, spec)
        expected = edge_read(base.edge_container("E"), "sources", 0).tolist()
        assert expected == sorted(expected)  # producer order
        for trial in range(3):
            sim = build()
            apply_transition(sim, emit, spec, shuffle=np.random.default_rng(trial))
            finalize_step(sim)
            assert edge_read(sim.edge_container("E"), "sources", 0).tolist() == expected

    @pytest.mark.parametrize("births", ["one", "many"])
    def test_shuffled_births_and_deaths_over_two_types(self, births):
        """Shuffled, agents of both callable types run interleaved; some die
        and some give birth, and the step merges as it does unshuffled."""

        def build():
            schema = Schema()
            schema.register_agent_type(AgentTypeDecl("A", (("x", "float64"),)))
            schema.register_agent_type(AgentTypeDecl("B", (("y", "int64"),)))
            sim = Simulation(schema, seed=3)
            sim.add_agents("A", 12, {"x": np.arange(12.0)})
            sim.add_agents("B", 8, {"y": np.arange(8)})
            return sim

        born = []

        def fn(view, params, g):
            tag, slot = type_tag(view.agent_id), local_index(view.agent_id)
            if (slot + view.step) % 5 == 0:
                return None  # dies
            if (tag, slot) == (0, 1) or (births == "many" and slot % 4 == 1):
                born.append(view.add_agent("B", 100 * slot + view.step))
            return view.state

        spec = TransitionSpec(callable_types=("A", "B"), write_types=("A", "B"))
        sims = [build() for _ in range(4)]
        for k in range(3):
            for trial, sim in enumerate(sims):
                shuffle = np.random.default_rng(10 * trial + k) if trial else None
                step(sim, fn, spec, shuffle=shuffle)
        assert born and sims[0].n_alive("A") < 12
        for sim in sims[1:]:
            assert sim.state_checksum() == sims[0].state_checksum()


class TestNewAgents:
    def test_created_agents_run_next_step_not_this_step(self):
        sim = two_type_sim()
        sim.add_agent("P", 0.0)
        calls = []

        def spawn(view, params, g):
            calls.append(view.agent_id)
            view.add_agent("P", 1.0)
            return view.state

        spec = TransitionSpec(callable_types=("P",), write_types=("P",))
        step(sim, spawn, spec)
        assert len(calls) == 1
        assert sim.n_alive("P") == 2
        step(sim, spawn, spec)
        assert len(calls) == 3

    @pytest.mark.parametrize("workers, shuffled", [(1, False), (2, False), (1, True), (2, True)])
    def test_edge_to_own_new_agent(self, workers, shuffled):
        """A newborn as an edge's target and as its ``source=``: the stored
        edges hold its final id, and the step merges alike at 2 workers,
        shuffled or not, as at one worker."""

        def build():
            schema = Schema()
            schema.register_agent_type(AgentTypeDecl("P", (("x", "float64"),)))
            schema.register_edge_type(EdgeTypeDecl("E"))
            sim = Simulation(schema)
            sim.add_agents("P", 4, {"x": np.arange(4.0)})
            return sim

        def spawn_linked(view, params, g):
            for k in (10.0, 20.0):
                child = view.add_agent("P", view.field("x") + k)
                view.add_edge("E", child)  # parent -> child
                view.add_edge("E", view.agent_id, source=child)  # child -> parent
            return view.state

        spec = TransitionSpec(callable_types=("P",), write_types=("P", "E"))
        sims = []
        for w, rng in ((1, None), (workers, np.random.default_rng(4) if shuffled else None)):
            sim = build()
            apply_transition(sim, spawn_linked, spec, workers=w, shuffle=rng)
            finalize_step(sim)
            sims.append(sim)
        expected, sim = sims
        assert sim.state_checksum() == expected.state_checksum()
        by_state = dict(zip(sim.field_array("P", "x").tolist(), sim.agent_ids("P").tolist()))
        assert len(by_state) == 12
        c = sim.edge_container("E")
        for parent in range(4):
            children = [by_state[parent + k] for k in (10.0, 20.0)]
            assert sorted(edge_read(c, "sources", parent).tolist()) == children
            for child in children:
                assert edge_read(c, "sources", child).tolist() == [parent]
        assert c.edge_endpoints()[0].max() < 12  # every id is an agent's

    def test_single_type_edge_to_newborn_reports_nothing(self):
        """A SINGLE_TYPE edge to a newborn of the declared type reports
        nothing, and one to a newborn of another type reports it, at the
        merge, under the newborn's final id."""
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("P", ()))
        schema.register_agent_type(AgentTypeDecl("Q", ()))
        schema.register_edge_type(EdgeTypeDecl("ToQ", hints=Hint.SINGLE_TYPE,
                                               single_type_target="Q"))
        sim = Simulation(schema, checks="warn")
        sim.add_agents("P", 3)
        wrong = []

        def spawn(view, params, g):
            view.add_edge("ToQ", view.add_agent("Q"))
            if view.agent_id == 1:
                wrong.append(view.add_agent("P"))
                view.add_edge("ToQ", wrong[-1])
            return ()

        spec = TransitionSpec(callable_types=("P",), write_types=("P", "Q", "ToQ"))
        step(sim, spawn, spec)
        assert sim.n_alive("Q") == 3
        final = int(sim.agent_ids("P")[-1])
        assert final not in wrong and local_index(final) == 3
        assert [(r.kind, r.target, r.producer) for r in sim.check_reports] == [
            ("single_type", final, 1)]
        c = sim.edge_container("ToQ")
        q = sim.agent_ids("Q").tolist()
        assert [edge_read(c, "sources", t).tolist() for t in q] == [[0], [1], [2]]


class TestProvisionalIds:
    """A provisional id names no agent: lookups split ids by type alone,
    and its slot lies past every segment, as does an id whose slot bits
    above 36 are not 0."""

    def build(self):
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("P", (("x", "float64"),)))
        schema.register_edge_type(EdgeTypeDecl("E"))
        sim = Simulation(schema)
        sim.add_agents("P", 4, {"x": np.arange(4.0)})
        return sim

    @pytest.mark.parametrize("column", ["target", "source"])
    @pytest.mark.parametrize("part", [1, 2, (1 << 20) - 1])
    def test_rejected_by_add_edges_at_init(self, column, part):
        sim = self.build()
        bad = agent_id(0, (part << 36) | 1)
        ids = np.array([0, bad], dtype=np.uint64)
        good = np.zeros(2, dtype=np.uint64)
        sim.add_edges("E", *((ids, good) if column == "target" else (good, ids)))
        with pytest.raises(ContractViolation, match=f"nonexistent agent {bad:#x}$"):
            sim.commit_initial()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("column,rebirth", [
        ("target", False), ("source", False), ("target", True), ("source", True),
    ])
    def test_rejected_in_a_transition(self, column, rebirth, workers):
        """A provisional id kept past its step, here in a global, is no
        agent: an edge to or from it fails the endpoint check, also when
        the same agent creates another agent in the linking transition."""
        sim = self.build()
        kept = []

        def spawn(view, params, g):
            if view.agent_id == 0:
                kept.append(view.add_agent("P", 9.0))
            return view.state

        def link(view, params, g):
            if view.agent_id == 0 and rebirth:
                view.add_agent("P", 7.0)
            if view.agent_id == 1:
                if column == "target":
                    view.add_edge("E", kept[0])
                else:
                    view.add_edge("E", 0, source=kept[0])
            return view.state if rebirth else None

        step(sim, spawn, WRITE_P, workers=workers)
        assert local_index(kept[0]) >= MAX_SLOT and sim.n_alive("P") == 5
        spec = TransitionSpec(callable_types=("P",),
                              write_types=("P", "E") if rebirth else ("E",))
        with pytest.raises(ContractViolation, match=f"nonexistent agent {kept[0]:#x}$"):
            apply_transition(sim, link, spec, workers=workers)
        assert sim._staged is None

    def test_not_alive_and_no_state(self):
        sim = self.build()
        for part in (1, 5):
            aid = agent_id(0, (part << 36) | 2)
            assert not sim.is_alive(aid)
            with pytest.raises(UnknownName):
                sim.agent_state(aid)
        assert sim.is_alive(agent_id(0, 2))
        assert sim.agent_state(agent_id(0, 2)) == (2.0,)


class TestImmortality:
    def test_immortal_must_return_state(self):
        sim = two_type_sim(mortal=False)
        sim.add_agent("P", 0.0)
        with pytest.raises(UsageError):
            apply_transition(sim, lambda v, p, g: None, WRITE_P)

    def test_keep_existing_forbids_state_returns(self):
        sim = two_type_sim()
        sim.add_agent("P", 0.0)
        spec = TransitionSpec(
            callable_types=("P",), write_types=("P",), keep_existing=("P",)
        )
        with pytest.raises(UsageError):
            apply_transition(sim, lambda v, p, g: v.state, spec)

    def test_immortal_written_nonkeep_needs_writer(self):
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("P", (), immortal=True))
        schema.register_agent_type(AgentTypeDecl("Q", (), immortal=True))
        sim = Simulation(schema)
        sim.add_agent("P")
        sim.add_agent("Q")
        spec = TransitionSpec(callable_types=("P",), write_types=("Q",))
        with pytest.raises(UsageError):
            apply_transition(sim, lambda v, p, g: None, spec)


class TestInformationBound:
    """A transition function cannot distinguish two simulations whose
    1-neighborhood of the executing agent agrees."""

    def _probe(self, log):
        def fn(view, params, g):
            if view.field("x") == 0.0:  # the focal agent
                log.append(
                    (
                        view.state,
                        tuple(view.edges("E")),
                        tuple(view.source_state(r) for r in view.edges("E")),
                        view.num_edges("E"),
                        view.has_edge("E"),
                    )
                )
            return view.state

        return fn

    def _build(self, extra_noise: bool):
        schema = Schema()
        schema.register_agent_type(
            AgentTypeDecl("P", (("x", "float64"),), immortal=True)
        )
        schema.register_edge_type(EdgeTypeDecl("E", (("w", "float64"),)))
        sim = Simulation(schema)
        focal = sim.add_agent("P", 0.0)
        n1 = sim.add_agent("P", 1.5)
        n2 = sim.add_agent("P", 2.5)
        sim.add_edge("E", focal, n1, (0.1,))
        sim.add_edge("E", focal, n2, (0.2,))
        other = sim.add_agent("P", 9.0 if extra_noise else 3.0)
        if extra_noise:
            sim.add_edge("E", n1, other, (0.9,))
            sim.add_edge("E", other, n2, (0.8,))
        return sim

    def test_equal_views_are_indistinguishable(self):
        spec = TransitionSpec(
            callable_types=("P",), read_types=("E", "P"), write_types=("P",)
        )
        observations = []
        for noise in (False, True):
            log = []
            sim = self._build(noise)
            step(sim, self._probe(log), spec)
            observations.append(log)
        assert observations[0] == observations[1]


class TestReadBufferImmutability:
    def test_checksum_stable_across_apply(self):
        sim = two_type_sim()
        for i in range(6):
            sim.add_agent("P", float(i))
        sim.commit_initial()
        before = sim.state_checksum()
        apply_transition(sim, lambda v, p, g: (v.field("x") + 1.0,), WRITE_P)
        # staged but not finalized: the read side is still time t
        assert sim.state_checksum() == before
        finalize_step(sim)
        assert sim.state_checksum() != before


class TestResolvedSpecs:
    """A transition spec is resolved against the simulation once per
    ``(spec, checks)`` and kept; each call installs its own globals."""

    def test_invalid_spec_raises_on_every_call(self):
        sim = two_type_sim()
        sim.add_agent("P", 1.0)
        bad = TransitionSpec(callable_types=("E",))
        for _ in range(3):
            with pytest.raises(UsageError, match="not an agent type"):
                apply_transition(sim, lambda v, p, g: None, bad)
            assert sim._staged is None and not sim._in_transition
        step(sim, lambda v, p, g: v.state, WRITE_P)
        assert sim.step == 1

    def test_one_off_and_run_share_a_spec(self):
        """The spec's one resolution serves a one-off two-worker call and
        the run after it, whose checksum is the one-worker run's."""
        def grow(view, params, g):
            return (view.field("x") + g["inc"],)

        def build():
            sim = two_type_sim()
            for i in range(9):
                sim.add_agent("P", float(i))
            sim.set_global("inc", 0.5)
            return sim

        sim = build()
        step(sim, grow, WRITE_P, workers=2)
        assert len(sim._specs) == 1
        run(sim, 2, [(grow, WRITE_P)], workers=2)
        assert len(sim._specs) == 1
        once = build()
        run(once, 3, [(grow, WRITE_P)])
        assert sim.state_checksum() == once.state_checksum()

    def test_globals_are_the_calls(self):
        sim = two_type_sim()
        sim.add_agent("P", 0.0)
        for inc in (1.0, 5.0):
            sim.set_global("inc", inc)
            step(sim, lambda v, p, g: (v.field("x") + g["inc"],), WRITE_P)
        assert sim.field_array("P", "x").tolist() == [6.0]

    def test_an_epidemic_resolves_each_spec_once(self, monkeypatch):
        from graphabm import engine
        from graphabm.models.episim import EpiConfig, build_epi, day_program

        made = []
        real = engine.RuntimeSpec.__init__

        def counted(self, sim, spec):
            made.append((spec, sim.checks))
            real(self, sim, spec)

        monkeypatch.setattr(engine.RuntimeSpec, "__init__", counted)
        model = build_epi(EpiConfig(persons=200, locations=20, theta=0.3, seed=3))
        run(model.sim, 10, day_program(model))
        assert len(made) == 3 and len(set(made)) == 3
        model.sim.checks = "warn"  # a spec's resolution holds no checks setting
        run(model.sim, 2, day_program(model))
        assert len(made) == 3
