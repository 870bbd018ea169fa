from __future__ import annotations

import enum

import numpy as np
import pytest

from graphabm import (
    AgentTypeDecl,
    ContractViolation,
    EdgePlan,
    EdgeTypeDecl,
    Hint,
    HintViolation,
    Schema,
    Simulation,
    TransitionSpec,
    UsageError,
    apply_transition,
    finalize_step,
    partition_graph,
    split_id,
    storage_plan_for,
)
from graphabm.ids import COMP_SHIFT
from graphabm.storage import build_read_container, make_shard

from test_schema import all_hint_sets, is_legal


def build_sim(edge_decl: EdgeTypeDecl, n_agents: int = 8, checks="on") -> Simulation:
    schema = Schema()
    schema.register_agent_type(AgentTypeDecl("A", (("v", "float64"),), immortal=True))
    schema.register_edge_type(edge_decl)
    sim = Simulation(schema, checks=checks)
    sim.add_agents("A", n_agents, {"v": np.arange(n_agents, dtype=float)})
    return sim


class TestListContainers:
    def test_insertion_order_per_target(self):
        sim = build_sim(EdgeTypeDecl("E", (("w", "float64"),)))
        t, a, b, c = 0, 1, 2, 3
        sim.add_edge("E", t, a, (1.0,))
        sim.add_edge("E", t, b, (2.0,))
        sim.add_edge("E", t, c, (3.0,))
        sim.commit_initial()
        records = sim.edge_container("E").records_for(t)
        assert [r.source for r in records] == [a, b, c]
        assert [r.state for r in records] == [(1.0,), (2.0,), (3.0,)]

    def test_empty_target(self):
        sim = build_sim(EdgeTypeDecl("E"))
        sim.commit_initial()
        c = sim.edge_container("E")
        assert c.records_for(5) == []
        assert c.count_for(5) == 0
        assert not c.has_for(5)

    def test_duplicate_edges_kept(self):
        sim = build_sim(EdgeTypeDecl("E"))
        sim.add_edge("E", 0, 1)
        sim.add_edge("E", 0, 1)
        sim.commit_initial()
        assert sim.edge_container("E").count_for(0) == 2

    def test_bulk_matches_scalar(self):
        decl = EdgeTypeDecl("E", (("w", "float64"),))
        sim_a = build_sim(decl)
        sim_b = build_sim(decl)
        targets = [0, 2, 0, 1]
        sources = [3, 4, 5, 6]
        states = [(0.5,), (1.5,), (2.5,), (3.5,)]
        for t, s, st in zip(targets, sources, states):
            sim_a.add_edge("E", t, s, st)
        sim_b.add_edges(
            "E",
            np.array(targets, dtype=np.uint64),
            np.array(sources, dtype=np.uint64),
            states,
        )
        sim_a.commit_initial()
        sim_b.commit_initial()
        for t in range(8):
            ra = sim_a.edge_container("E").records_for(t)
            rb = sim_b.edge_container("E").records_for(t)
            assert ra == rb


class TestCsrIndex:
    """The slot-indexed ``indptr`` of list containers."""

    def _container(self):
        sim = build_sim(EdgeTypeDecl("E", (("w", "float64"),)))
        sim.add_edge("E", 0, 1, (1.0,))
        sim.add_edge("E", 3, 2, (2.0,))
        sim.add_edge("E", 3, 4, (3.0,))
        sim.commit_initial()
        return sim.edge_container("E")

    @staticmethod
    def assert_no_edges(c, aid):
        assert not c.has_for(aid)
        assert c.count_for(aid) == 0
        assert c.sources_for(aid).tolist() == []
        assert c.states_for(aid) == []
        assert c.records_for(aid) == []

    def test_target_without_edges_between_targets_with_edges(self):
        c = self._container()
        for aid in (1, 2):
            self.assert_no_edges(c, aid)
        assert c.sources_for(3).tolist() == [2, 4]
        assert c.states_for(3) == [(2.0,), (3.0,)]

    def test_slot_past_the_end_of_indptr(self):
        c = self._container()
        (ptr,) = c.indptr.values()
        assert ptr.size == 5  # slots 0..3 and the closing entry
        for aid in (4, 7, (1 << 30) + 5):
            self.assert_no_edges(c, aid)
        starts, ends = c.bounds(0, np.array([3, 9, 0]))
        assert (ends - starts).tolist() == [2, 0, 1]
        assert starts[[0, 2]].tolist() == [1, 0]
        starts, ends = c.bounds(5, np.array([0, 1]))  # composite without edges
        assert (ends - starts).tolist() == [0, 0]

    def test_targets_spanning_two_agent_types(self):
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("A", (), immortal=True))
        schema.register_agent_type(AgentTypeDecl("B", (), immortal=True))
        schema.register_edge_type(EdgeTypeDecl("E", hints=Hint.STATELESS))
        sim = Simulation(schema)
        a = sim.add_agents("A", 3)
        b = sim.add_agents("B", 2)
        sim.add_edges("E", np.r_[b[1], a[2], b[1], a[0]], np.r_[a[0], b[0], a[1], a[2]])
        sim.commit_initial()
        c = sim.edge_container("E")
        assert len(c.indptr) == 2
        assert c.sources_for(int(a[0])).tolist() == [int(a[2])]
        assert c.sources_for(int(a[2])).tolist() == [int(b[0])]
        assert c.sources_for(int(b[1])).tolist() == [int(a[0]), int(a[1])]
        for aid in (a[1], b[0]):
            assert not c.has_for(int(aid))
            assert c.count_for(int(aid)) == 0
        comp_b = int(b[0]) >> COMP_SHIFT
        starts, ends = c.bounds(comp_b, np.array([1, 0]))
        assert (ends - starts).tolist() == [2, 0]


class TestPlanRestrictions:
    def test_count_only_answers_counts_not_records(self):
        sim = build_sim(EdgeTypeDecl("E", hints=Hint.STATELESS | Hint.IGNORE_FROM))
        for _ in range(4):
            sim.add_edge("E", 0, 1)
        sim.commit_initial()
        c = sim.edge_container("E")
        assert c.count_for(0) == 4
        assert c.has_for(0)
        with pytest.raises(HintViolation):
            c.records_for(0)
        with pytest.raises(HintViolation):
            c.sources_for(0)

    def test_existence_bit_answers_only_presence(self):
        sim = build_sim(
            EdgeTypeDecl(
                "E",
                hints=Hint.STATELESS | Hint.IGNORE_FROM | Hint.SINGLE_EDGE,
            ),
            checks="off",
        )
        for _ in range(4):
            sim.add_edge("E", 0, 1)
        sim.commit_initial()
        c = sim.edge_container("E")
        assert c.has_for(0)
        assert not c.has_for(1)
        with pytest.raises(HintViolation):
            c.count_for(0)
        with pytest.raises(HintViolation):
            c.records_for(0)

    def test_single_edge_forbids_count(self):
        sim = build_sim(EdgeTypeDecl("E", hints=Hint.SINGLE_EDGE))
        sim.add_edge("E", 0, 1)
        sim.commit_initial()
        c = sim.edge_container("E")
        with pytest.raises(HintViolation):
            c.count_for(0)
        assert c.has_for(0)
        assert [r.source for r in c.records_for(0)] == [1]

    def test_ignore_from_drops_sources(self):
        sim = build_sim(EdgeTypeDecl("E", (("w", "float64"),), hints=Hint.IGNORE_FROM))
        sim.add_edge("E", 0, 1, (2.0,))
        sim.commit_initial()
        c = sim.edge_container("E")
        with pytest.raises(HintViolation):
            c.sources_for(0)
        assert c.records_for(0) == [type(c.records_for(0)[0])(None, (2.0,), "E")]

    def test_stateless_drops_states(self):
        sim = build_sim(EdgeTypeDecl("E", hints=Hint.STATELESS))
        sim.add_edge("E", 0, 1)
        sim.commit_initial()
        c = sim.edge_container("E")
        with pytest.raises(HintViolation):
            c.states_for(0)
        assert c.records_for(0)[0].state is None
        assert c.records_for(0)[0].source == 1


def reference_queries(full, hints: Hint, plan: EdgePlan, targets):
    """What a hinted container must agree on with a FullEdgeList reference."""
    out = {}
    for t in targets:
        row = {"has": full.has_for(t)}
        if plan not in (EdgePlan.EXISTENCE_BIT, EdgePlan.SINGLE_FULL_EDGE):
            row["count"] = full.count_for(t)
        if Hint.IGNORE_FROM not in hints and plan is not EdgePlan.COUNT_ONLY and plan is not EdgePlan.EXISTENCE_BIT:
            row["sources"] = full.sources_for(t).tolist()
        if (
            Hint.STATELESS not in hints
            and plan not in (EdgePlan.COUNT_ONLY, EdgePlan.EXISTENCE_BIT)
        ):
            row["states"] = full.states_for(t)
        out[t] = row
    return out


def hinted_queries(container, hints: Hint, plan: EdgePlan, targets):
    out = {}
    for t in targets:
        row = {"has": container.has_for(t)}
        if plan not in (EdgePlan.EXISTENCE_BIT, EdgePlan.SINGLE_FULL_EDGE):
            row["count"] = container.count_for(t)
        if Hint.IGNORE_FROM not in hints and plan is not EdgePlan.COUNT_ONLY and plan is not EdgePlan.EXISTENCE_BIT:
            row["sources"] = container.sources_for(t).tolist()
        if (
            Hint.STATELESS not in hints
            and plan not in (EdgePlan.COUNT_ONLY, EdgePlan.EXISTENCE_BIT)
        ):
            row["states"] = container.states_for(t)
        out[t] = row
    return out


class TestObservationalEquivalence:
    """Any query legal under a hint set answers identically whether the
    edges live in the hinted representation or in a FullEdgeList."""

    @pytest.mark.parametrize("hints", [h for h in all_hint_sets() if is_legal(h)],
                             ids=lambda h: str(h))
    def test_hinted_matches_full(self, hints):
        from graphabm.schema import storage_plan_for

        plan = storage_plan_for(hints)
        rng = np.random.default_rng(int(hints.value) + 17)
        n = 10
        single = Hint.SINGLE_EDGE in hints
        edges = []
        used_targets = set()
        for _ in range(24):
            t = int(rng.integers(0, n))
            if single:
                if t in used_targets:
                    continue
                used_targets.add(t)
            edges.append((t, int(rng.integers(0, n)), (float(rng.random()),)))

        decl_kw = {}
        if Hint.SINGLE_TYPE in hints:
            decl_kw["single_type_target"] = "A"
        hinted = build_sim(
            EdgeTypeDecl("E", (("w", "float64"),), hints=hints, **decl_kw), n_agents=n
        )
        full = build_sim(EdgeTypeDecl("E", (("w", "float64"),)), n_agents=n)
        for t, s, st in edges:
            hinted.add_edge("E", t, s, st)
            full.add_edge("E", t, s, st)
        hinted.commit_initial()
        full.commit_initial()

        targets = range(n)
        expected = reference_queries(full.edge_container("E"), hints, plan, targets)
        actual = hinted_queries(hinted.edge_container("E"), hints, plan, targets)
        assert actual == expected


# (workers, partition strategy, or "shuffle" for a shuffled single worker)
TRANSITION_RUNS = [
    (1, None), (1, "shuffle"), (2, "contiguous"), (2, "round_robin"), (4, "round_robin"),
]


def transition_sim(decl, initial, emitted, n, workers=1, how=None, checks="on"):
    """``initial`` (target, source, state) edges added before the first step,
    then the ``emitted`` edges (producer -> [(target, state)], in add order)
    added by a per-agent transition that keeps the existing edges."""
    sim = build_sim(decl, n_agents=n, checks=checks)
    for t, s, st in initial:
        sim.add_edge("E", t, s, st)
    sim.commit_initial()

    def emit(view, params, g):
        for t, st in emitted.get(view.agent_id, ()):
            view.add_edge("E", t, st)

    spec = TransitionSpec(callable_types=("A",), write_types=("E",), keep_existing=("E",))
    if how == "shuffle":
        apply_transition(sim, emit, spec, shuffle=np.random.default_rng(5))
    else:
        partition = partition_graph(sim, workers, how) if workers > 1 else None
        apply_transition(sim, emit, spec, workers=workers, partition=partition)
    finalize_step(sim)
    return sim


class TestObservationalEquivalenceThroughTransitions:
    """The hint-equivalence oracle through a per-agent transition's merge,
    with carryover, at 1, 2 and 4 workers and in shuffled order."""

    @pytest.mark.parametrize("hints", [h for h in all_hint_sets() if is_legal(h)],
                             ids=lambda h: str(h))
    def test_hinted_matches_full(self, hints):
        from graphabm.schema import storage_plan_for

        plan = storage_plan_for(hints)
        rng = np.random.default_rng(int(hints.value) + 31)
        n = 12
        used_targets = set()
        initial, emitted = [], {}
        for k in range(36):
            t = int(rng.integers(0, n))
            if Hint.SINGLE_EDGE in hints:
                if t in used_targets:
                    continue
                used_targets.add(t)
            s, st = int(rng.integers(0, n)), (float(rng.random()),)
            if k < 8:
                initial.append((t, s, st))
            else:
                emitted.setdefault(s, []).append((t, st))

        layout = (("w", "float64"),)
        full = transition_sim(EdgeTypeDecl("E", layout), initial, emitted, n)
        expected = reference_queries(full.edge_container("E"), hints, plan, range(n))
        decl = EdgeTypeDecl(
            "E", layout, hints=hints,
            single_type_target="A" if Hint.SINGLE_TYPE in hints else None,
        )
        sums = set()
        for workers, how in TRANSITION_RUNS:
            hinted = transition_sim(decl, initial, emitted, n, workers, how)
            actual = hinted_queries(hinted.edge_container("E"), hints, plan, range(n))
            assert actual == expected, (workers, how)
            sums.add(hinted.state_checksum())
        assert len(sums) == 1


class TestSingleFullEdgeDuplicates:
    """SINGLE_EDGE breaches of a SINGLE_FULL_EDGE type, and in a transition of
    an EXISTENCE_BIT type, are found by the merge, the one place that sees
    every edge of every shard."""

    DECL = EdgeTypeDecl("E", (("w", "float64"),), hints=Hint.SINGLE_EDGE)
    RETAINED = [(3, 4, (0.25,)), (4, 4, (0.75,))]
    EMITTED = {
        1: [(0, (1.0,)), (0, (1.5,))],  # twice to one target from one agent
        2: [(5, (2.0,))],
        6: [(0, (6.0,)), (3, (6.5,))],  # target 0 from the other half; 3 is retained
        7: [(5, (7.0,))],
    }

    def test_warn_mode_reports_each_edge_beyond_a_targets_first(self):
        outcomes = set()
        for workers, how in TRANSITION_RUNS + [(4, "contiguous")]:
            sim = transition_sim(self.DECL, self.RETAINED, self.EMITTED, 8,
                                 workers, how, checks="warn")
            reports = [(v.kind, v.target, v.producer) for v in sim.check_reports]
            # target 0: three staged edges; 5: two; 3: one on a retained edge
            assert reports == [
                ("single_edge", 0, 1), ("single_edge", 0, 6),
                ("single_edge", 3, 6), ("single_edge", 5, 7),
            ], (workers, how)
            c = sim.edge_container("E")
            kept = [(c.sources_for(t).tolist(), c.states_for(t)) for t in range(8)]
            # the highest producer's last add wins; a retained edge counts as earliest
            assert kept == [
                ([6], [(6.0,)]), ([], []), ([], []), ([6], [(6.5,)]),
                ([4], [(0.75,)]), ([7], [(7.0,)]), ([], []), ([], []),
            ], (workers, how)
            outcomes.add(sim.state_checksum())
        assert len(outcomes) == 1

    @pytest.mark.parametrize("form, kept", [("agent", False), ("agent", True),
                                            ("batch", False)])
    @pytest.mark.parametrize("plan", ["single_full_edge", "existence_bit"])
    def test_reports_do_not_depend_on_worker_count(self, plan, form, kept):
        """40 agents each add an edge to one of 4 targets, agent a to a % 4;
        with ``kept``, targets 0 and 1 also hold a retained edge. Each edge
        beyond a target's first is reported once, in target order, with its
        producer, at any worker count and partition."""
        if plan == "existence_bit":
            decl = EdgeTypeDecl("E", hints=Hint.STATELESS | Hint.IGNORE_FROM | Hint.SINGLE_EDGE)
            state = ()
        else:
            decl, state = self.DECL, (1.0,)

        def agent_form(view, params, g):
            view.add_edge("E", view.agent_id % 4, state)

        def batch_form(batch, params, g):
            n = batch.slots.size
            batch.add_edges("E", batch.ids % 4, agents=np.arange(n),
                            states=[np.ones(n)] if state else None)

        spec = TransitionSpec(callable_types=("A",), write_types=("E",),
                              keep_existing=("E",) if kept else (),
                              batch=form == "batch")
        retained = [0, 1] if kept else []
        expected = []
        for t in range(4):
            producers = list(range(t, 40, 4))
            if t in retained:
                expected.append(("single_edge", t, t,
                                 "SINGLE_EDGE target already had a retained edge"))
            expected += [("single_edge", t, p, "second edge added to a SINGLE_EDGE target")
                         for p in producers[1:]]
        sums = set()
        for workers, how in [(1, None), (2, "contiguous"), (2, "round_robin"),
                             (4, "contiguous"), (4, "round_robin")]:
            sim = build_sim(decl, n_agents=40, checks="warn")
            for t in retained:
                sim.add_edge("E", t, 39 - t, state)
            sim.commit_initial()
            partition = partition_graph(sim, workers, how) if workers > 1 else None
            apply_transition(sim, batch_form if form == "batch" else agent_form,
                             spec, workers=workers, partition=partition)
            finalize_step(sim)
            reports = [(v.kind, v.target, v.producer, v.message)
                       for v in sim.check_reports]
            assert reports == expected, (workers, how)
            c = sim.edge_container("E")
            assert [c.has_for(t) for t in range(6)] == [True] * 4 + [False] * 2
            sums.add(sim.state_checksum())
        assert len(sums) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_mode_raises_and_stages_nothing(self, workers):
        with pytest.raises(ContractViolation, match="SINGLE_EDGE"):
            transition_sim(self.DECL, self.RETAINED, self.EMITTED, 8, workers,
                           "contiguous" if workers > 1 else None)
        sim = build_sim(self.DECL)
        spec = TransitionSpec(callable_types=("A",), write_types=("E",))
        with pytest.raises(ContractViolation):
            apply_transition(sim, lambda v, p, g: v.add_edge("E", 0, (1.0,)), spec,
                             workers=workers)
        assert sim._staged is None

    def test_initial_duplicates_are_reported_at_commit(self):
        sim = build_sim(self.DECL, checks="warn")
        sim.add_edge("E", 0, 1, (1.0,))
        sim.add_edge("E", 0, 2, (2.0,))
        sim.add_edges("E", np.array([3, 3, 3], dtype=np.uint64),
                      np.array([4, 5, 6], dtype=np.uint64), [(3.0,), (4.0,), (5.0,)])
        sim.commit_initial()
        assert [(v.kind, v.target) for v in sim.check_reports] == [
            ("single_edge", 0), ("single_edge", 3), ("single_edge", 3),
        ]
        c = sim.edge_container("E")
        assert c.records_for(0)[0].source == 2
        assert c.records_for(3)[0].state == (5.0,)
        sim = build_sim(self.DECL)
        sim.add_edge("E", 0, 1, (1.0,))
        sim.add_edge("E", 0, 2, (2.0,))
        with pytest.raises(ContractViolation):
            sim.commit_initial()


class TestDeterministicMerge:
    def _schema_info(self, hints=Hint.NONE):
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("A", (), immortal=True))
        schema.register_edge_type(EdgeTypeDecl("E", hints=hints))
        return schema.edge_type("E")

    def test_merge_orders_by_producer_across_shards(self):
        info = self._schema_info()
        # Worker shards hold interleaved producer ranges (round-robin style).
        s0 = make_shard(info, record_producers=True)
        s1 = make_shard(info, record_producers=True)
        s0.add(7, 100, None, 0)
        s0.add(7, 102, None, 2)
        s1.add(7, 101, None, 1)
        s1.add(7, 103, None, 3)
        merged = build_read_container(info, [s0, s1])
        assert merged.sources_for(7).tolist() == [100, 101, 102, 103]

    def test_same_producer_insertion_order_preserved(self):
        info = self._schema_info()
        s0 = make_shard(info, record_producers=True)
        s0.add(7, 100, None, 5)
        s0.add(7, 101, None, 5)
        s1 = make_shard(info, record_producers=True)
        s1.add(7, 102, None, 9)
        merged = build_read_container(info, [s0, s1])
        assert merged.sources_for(7).tolist() == [100, 101, 102]

    def test_count_merge_is_order_free(self):
        info = self._schema_info(Hint.STATELESS | Hint.IGNORE_FROM)
        s0 = make_shard(info)
        s1 = make_shard(info)
        s0.add(3)
        s1.add(3)
        s1.add(3)
        merged = build_read_container(info, [s0, s1])
        assert merged.count_for(3) == 3


class Level(enum.IntEnum):
    LOW = 0
    HIGH = 1


TYPED_PLANS = {
    EdgePlan.FULL_EDGE_LIST: Hint.NONE,
    EdgePlan.STATE_ONLY_LIST: Hint.IGNORE_FROM,
    EdgePlan.SINGLE_FULL_EDGE: Hint.SINGLE_EDGE,
}
ONE_SPELLINGS = [1, np.int64(1), 1.0, True, "1", Level.HIGH]
WRITE_PATHS = [("add_edge", 1), ("add_edges", 1), ("view", 1), ("view", 2)]


def typed_sim(plan, value, path, workers=1,
              layout=(("k", "int64"), ("w", "float64")), state=None):
    """Edges 0 <- 1 and 2 <- 3 with state ``state``, by default (value, 0.5)
    for an (int64, float64) layout, written through one of the three write
    paths."""
    schema = Schema()
    schema.register_agent_type(AgentTypeDecl("A", (), immortal=True))
    schema.register_edge_type(EdgeTypeDecl("E", layout, hints=TYPED_PLANS[plan]))
    sim = Simulation(schema)
    ids = sim.add_agents("A", 4)
    state = (value, 0.5) if state is None else state
    if path == "add_edge":
        for t in (0, 2):
            sim.add_edge("E", int(ids[t]), int(ids[t + 1]), state)
    elif path == "add_edges":
        sim.add_edges("E", ids[[0, 2]], ids[[1, 3]], [state, state])
    sim.commit_initial()
    if path == "view":
        def emit(view, params, g):
            if view.agent_id % 2 == 0:
                view.add_edge("E", view.agent_id, state, source=view.agent_id + 1)

        spec = TransitionSpec(callable_types=("A",), write_types=("E",))
        apply_transition(sim, emit, spec, workers=workers)
        finalize_step(sim)
    return sim


class TestTypedEdgeStates:
    """Edge state fields are cast to their declared dtypes at the merge."""

    @pytest.mark.parametrize("plan", list(TYPED_PLANS), ids=lambda p: p.value)
    def test_spellings_of_one_give_one_checksum_per_plan(self, plan):
        sums = set()
        for path, workers in WRITE_PATHS:
            for value in ONE_SPELLINGS:
                sim = typed_sim(plan, value, path, workers)
                sums.add(sim.state_checksum())
                (state,) = sim.edge_container("E").states_for(0)
                assert state == (1, 0.5)
                assert [type(v) for v in state] == [int, float]
        assert len(sums) == 1

    @pytest.mark.parametrize("plan", list(TYPED_PLANS), ids=lambda p: p.value)
    @pytest.mark.parametrize("value", ["x", None])
    def test_value_that_does_not_cast_raises_usage_error(self, plan, value):
        for path in ("add_edge", "add_edges"):
            with pytest.raises(UsageError, match="'E', field 'k'"):
                typed_sim(plan, value, path)
        for workers in (1, 2):
            sim = typed_sim(plan, 1, "add_edge")
            spec = TransitionSpec(callable_types=("A",), write_types=("E",))
            with pytest.raises(UsageError, match="'E', field 'k'"):
                apply_transition(
                    sim, lambda v, p, g: v.add_edge("E", v.agent_id, (value, 0.5)),
                    spec, workers=workers,
                )
            assert sim._staged is None

    @pytest.mark.parametrize("plan", list(TYPED_PLANS), ids=lambda p: p.value)
    @pytest.mark.parametrize("field", ["w", "b"])
    def test_none_in_float_or_bool_field_raises_usage_error(self, plan, field):
        layout = (("w", "float64"), ("b", "bool"))
        state = (None, True) if field == "w" else (0.5, None)
        for path, workers in WRITE_PATHS:
            with pytest.raises(UsageError, match=f"'E', field '{field}'"):
                typed_sim(plan, None, path, workers, layout=layout, state=state)

    def test_bulk_add_rejects_sources_or_states_of_another_length(self):
        sim = build_sim(EdgeTypeDecl("E", (("w", "float64"),)))
        with pytest.raises(UsageError):
            sim.add_edges("E", np.array([0, 1], dtype=np.uint64),
                          np.array([2], dtype=np.uint64), [(1.0,), (2.0,)])
        with pytest.raises(UsageError):
            sim.add_edges("E", np.array([0, 1], dtype=np.uint64),
                          np.array([2, 3], dtype=np.uint64), [(1.0,)])

    @pytest.mark.parametrize("state", [(1,), (1, 2, 3)])
    def test_bulk_add_rejects_states_of_the_wrong_arity(self, state):
        sim = build_sim(EdgeTypeDecl("E", (("a", "int64"), ("b", "int64"))))
        with pytest.raises(UsageError):
            sim.add_edges("E", np.array([0, 1], dtype=np.uint64),
                          np.array([2, 3], dtype=np.uint64), [(1, 2), state])

    def test_kept_list_type_keeps_sources_and_states_through_an_empty_step(self):
        sim = build_sim(EdgeTypeDecl("E", (("k", "int64"),)))
        sim.add_edge("E", 0, 1, (5,))
        spec = TransitionSpec(callable_types=("A",), write_types=("E",),
                              keep_existing=("E",))
        apply_transition(sim, lambda v, p, g: None, spec)
        finalize_step(sim)
        c = sim.edge_container("E")
        assert c.sources_for(0).tolist() == [1]
        assert c.states_for(0) == [(5,)]


AGENT_LAYOUT = (("x", "float64"), ("b", "bool"), ("i", "int64"))
NONE_STATES = {"x": (None, True, 1), "b": (0.5, None, 1), "i": (0.5, True, None)}


def agent_sim(immortal=False):
    schema = Schema()
    schema.register_agent_type(AgentTypeDecl("T", AGENT_LAYOUT, immortal=immortal))
    sim = Simulation(schema)
    sim.add_agents("T", 4, {"x": np.zeros(4), "b": np.ones(4, dtype=bool),
                            "i": np.arange(4)})
    return sim


class TestTypedAgentStates:
    """None in an agent field raises on every write path, as in an edge
    field, instead of being stored as NaN or False."""

    @pytest.mark.parametrize("field", list(NONE_STATES))
    def test_initial_adds_reject_none(self, field):
        sim = agent_sim()
        with pytest.raises(UsageError, match=f"'T', field '{field}'"):
            sim.add_agent("T", *NONE_STATES[field])
        columns = {name: [value] * 2
                   for (name, _), value in zip(AGENT_LAYOUT, NONE_STATES[field])}
        with pytest.raises(UsageError, match=f"'T', field '{field}'"):
            sim.add_agents("T", 2, columns)
        assert sim.n_alive("T") == 4

    @pytest.mark.parametrize("field", list(NONE_STATES))
    @pytest.mark.parametrize("workers", [1, 2])
    def test_transition_writes_reject_none(self, field, workers):
        state = NONE_STATES[field]
        spec = TransitionSpec(callable_types=("T",), write_types=("T",))
        for fn in (
            lambda v, p, g: state,
            lambda v, p, g: (v.add_agent("T", *state), v.state)[1],
        ):
            sim = agent_sim()
            with pytest.raises(UsageError, match=f"'T', field '{field}'"):
                apply_transition(sim, fn, spec, workers=workers)
            assert sim._staged is None

    @pytest.mark.parametrize("field", list(NONE_STATES))
    def test_batch_columns_reject_none(self, field):
        def fn(batch, params, g):
            return [[None] * batch.slots.size if name == field else batch.field(name)
                    for name, _ in AGENT_LAYOUT]

        sim = agent_sim(immortal=True)
        spec = TransitionSpec(callable_types=("T",), write_types=("T",), batch=True)
        with pytest.raises(UsageError, match=f"'T', field '{field}'"):
            apply_transition(sim, fn, spec)
        assert sim._staged is None

    @pytest.mark.parametrize("immortal", [True, False])
    def test_failed_add_agent_leaves_the_population_unchanged(self, immortal):
        schema = Schema()
        schema.register_agent_type(
            AgentTypeDecl("A", (("x", "float64"), ("i", "int64")), immortal=immortal)
        )
        sim = Simulation(schema)
        sim.add_agent("A", 1.5, 7)
        with pytest.raises(UsageError, match="'A', field 'i'"):
            sim.add_agent("A", 2.5, None)
        assert sim.n_alive("A") == 1
        assert split_id(sim.add_agent("A", 3.5, 8))[2] == 1
        assert sim.field_array("A", "i").tolist() == [7, 8]
        assert sim.field_array("A", "x").tolist() == [1.5, 3.5]


class TestEndpointsCheckedBeforeIndex:
    """A target far past every slot raises before the merge sizes the
    per-slot index for it."""

    DECL = EdgeTypeDecl("E", hints=Hint.STATELESS | Hint.IGNORE_FROM)  # COUNT_ONLY
    FAR = 1 << 24

    def peak_mb(self, action):
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(ContractViolation, match="nonexistent"):
                action()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_at_commit(self):
        assert storage_plan_for(self.DECL.hints) is EdgePlan.COUNT_ONLY
        sim = build_sim(self.DECL, n_agents=3)
        sim.add_edge("E", self.FAR, 0)
        assert self.peak_mb(sim.commit_initial) < 16

    @pytest.mark.parametrize("workers", [1, 2])
    def test_in_a_transition(self, workers):
        sim = build_sim(self.DECL, n_agents=3)
        spec = TransitionSpec(callable_types=("A",), write_types=("E",))

        def emit(view, params, g):
            view.add_edge("E", self.FAR)

        assert self.peak_mb(lambda: apply_transition(sim, emit, spec, workers=workers)) < 16
        assert sim._staged is None
