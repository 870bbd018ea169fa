from __future__ import annotations

import enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    storage,
    storage_plan_for,
)
from graphabm.ids import TAG_SHIFT, agent_id
from graphabm.storage import AgentSegment, ListShard, build_read_container

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
        starts, ends = c.bounds(5, np.array([0, 1]))  # a type without edges
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
        tag_b = int(b[0]) >> TAG_SHIFT
        starts, ends = c.bounds(tag_b, np.array([1, 0]))
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
        s0 = ListShard(info, record_producers=True)
        s1 = ListShard(info, record_producers=True)
        s0.add(7, 100, None, 0)
        s0.add(7, 102, None, 2)
        s1.add(7, 101, None, 1)
        s1.add(7, 103, None, 3)
        merged = build_read_container(info, [s0, s1])
        assert merged.sources_for(7).tolist() == [100, 101, 102, 103]

    def test_same_producer_insertion_order_preserved(self):
        info = self._schema_info()
        s0 = ListShard(info, record_producers=True)
        s0.add(7, 100, None, 5)
        s0.add(7, 101, None, 5)
        s1 = ListShard(info, record_producers=True)
        s1.add(7, 102, None, 9)
        merged = build_read_container(info, [s0, s1])
        assert merged.sources_for(7).tolist() == [100, 101, 102]

    def test_count_merge_is_order_free(self):
        info = self._schema_info(Hint.STATELESS | Hint.IGNORE_FROM)
        s0 = ListShard(info)
        s1 = ListShard(info)
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


# ---------------------------------------------------------------------------
# The buffer form: every container rebuilt from its primary columns
# ---------------------------------------------------------------------------


def _plain(value):
    """``value`` with numpy arrays and tuples as lists, for comparison."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.tolist())
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def _answer(query, *args):
    try:
        return _plain(query(*args))
    except HintViolation as exc:
        return str(exc)


def edge_answers(c, aids, tags, slots):
    """Every query of a read container, or the refusal it raises."""
    out = [c.n_stored(), c.plan]
    for name in ("has_for", "count_for", "sources_for", "states_for", "records_for"):
        out += [_answer(getattr(c, name), aid) for aid in aids]
    for name in ("has_for_slots", "count_for_slots", "records_for_slots"):
        out += [_answer(getattr(c, name), tag, slots) for tag in tags]
    return out


class TestBufferRoundTrip:
    """``from_buffers(info, c.buffers())`` answers every query as ``c`` does
    and leaves the state checksum unchanged."""

    @pytest.mark.parametrize("hints", [h for h in all_hint_sets() if is_legal(h)],
                             ids=lambda h: str(h))
    def test_edge_container(self, hints):
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("A", (("v", "float64"),), immortal=True))
        schema.register_agent_type(AgentTypeDecl("B", (), immortal=True))
        kw = {"single_type_target": "A"} if Hint.SINGLE_TYPE in hints else {}
        schema.register_edge_type(
            EdgeTypeDecl("E", (("w", "float64"), ("k", "int64")), hints=hints, **kw)
        )
        sim = Simulation(schema, checks="off")
        a = sim.add_agents("A", 9, {"v": np.arange(9.0)})
        b = sim.add_agents("B", 4)
        ids = np.concatenate([a, b])
        rng = np.random.default_rng(int(hints.value) + 5)
        pick = rng.integers(0, ids.size, (30, 2))  # repeats included
        sim.add_edges("E", ids[pick[:, 0]], ids[pick[:, 1]],
                      [(float(rng.random()), int(k)) for k in range(30)])
        sim.commit_initial()
        c = sim.edge_container("E")
        rebuilt = type(c).from_buffers(c.info, c.buffers())

        aids = ids.tolist() + [int(a[-1]) + 1, int(b[-1]) + 7]
        tags = [int(a[0]) >> TAG_SHIFT, int(b[0]) >> TAG_SHIFT, 99]
        slots = np.arange(12)
        assert edge_answers(rebuilt, aids, tags, slots) == edge_answers(c, aids, tags, slots)
        before = sim.state_checksum()
        sim._edges[c.info.tag] = rebuilt
        assert sim.state_checksum() == before

    @pytest.mark.parametrize("type_name", ["Mortal", "Immortal", "Stateless", "Ghost"])
    def test_agent_segment(self, type_name):
        schema = Schema()
        fields = (("x", "float64"), ("k", "int64"))
        schema.register_agent_type(AgentTypeDecl("Mortal", fields))
        schema.register_agent_type(AgentTypeDecl("Immortal", fields, immortal=True))
        schema.register_agent_type(AgentTypeDecl("Stateless", ()))
        schema.register_agent_type(AgentTypeDecl("Ghost", (), immortal=True))
        sim = Simulation(schema)
        for name in ("Mortal", "Immortal"):
            sim.add_agents(name, 7, {"x": np.arange(7) / 2, "k": np.arange(7) * 3})
        sim.add_agents("Stateless", 7)
        sim.add_agents("Ghost", 7)

        def cull(view, params, g):  # frees slots 1, 4 and 5 of the mortal types
            return None if split_id(view.agent_id)[2] in (1, 4, 5) else view.state

        apply_transition(sim, cull, TransitionSpec(("Mortal", "Stateless"),
                                                   write_types=("Mortal", "Stateless")))
        finalize_step(sim)

        info = schema.agent_type(type_name)
        seg = sim._segments[info.tag]
        rebuilt = AgentSegment.from_buffers(info, seg.buffers())
        if not info.immortal:
            assert seg.free == [1, 4, 5]

        def answers(s):
            return [s.count, s.n_alive, s.alive_slots().tolist(), list(s.free),
                    [s.is_alive(i) for i in range(-1, 10)],
                    [s.state_tuple(i) for i in s.alive_slots().tolist()]]

        assert answers(rebuilt) == answers(seg)
        for mine, theirs in zip(rebuilt.buffers().values(), seg.buffers().values()):
            assert not np.shares_memory(mine, theirs)
        before = sim.state_checksum()
        sim._segments[info.tag] = rebuilt
        assert sim.state_checksum() == before
        assert rebuilt.allocate() == seg.allocate()


# ---------------------------------------------------------------------------
# Bulk adds: one owned chunk per call, range-checked endpoints
# ---------------------------------------------------------------------------


def two_type_sim(decl: EdgeTypeDecl, checks="on") -> Simulation:
    """Eight agents of type A (tag 0) and three of type B (tag 1)."""
    schema = Schema()
    schema.register_agent_type(AgentTypeDecl("A", (("v", "float64"),), immortal=True))
    schema.register_agent_type(AgentTypeDecl("B", (), immortal=True))
    schema.register_edge_type(decl)
    sim = Simulation(schema, checks=checks)
    sim.add_agents("A", 8, {"v": np.arange(8.0)})
    sim.add_agents("B", 3)
    return sim


def argsort_dtypes(monkeypatch):
    """Record the dtype of every non-empty array ``np.argsort`` sorts from
    here on."""
    seen = []
    argsort = np.argsort

    def spy(a, *args, **kwargs):
        if np.size(a):
            seen.append(np.asarray(a).dtype)
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    return seen


class TestStableOrder:
    """``storage._stable_order`` is ``np.argsort(kind="stable")``: ids
    spanning fewer than 2**16 values are sorted as 16-bit offsets by numpy's
    radix sort, wider spans as they are, and the permutation is the same."""

    @pytest.mark.parametrize("span, radix", [
        (0, True), (1, True), ((1 << 16) - 1, True), (1 << 16, False),
    ])
    def test_span(self, span, radix, monkeypatch):
        rng = np.random.default_rng(span)
        # the smallest id's low 16 bits are not zero, so the offsets wrap
        base = np.uint64(agent_id(2, 1, 70_000))
        ids = base + rng.integers(0, span + 1, 3000).astype(np.uint64)
        ids[rng.permutation(3000)[:2]] = [base, base + np.uint64(span)]
        expected = np.argsort(ids, kind="stable")
        dtypes = argsort_dtypes(monkeypatch)
        assert storage._stable_order(ids).tolist() == expected.tolist()
        assert dtypes == [np.dtype(np.uint16) if radix else ids.dtype]

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny(self, n):
        ids = np.arange(n, dtype=np.uint64) + np.uint64(7)
        assert storage._stable_order(ids).tolist() == list(range(n))

    def test_two_agent_types_fall_back(self, monkeypatch):
        rng = np.random.default_rng(1)
        ids = np.array([agent_id(int(t), 0, int(s)) for t, s in
                        zip(rng.integers(0, 2, 200), rng.integers(0, 5, 200))], dtype=np.uint64)
        expected = np.argsort(ids, kind="stable")
        dtypes = argsort_dtypes(monkeypatch)
        assert storage._stable_order(ids).tolist() == expected.tolist()
        assert dtypes == [np.dtype(np.uint64)]

    @pytest.mark.parametrize("decl", [
        EdgeTypeDecl("E", (("w", "float64"),)),
        EdgeTypeDecl("E", (("w", "float64"),), hints=Hint.SINGLE_EDGE),
        EdgeTypeDecl("E", hints=Hint.STATELESS | Hint.IGNORE_FROM | Hint.SINGLE_EDGE),
    ], ids=["full_edge_list", "single_full_edge", "existence_bit"])
    @pytest.mark.parametrize("two_types", [False, True], ids=["one_type", "two_types"])
    def test_merge_equals_the_argsort_merge(self, decl, two_types, monkeypatch):
        """A two-worker round-robin merge, whose producers arrive unsorted,
        onto retained edges: the same edges, SINGLE_EDGE reports and
        checksum as a merge whose every stable sort is ``np.argsort``;
        targets of two agent types take the fallback."""
        state = (1.5,) if decl.state_layout else ()

        def run_once():
            sim = two_type_sim(decl, checks="warn")
            b = [agent_id(1, 0, slot) for slot in range(3)]
            sim.add_edge("E", 3, 7, state)
            if two_types:
                sim.add_edge("E", b[1], 6, state)
            sim.commit_initial()

            def emit(view, params, g):
                a = view.agent_id
                targets = [(5 * a + 3) % 8, (3 * a) % 8] + ([b[a % 3]] if two_types else [])
                for t in targets:
                    view.add_edge("E", t, tuple(float(a) + x for x in state))

            spec = TransitionSpec(callable_types=("A",), write_types=("E",),
                                  keep_existing=("E",))
            apply_transition(sim, emit, spec, workers=2,
                             partition=partition_graph(sim, 2, "round_robin"))
            finalize_step(sim)
            reports = [(v.kind, v.target, v.producer, v.message) for v in sim.check_reports]
            return reports, sim.state_checksum()

        with monkeypatch.context() as mp:
            dtypes = argsort_dtypes(mp)
            got = run_once()
        assert np.dtype(np.uint16) in dtypes
        assert (np.dtype(np.uint64) in dtypes) == two_types
        monkeypatch.setattr(storage, "_stable_order",
                            lambda ids: np.argsort(ids, kind="stable"))
        assert got == run_once()
        if Hint.SINGLE_EDGE in decl.hints:
            assert got[0]  # reports were compared, not both empty


MIXED_ADDS_DECLS = [
    EdgeTypeDecl("E", (("w", "float64"),)),  # FULL_EDGE_LIST
    EdgeTypeDecl("E", hints=Hint.STATELESS | Hint.IGNORE_FROM),  # COUNT_ONLY, targets only
    EdgeTypeDecl("E", hints=Hint.STATELESS | Hint.SINGLE_TYPE, single_type_target="A"),
]


class TestMixedPerEdgeAndBulkAdds:
    """Per-edge adds go to a tail that a bulk add moves into a chunk in
    place, so an adder bound before the bulk add keeps writing into the
    shard."""

    EDGES = [(0, 1, (1.0,)), (0, 2, (2.0,)), (0, 3, (3.0,)), (0, 4, (4.0,))]

    def one_at_a_time(self, decl):
        sim = build_sim(decl)
        for t, s, st in self.EDGES:
            sim.add_edge("E", t, s, st)
        sim.commit_initial()
        return sim

    def bulk_middle(self, sim):
        (t2, s2, st2), (t3, s3, st3) = self.EDGES[1:3]
        sim.add_edges("E", np.array([t2, t3], dtype=np.uint64),
                      np.array([s2, s3], dtype=np.uint64), [st2, st3])

    @pytest.mark.parametrize("decl", MIXED_ADDS_DECLS, ids=lambda d: str(d.hints))
    def test_add_edge_then_add_edges_then_add_edge(self, decl):
        sim = build_sim(decl)
        sim.add_edge("E", *self.EDGES[0])
        self.bulk_middle(sim)
        sim.add_edge("E", *self.EDGES[3])
        sim.commit_initial()
        self.assert_like_one_at_a_time(sim, decl)

    @pytest.mark.parametrize("decl", MIXED_ADDS_DECLS, ids=lambda d: str(d.hints))
    def test_adder_captured_before_add_edges(self, decl):
        sim = build_sim(decl)
        add = sim.edge_adder("E")
        info = sim.schema.edge_type("E")
        (t1, s1, st1), (t4, s4, st4) = self.EDGES[0], self.EDGES[3]
        add(t1, s1, info.stored_state(st1))
        self.bulk_middle(sim)
        add(t4, s4, info.stored_state(st4))
        sim.commit_initial()
        self.assert_like_one_at_a_time(sim, decl)

    def assert_like_one_at_a_time(self, sim, decl):
        c = sim.edge_container("E")
        assert c.n_stored() == 4
        if c.sources is not None:
            assert c.sources_for(0).tolist() == [1, 2, 3, 4]
        if c.states is not None:
            assert c.states_for(0) == [(1.0,), (2.0,), (3.0,), (4.0,)]
        assert sim.state_checksum() == self.one_at_a_time(decl).state_checksum()

    def test_caller_arrays_changed_after_add_edges(self):
        sim = build_sim(EdgeTypeDecl("E", (("w", "float64"),)))
        targets = np.array([1, 0, 1], dtype=np.uint64)
        sources = np.array([2, 3, 4], dtype=np.uint64)
        sim.add_edges("E", targets, sources, [(1.0,), (2.0,), (3.0,)])
        targets[:] = 7
        sources[:] = 6
        sim.commit_initial()
        c = sim.edge_container("E")
        assert c.sources_for(0).tolist() == [3]
        assert c.sources_for(1).tolist() == [2, 4]
        assert c.count_for(7) == 0

    def test_batch_arrays_changed_after_add_edges(self):
        sim = build_sim(EdgeTypeDecl("E", (("w", "float64"),)))
        sim.commit_initial()

        def emit(batch, params, g):
            n = batch.slots.size
            targets = batch.ids.copy()
            weights = np.arange(n, dtype=np.float64)
            batch.add_edges("E", targets, agents=np.arange(n), states=[weights])
            targets[:] = 0
            weights[:] = -1.0

        spec = TransitionSpec(callable_types=("A",), write_types=("E",), batch=True)
        apply_transition(sim, emit, spec)
        finalize_step(sim)
        c = sim.edge_container("E")
        assert [c.states_for(t) for t in range(8)] == [[(float(t),)] for t in range(8)]

    def test_shard_with_chunks_and_tail_round_trips_through_pickle(self):
        import pickle

        info = build_sim(EdgeTypeDecl("E", (("w", "float64"),))).schema.edge_type("E")

        def filled():
            shard = ListShard(info, record_producers=True)
            shard.add(3, 1, (1.0,), 1)
            shard.extend(np.array([2, 3], dtype=np.uint64), np.array([2, 2], dtype=np.uint64),
                         (np.array([2.0, 2.5]),), 2)
            shard.add(1, 5, (5.0,), 5)
            shard.add(2, 4, (4.0,), 4)
            return shard

        shard = filled()
        assert len(shard.chunks) == 2 and len(shard.targets) == 2
        copy = pickle.loads(pickle.dumps(shard))
        copy.add(0, 6, (6.0,), 6)  # the copy's adder writes into the copy's tail
        reference = filled()
        reference.add(0, 6, (6.0,), 6)
        merged = build_read_container(info, [copy])
        expected = build_read_container(info, [reference])
        assert {k: _plain(v) for k, v in merged.buffers().items()} == {
            k: _plain(v) for k, v in expected.buffers().items()}
        assert merged.sources.tolist() == [6, 5, 2, 4, 1, 2]  # by target, then producer


class TestRangeCheckFallbacks:
    """A chunk that fails the range test is checked id by id, with the
    verdicts of a check of every id."""

    DECL = EdgeTypeDecl("E", hints=Hint.STATELESS)
    A9, A12 = 9, 12  # slots past A's eight agents
    B0 = 1 << 56  # type B, slot 0

    @pytest.mark.parametrize("column", ["targets", "sources"])
    @pytest.mark.parametrize("ids, bad", [
        ([0, 1, A12, 3, 2, A9, 4], A12),  # a slot >= count of the same type
        ([0, 1, B0 + 5, 3, 2, B0], B0 + 5),  # a slot of another agent type
        ([B0 + 1, A9, B0], A9),  # the largest id exists, the smallest does not
    ])
    def test_bulk_endpoint_raises_naming_the_first_bad_id(self, column, ids, bad):
        sim = two_type_sim(self.DECL)
        ids = np.array(ids, dtype=np.uint64)
        good = np.zeros(ids.size, dtype=np.uint64)
        targets, sources = (ids, good) if column == "targets" else (good, ids)
        sim.add_edges("E", targets, sources)
        with pytest.raises(ContractViolation, match=f"nonexistent agent {bad:#x}$"):
            sim.commit_initial()

    def test_targets_are_named_before_sources(self):
        sim = two_type_sim(self.DECL)
        sim.add_edges("E", np.array([0, 1], dtype=np.uint64),
                      np.array([self.A9, 0], dtype=np.uint64))
        sim.add_edges("E", np.array([self.A12], dtype=np.uint64),
                      np.array([0], dtype=np.uint64))
        with pytest.raises(ContractViolation, match=f"agent {self.A12:#x}$"):
            sim.commit_initial()

    @pytest.mark.parametrize("target_type, targets, wrong", [
        ("A", [0, B0 + 2, 1, 2, B0, 3, B0 + 1, 7], [B0 + 2, B0, B0 + 1]),
        ("B", [B0, 3, B0 + 1, 1, B0 + 2], [3, 1]),  # the largest has the tag
        ("A", [0, 1, 7, B0, B0 + 1, B0 + 2], [B0, B0 + 1, B0 + 2]),  # sorted: indexed
        ("B", [1, 3, B0, B0 + 1, B0 + 2], [1, 3]),
    ])
    def test_single_type_reports_in_index_order(self, target_type, targets, wrong):
        decl = EdgeTypeDecl("E", hints=Hint.STATELESS | Hint.SINGLE_TYPE,
                            single_type_target=target_type)
        bulk = two_type_sim(decl, checks="warn")
        bulk.add_edges("E", np.array(targets, dtype=np.uint64),
                       np.zeros(len(targets), dtype=np.uint64))
        single = two_type_sim(decl, checks="warn")
        for t in targets:
            single.add_edge("E", t, 0)
        for sim in (bulk, single):
            sim.commit_initial()
        reports = [(v.kind, v.target, v.producer, v.message) for v in bulk.check_reports]
        assert reports == [(v.kind, v.target, v.producer, v.message)
                           for v in single.check_reports]
        assert [r[1] for r in reports] == wrong
        assert {r[0] for r in reports} == {"single_type"}


class TestBulkAddAllocations:
    """A sorted bulk add holds one copy of the sources and the targets'
    index, and the commit adds nothing per edge: counted in bytes with
    ``tracemalloc``, which sees numpy's buffers, so the verdict needs no
    timing."""

    def test_ring_lattice_bytes_per_edge(self):
        import tracemalloc

        from graphabm.models.topology import Regular

        decl = EdgeTypeDecl("E", hints=Hint.STATELESS | Hint.SINGLE_TYPE,
                            single_type_target="A")
        sim = build_sim(decl, n_agents=10_000)
        targets, sources = Regular(100).build(10_000)
        n = targets.size
        assert n == 1_010_000
        tracemalloc.start()
        try:
            sim.add_edges("E", targets, sources)
            held = tracemalloc.get_traced_memory()[0] / (8 * n)
            sim.commit_initial()
            peak = tracemalloc.get_traced_memory()[1] / (8 * n)
        finally:
            tracemalloc.stop()
        assert held <= 1.05, held
        assert peak <= 1.15, peak
        assert sim.edge_container("E").n_stored() == n


# Targets of two agent types, of which A0, A4, A7 and B0 never get an edge:
# slots without edges at the start, in the middle and at the end.
B0 = agent_id(1, 0, 0)
ORACLE_TARGETS = [1, 2, 3, 5, 6, B0 + 1, B0 + 2]
ORACLE_SOURCES = list(range(8)) + [B0, B0 + 1, B0 + 2]
ORACLE_DECLS = [
    EdgeTypeDecl("E", hints=Hint.STATELESS | Hint.IGNORE_FROM),
    EdgeTypeDecl("E", hints=Hint.STATELESS),
    EdgeTypeDecl("E", (("w", "float64"), ("k", "int64"))),
    EdgeTypeDecl("E", (("w", "float64"), ("k", "int64")), hints=Hint.SINGLE_EDGE),
]
oracle_edge = st.tuples(
    st.sampled_from(ORACLE_TARGETS), st.sampled_from(ORACLE_SOURCES),
    st.floats(allow_nan=False), st.integers(-(1 << 62), 1 << 62),
)


class TestFiveBuilds:
    """One edge list built five ways gives one container: a sorted bulk
    add (kept as its index), the unsorted bulk add, bulk adds mixed with
    ``add_edge``, a two-worker step merge and ``from_buffers`` of the
    first. Agent ``a`` of type A produces ``edges[a]``; the edge list is
    those in producer order, which every build keeps per target."""

    @pytest.mark.parametrize("decl", ORACLE_DECLS, ids=lambda d: storage_plan_for(d.hints).value)
    @settings(max_examples=25, deadline=None)
    @given(edges=st.lists(st.lists(oracle_edge, max_size=4), min_size=8, max_size=8))
    def test_five_builds_agree(self, decl, edges):
        stateful = bool(decl.state_layout)
        flat = [e for agent_edges in edges for e in agent_edges]

        def bulk(sim, part):
            targets = np.array([e[0] for e in part], dtype=np.uint64)
            sources = np.array([e[1] for e in part], dtype=np.uint64)
            states = [e[2:] for e in part] if stateful else None
            sim.add_edges("E", targets, sources, states)

        def committed(build):
            sim = two_type_sim(decl, checks="warn")
            build(sim)
            sim.commit_initial()
            return sim

        def sorted_add(sim):
            order = sorted(range(len(flat)), key=lambda i: flat[i][0])
            bulk(sim, [flat[i] for i in order])
            assert all(c.index is not None for c in sim._init_shards[0].chunks)

        def mixed(sim):
            for at in range(0, len(flat), 3):
                part = flat[at: at + 3]
                if at % 2:
                    for t, s, w, k in part:
                        sim.add_edge("E", t, s, (w, k) if stateful else ())
                else:
                    bulk(sim, part)

        def emit(view, params, g):
            for t, s, w, k in edges[view.agent_id]:
                view.add_edge("E", t, (w, k) if stateful else (), source=s)

        step = committed(lambda sim: None)
        spec = TransitionSpec(callable_types=("A",), write_types=("E",))
        apply_transition(step, emit, spec, workers=2,
                         partition=partition_graph(step, 2, "round_robin"))
        finalize_step(step)
        first = committed(sorted_add)
        rebuilt = committed(sorted_add)
        c = rebuilt.edge_container("E")
        rebuilt._edges[0] = type(c).from_buffers(c.info, c.buffers())
        sims = [first, committed(lambda sim: bulk(sim, flat)), committed(mixed), step, rebuilt]

        def seen(sim):
            c = sim.edge_container("E")
            slots = np.arange(12)
            per_tag = []
            for tag in (0, B0 >> TAG_SHIFT):
                pos, indptr = c.runs(tag, slots)
                per_tag.append((_plain(c.bounds(tag, slots)),
                                 np.arange(c.n_stored())[pos].tolist(), indptr.tolist()))
            buffers = {k: _plain(v) for k, v in c.buffers().items()}
            return buffers, c.n_stored(), per_tag, sim.state_checksum()

        expected = seen(first)
        assert expected[1] == (len({e[0] for e in flat}) if Hint.SINGLE_EDGE in decl.hints
                               else len(flat))
        for sim in sims[1:]:
            assert seen(sim) == expected


class TestIndexedChunks:
    """A sorted bulk add into a shard that records no producers keeps the
    targets' index, not the targets."""

    DECL = EdgeTypeDecl("E", (("w", "float64"),))

    def test_caller_arrays_overwritten_before_commit(self):
        targets = np.array([0, 0, 1, 3, 3, 3], dtype=np.uint64)
        sources = np.array([5, 6, 7, 1, 2, 0], dtype=np.uint64)
        states = [(float(i),) for i in range(6)]
        reference = build_sim(self.DECL)
        reference.add_edges("E", targets.copy(), sources.copy(), states)
        reference.commit_initial()
        sim = build_sim(self.DECL)
        sim.add_edges("E", targets, sources, states)
        (chunk,) = sim._init_shards[0].chunks
        assert chunk.targets is None and chunk.index is not None
        targets[:] = 7
        sources[:] = 4
        sim.commit_initial()
        c = sim.edge_container("E")
        assert c.buffers()["targets"].tolist() == [0, 0, 1, 3, 3, 3]
        assert c.sources_for(3).tolist() == [1, 2, 0]
        assert sim.state_checksum() == reference.state_checksum()

    def test_one_slot_past_the_segment_is_named_as_unsorted(self):
        """A's eight agents end at slot 7; the sorted add's last target is
        slot 8. The message is the one the copied, unsorted add raises."""
        messages = []
        for ids in ([0, 2, 2, 7, 8], [8, 2, 0, 7, 2]):
            sim = two_type_sim(EdgeTypeDecl("E", hints=Hint.STATELESS))
            sim.add_edges("E", np.array(ids, dtype=np.uint64), np.zeros(5, dtype=np.uint64))
            (chunk,) = sim._init_shards[0].chunks
            assert (chunk.index is not None) == (ids == sorted(ids))
            with pytest.raises(ContractViolation) as err:
                sim.commit_initial()
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].endswith("nonexistent agent 0x8")

    def test_sorted_add_over_two_types_passes(self):
        sim = two_type_sim(EdgeTypeDecl("E", hints=Hint.STATELESS))
        ids = [1, 1, 7, B0, B0 + 2, B0 + 2]
        sim.add_edges("E", np.array(ids, dtype=np.uint64), np.arange(6, dtype=np.uint64))
        (chunk,) = sim._init_shards[0].chunks
        assert list(chunk.index) == [0, B0 >> TAG_SHIFT]
        sim.commit_initial()
        c = sim.edge_container("E")
        assert [c.count_for(t) for t in (0, 1, 7, B0, B0 + 1, B0 + 2)] == [0, 2, 1, 1, 0, 2]
        assert c.buffers()["targets"].tolist() == ids

    def test_far_target_is_copied_not_indexed(self):
        sim = build_sim(EdgeTypeDecl("E", hints=Hint.STATELESS))
        far = 1 << 30
        sim.add_edges("E", np.array([0, far], dtype=np.uint64), np.zeros(2, dtype=np.uint64))
        (chunk,) = sim._init_shards[0].chunks
        assert chunk.index is None and chunk.targets.tolist() == [0, far]
        with pytest.raises(ContractViolation, match=f"nonexistent agent {far:#x}$"):
            sim.commit_initial()

    def test_non_zero_source_type_gathers_as_by_id(self):
        """Every source is of type B (tag 1), so gathers read B's column
        through masked slots; batch and per-agent reads equal the
        by-id ``_gather`` bit for bit."""
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("A", (("v", "float64"),), immortal=True))
        schema.register_agent_type(AgentTypeDecl("B", (("v", "float64"),), immortal=True))
        schema.register_edge_type(EdgeTypeDecl("E", hints=Hint.STATELESS))
        sim = Simulation(schema)
        rng = np.random.default_rng(3)
        sim.add_agents("A", 6, {"v": rng.random(6)})
        b = sim.add_agents("B", 5, {"v": rng.random(5)})
        targets = np.array([0, 0, 2, 2, 2, 5], dtype=np.uint64)
        sim.add_edges("E", targets, b[[4, 0, 3, 1, 4, 2]])
        sim.commit_initial()
        assert sim.edge_container("E").single_source_tag == b[0] >> TAG_SHIFT
        got = []

        def batch_fn(batch, params, g):
            values, indptr = batch.neighbor_field("E", "v")
            sources, _, same = batch.edges("E")
            got.append((values.tobytes(), batch._gather(sources, "v").tobytes()))
            assert values.dtype == np.float64 and indptr.tolist() == same.tolist()

        def agent_fn(view, params, g):
            values = view.neighbor_field("E", "v")
            got.append((values.tobytes(), view._gather(view.sources("E"), "v").tobytes()))

        for fn, batch in ((batch_fn, True), (agent_fn, False)):
            spec = TransitionSpec(callable_types=("A",), read_types=("E", "A", "B"),
                                  write_types=(), batch=batch)
            apply_transition(sim, fn, spec)
            finalize_step(sim)
        assert len(got) == 7 and all(a == b for a, b in got)
        assert got[0][0] == sim.field_array("B", "v")[[4, 0, 3, 1, 4, 2]].tobytes()
