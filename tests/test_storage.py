from __future__ import annotations

import enum
import itertools

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
    local_index,
    partition_graph,
    storage,
    storage_plan_for,
    type_tag,
)
from graphabm.checks import merge_sink
from graphabm.ids import TAG_SHIFT, agent_id, slot_ids
from graphabm.storage import AgentSegment, ListShard, build_read_container, run_positions

from edge_reads import edge_read, slots_read
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
        records = edge_read(sim.edge_container("E"), "records", t)
        assert [r.source for r in records] == [a, b, c]
        assert [r.state for r in records] == [(1.0,), (2.0,), (3.0,)]

    def test_empty_target(self):
        sim = build_sim(EdgeTypeDecl("E"))
        sim.commit_initial()
        c = sim.edge_container("E")
        assert edge_read(c, "records", 5) == []
        assert edge_read(c, "count", 5) == 0
        assert not edge_read(c, "has", 5)

    def test_duplicate_edges_kept(self):
        sim = build_sim(EdgeTypeDecl("E"))
        sim.add_edge("E", 0, 1)
        sim.add_edge("E", 0, 1)
        sim.commit_initial()
        assert edge_read(sim.edge_container("E"), "count", 0) == 2

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
            ra = edge_read(sim_a.edge_container("E"), "records", t)
            rb = edge_read(sim_b.edge_container("E"), "records", t)
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
        assert not edge_read(c, "has", aid)
        assert edge_read(c, "count", aid) == 0
        assert edge_read(c, "sources", aid).tolist() == []
        assert edge_read(c, "states", aid) == []
        assert edge_read(c, "records", aid) == []

    def test_target_without_edges_between_targets_with_edges(self):
        c = self._container()
        for aid in (1, 2):
            self.assert_no_edges(c, aid)
        assert edge_read(c, "sources", 3).tolist() == [2, 4]
        assert edge_read(c, "states", 3) == [(2.0,), (3.0,)]

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
        assert edge_read(c, "sources", int(a[0])).tolist() == [int(a[2])]
        assert edge_read(c, "sources", int(a[2])).tolist() == [int(b[0])]
        assert edge_read(c, "sources", int(b[1])).tolist() == [int(a[0]), int(a[1])]
        for aid in (a[1], b[0]):
            assert not edge_read(c, "has", int(aid))
            assert edge_read(c, "count", int(aid)) == 0
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
        assert edge_read(c, "count", 0) == 4
        assert edge_read(c, "has", 0)
        with pytest.raises(HintViolation):
            edge_read(c, "records", 0)
        with pytest.raises(HintViolation):
            edge_read(c, "sources", 0)

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
        assert edge_read(c, "has", 0)
        assert not edge_read(c, "has", 1)
        with pytest.raises(HintViolation):
            edge_read(c, "count", 0)
        with pytest.raises(HintViolation):
            edge_read(c, "records", 0)

    def test_single_edge_forbids_count(self):
        sim = build_sim(EdgeTypeDecl("E", hints=Hint.SINGLE_EDGE))
        sim.add_edge("E", 0, 1)
        sim.commit_initial()
        c = sim.edge_container("E")
        with pytest.raises(HintViolation):
            edge_read(c, "count", 0)
        assert edge_read(c, "has", 0)
        assert [r.source for r in edge_read(c, "records", 0)] == [1]

    def test_ignore_from_drops_sources(self):
        sim = build_sim(EdgeTypeDecl("E", (("w", "float64"),), hints=Hint.IGNORE_FROM))
        sim.add_edge("E", 0, 1, (2.0,))
        sim.commit_initial()
        c = sim.edge_container("E")
        with pytest.raises(HintViolation):
            edge_read(c, "sources", 0)
        assert edge_read(c, "records", 0) == [storage.EdgeRecord(None, (2.0,), "E")]

    def test_stateless_drops_states(self):
        sim = build_sim(EdgeTypeDecl("E", hints=Hint.STATELESS))
        sim.add_edge("E", 0, 1)
        sim.commit_initial()
        c = sim.edge_container("E")
        with pytest.raises(HintViolation):
            edge_read(c, "states", 0)
        assert edge_read(c, "records", 0)[0].state is None
        assert edge_read(c, "records", 0)[0].source == 1


def reference_queries(full, hints: Hint, plan: EdgePlan, targets):
    """What a hinted container must agree on with a FullEdgeList reference."""
    out = {}
    for t in targets:
        row = {"has": edge_read(full, "has", t)}
        if plan not in (EdgePlan.EXISTENCE_BIT, EdgePlan.SINGLE_FULL_EDGE):
            row["count"] = edge_read(full, "count", t)
        if Hint.IGNORE_FROM not in hints and plan is not EdgePlan.COUNT_ONLY and plan is not EdgePlan.EXISTENCE_BIT:
            row["sources"] = edge_read(full, "sources", t).tolist()
        if (
            Hint.STATELESS not in hints
            and plan not in (EdgePlan.COUNT_ONLY, EdgePlan.EXISTENCE_BIT)
        ):
            row["states"] = edge_read(full, "states", t)
        out[t] = row
    return out


def hinted_queries(container, hints: Hint, plan: EdgePlan, targets):
    out = {}
    for t in targets:
        row = {"has": edge_read(container, "has", t)}
        if plan not in (EdgePlan.EXISTENCE_BIT, EdgePlan.SINGLE_FULL_EDGE):
            row["count"] = edge_read(container, "count", t)
        if Hint.IGNORE_FROM not in hints and plan is not EdgePlan.COUNT_ONLY and plan is not EdgePlan.EXISTENCE_BIT:
            row["sources"] = edge_read(container, "sources", t).tolist()
        if (
            Hint.STATELESS not in hints
            and plan not in (EdgePlan.COUNT_ONLY, EdgePlan.EXISTENCE_BIT)
        ):
            row["states"] = edge_read(container, "states", t)
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
            kept = [(edge_read(c, "sources", t).tolist(), edge_read(c, "states", t))
                    for t in range(8)]
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
            assert [edge_read(c, "has", t) for t in range(6)] == [True] * 4 + [False] * 2
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
        assert edge_read(c, "records", 0)[0].source == 2
        assert edge_read(c, "records", 3)[0].state == (5.0,)
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
        merged = build_read_container(info, [s0.seal(), s1.seal()])
        assert edge_read(merged, "sources", 7).tolist() == [100, 101, 102, 103]

    def test_same_producer_insertion_order_preserved(self):
        info = self._schema_info()
        s0 = ListShard(info, record_producers=True)
        s0.add(7, 100, None, 5)
        s0.add(7, 101, None, 5)
        s1 = ListShard(info, record_producers=True)
        s1.add(7, 102, None, 9)
        merged = build_read_container(info, [s0.seal(), s1.seal()])
        assert edge_read(merged, "sources", 7).tolist() == [100, 101, 102]

    def test_count_merge_is_order_free(self):
        info = self._schema_info(Hint.STATELESS | Hint.IGNORE_FROM)
        s0 = ListShard(info)
        s1 = ListShard(info)
        s0.add(3)
        s1.add(3)
        s1.add(3)
        merged = build_read_container(info, [s0.seal(), s1.seal()])
        assert edge_read(merged, "count", 3) == 3


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
                (state,) = edge_read(sim.edge_container("E"), "states", 0)
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
        assert edge_read(c, "sources", 0).tolist() == [1]
        assert edge_read(c, "states", 0) == [(5,)]


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
        assert local_index(sim.add_agent("A", 3.5, 8)) == 1
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
    for kind in ("has", "count", "sources", "states", "records"):
        out += [_answer(edge_read, c, kind, aid) for aid in aids]
    for kind in ("has", "count", "records"):
        out += [_answer(slots_read, c, kind, tag, slots) for tag in tags]
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
        assert all(mine is theirs for mine, theirs in
                   zip(rebuilt.buffers().values(), c.buffers().values()))

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
            return None if local_index(view.agent_id) in (1, 4, 5) else view.state

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
        assert rebuilt.place(1).tolist() == seg.place(1).tolist()


class TestSweepOracle:
    """The dead-edge sweep gives the buffers of a container built from the
    surviving edges, as a plain Python filter of the stored edges finds
    them, and one checksum at one and two workers."""

    KILLED_A = (0, 4, 8)  # A's first, a middle and its last slot
    KILLED_B = 1  # a source of edges whose targets live, and B's only target

    def build(self, hints):
        """Nine A and four B agents and 44 edges of type E: 40 random ones
        to A, one to A0, one to A8, one from B1 and one to B1, B's only
        edge; returns the simulation and the edges."""
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("A", (("v", "float64"),)))
        schema.register_agent_type(AgentTypeDecl("B", ()))
        kw = {"single_type_target": "A"} if Hint.SINGLE_TYPE in hints else {}
        schema.register_edge_type(
            EdgeTypeDecl("E", (("w", "float64"), ("k", "int64")), hints=hints, **kw)
        )
        sim = Simulation(schema, checks="off")
        a = sim.add_agents("A", 9, {"v": np.arange(9.0)}).tolist()
        b = sim.add_agents("B", 4).tolist()
        ids = a + b
        rng = np.random.default_rng(int(hints.value) + 11)
        targets = rng.integers(0, len(a), 40).tolist()
        sources = rng.integers(0, len(ids), 40).tolist()
        edges = [(a[t], ids[s], (float(rng.random()), k))
                 for k, (t, s) in enumerate(zip(targets, sources))]
        edges += [(a[0], a[5], (0.5, 40)), (a[8], a[3], (0.25, 41)),
                  (a[2], b[1], (0.75, 42)), (b[1], a[6], (0.125, 43))]
        sim.add_edges("E", np.array([e[0] for e in edges], dtype=np.uint64),
                      np.array([e[1] for e in edges], dtype=np.uint64), [e[2] for e in edges])
        sim.commit_initial()
        return sim, edges

    def cull(self, view, params, g):
        """Kill A0, A4, A8 and B1; A3 gives birth to A9, a slot past every
        index and bitmap of E, whose largest target slot is 8."""
        tag, slot = type_tag(view.agent_id), local_index(view.agent_id)
        if (tag, slot) == (0, 3):
            view.add_agent("A", 9.0)
        killed = self.KILLED_A if tag == 0 else (self.KILLED_B,)
        return None if slot in killed else view.state

    @pytest.mark.parametrize("hints", [h for h in all_hint_sets() if is_legal(h)],
                             ids=lambda h: str(h))
    def test_sweep_equals_a_build_of_the_survivors(self, hints):
        sim, edges = self.build(hints)
        info = sim.schema.edge_type("E")
        stored = edges
        if info.plan in (EdgePlan.SINGLE_FULL_EDGE, EdgePlan.EXISTENCE_BIT):
            stored = list({e[0]: e for e in edges}.values())  # each target's last add
        dead = {agent_id(0, s) for s in self.KILLED_A} | {agent_id(1, self.KILLED_B)}
        shard = ListShard(info)
        for t, s, st in stored:
            if t not in dead and not (info.has_source and s in dead):
                shard.add(t, s, info.stored_state(st))
        expected = build_read_container(info, [shard.seal()])
        assert expected.n_stored() < sim.edge_container("E").n_stored()

        checksums = []
        for workers in (1, 2):
            sim, _ = self.build(hints)
            spec = TransitionSpec(("A", "B"), write_types=("A", "B"))
            apply_transition(sim, self.cull, spec, workers=workers)
            finalize_step(sim)
            assert sim.agent_ids("A").tolist() == [1, 2, 3, 5, 6, 7, 9]
            swept = sim.edge_container("E")
            assert [(k, _plain(v)) for k, v in swept.buffers().items()] == [
                (k, _plain(v)) for k, v in expected.buffers().items()]
            checksums.append(sim.state_checksum())
        assert checksums[0] == checksums[1]


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
        base = np.uint64(agent_id(2, (1 << 36) | 70_000))
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
        ids = np.array([agent_id(int(t), int(s)) for t, s in
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
            b = [agent_id(1, slot) for slot in range(3)]
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
            assert edge_read(c, "sources", 0).tolist() == [1, 2, 3, 4]
        if c.states is not None:
            assert edge_read(c, "states", 0) == [(1.0,), (2.0,), (3.0,), (4.0,)]
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
        assert edge_read(c, "sources", 0).tolist() == [3]
        assert edge_read(c, "sources", 1).tolist() == [2, 4]
        assert edge_read(c, "count", 7) == 0

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
        assert [edge_read(c, "states", t) for t in range(8)] == [[(float(t),)] for t in range(8)]


class TestRangeCheckFallbacks:
    """A chunk that fails the range test is checked id by id, with the
    verdicts of a check of every id."""

    DECL = EdgeTypeDecl("E", hints=Hint.STATELESS)
    A9, A12 = 9, 12  # slots past A's eight agents
    B0 = 1 << 56  # type B, slot 0

    @pytest.mark.parametrize("column", ["targets", "sources"])
    @pytest.mark.parametrize("ids, bad", [
        ([0, 1, A12, 3, 2, A9, 4], A9),  # slots >= count of the same type
        ([0, 1, B0 + 5, 3, 2, B0], B0 + 5),  # a slot of another agent type
        ([B0 + 1, A9, B0], A9),  # the largest id exists, the smallest does not
    ])
    def test_bulk_endpoint_raises_naming_the_smallest_bad_id(self, column, ids, bad):
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

    def test_a_step_names_one_bad_id_at_any_worker_count(self):
        """Agent 0 adds an edge from a source that does not exist, agent 6
        one to a target that does not exist: 1, 2 and 4 workers, under
        every partition, shuffled or not, name the target, the smallest
        bad target of all workers."""
        def emit(view, params, g):
            if view.agent_id == 0:
                view.add_edge("E", 1, source=0x1388)
            elif view.agent_id == 6:
                view.add_edge("E", 0xFA0)

        spec = TransitionSpec(callable_types=("A",), write_types=("E",))
        messages = set()
        for workers, strategy, shuffle in itertools.product(
                (1, 2, 4), ("contiguous", "round_robin", "greedy_edge_cut"),
                (None, np.random.default_rng(3))):
            sim = two_type_sim(self.DECL)
            sim.commit_initial()
            with pytest.raises(ContractViolation) as raised:
                apply_transition(sim, emit, spec, workers=workers, shuffle=shuffle,
                                 partition=partition_graph(sim, workers, strategy))
            assert sim._staged is None
            messages.add(str(raised.value))
        assert messages == {"edge of type 'E' references nonexistent agent 0xfa0"}

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
    """A sorted bulk add holds one copy of the sources, as 4-byte slots, and
    the targets' index, and the commit adds nothing per edge: counted in
    bytes with ``tracemalloc``, which sees numpy's buffers, so the verdict
    needs no timing. The builder's uint32 output goes in unwidened."""

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
        assert held <= 0.53, held  # 4 bytes of sources per edge, half of 8
        assert peak <= 0.58, peak
        assert sim.edge_container("E").n_stored() == n


# Targets of two agent types, of which A0, A4, A7 and B0 never get an edge:
# slots without edges at the start, in the middle and at the end.
B0 = agent_id(1, 0)
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
                pos, indptr = c.runs(*c.bounds(tag, slots))
                per_tag.append((_plain(c.bounds(tag, slots)),
                                 np.arange(c.n_stored())[run_positions(pos, indptr)].tolist(),
                                 indptr.tolist()))
            buffers = {k: _plain(v) for k, v in c.buffers().items()}
            return buffers, c.n_stored(), per_tag, sim.state_checksum()

        expected = seen(first)
        assert expected[1] == (len({e[0] for e in flat}) if Hint.SINGLE_EDGE in decl.hints
                               else len(flat))
        for sim in sims[1:]:
            assert seen(sim) == expected


PROJECTION_DECLS = [
    EdgeTypeDecl("E", (("w", "float64"), ("k", "int64"))),
    EdgeTypeDecl("E", (("w", "float64"), ("k", "int64")), hints=Hint.IGNORE_FROM),
    EdgeTypeDecl("E", hints=Hint.STATELESS),
    EdgeTypeDecl("E", hints=Hint.STATELESS | Hint.IGNORE_FROM),
    EdgeTypeDecl("E", (("w", "float64"), ("k", "int64")), hints=Hint.SINGLE_EDGE),
    EdgeTypeDecl("E", hints=Hint.STATELESS | Hint.IGNORE_FROM | Hint.SINGLE_EDGE),
]
# sources of two types, and one whose slot needs more than 32 bits
projection_edge = st.tuples(
    st.sampled_from(ORACLE_TARGETS), st.sampled_from(ORACLE_SOURCES + [agent_id(0, 1 << 33)]),
    st.floats(allow_nan=False), st.integers(-(1 << 62), 1 << 62), st.integers(0, 5),
)


@st.composite
def projection_cases(draw):
    """Edges ``(target, source, w, k, producer)`` written by 1-3 workers,
    producer ``p`` on worker ``p % workers``, each worker's in runs of
    per-edge or bulk adds; with producers recorded or not, and edges to
    carry over or None."""
    edges = draw(st.lists(projection_edge, max_size=14))
    if draw(st.booleans()):  # sorted bulk adds are kept as their index
        edges.sort(key=lambda e: e[0])
    return (edges, draw(st.integers(1, 3)), draw(st.booleans()),
            draw(st.lists(st.tuples(st.booleans(), st.integers(1, 4)), min_size=1)),
            draw(st.none() | st.lists(projection_edge, max_size=6)))


def write_chunks(info, edges, recorded, runs):
    """One shard's sealed chunks of ``edges``, added in ``runs``: (bulk,
    length), taken in turn."""
    shard = ListShard(info, record_producers=recorded)
    at, turn = 0, 0
    while at < len(edges):
        bulk, length = runs[turn % len(runs)]
        part, at, turn = edges[at: at + length], at + length, turn + 1
        if bulk:
            shard.extend(np.array([e[0] for e in part], dtype=np.uint64),
                         np.array([e[1] for e in part], dtype=np.uint64),
                         [[e[2] for e in part], [e[3] for e in part]] if info.has_state else None,
                         np.array([e[4] for e in part], dtype=np.uint64))
        else:
            for t, src, w, k, producer in part:
                shard.add(t, src, (w, k) if info.has_state else None, producer)
    return shard.seal()


def projected(plan, merged):
    """Merged ``(edge, carried)`` pairs stable-sorted by target, then the
    plan's projection, and the SINGLE_EDGE reports of a single plan:
    (target, the later edge's producer, whether the earlier was carried)."""
    ordered = sorted(merged, key=lambda pair: pair[0][0])
    reports = []
    if plan not in (EdgePlan.SINGLE_FULL_EDGE, EdgePlan.EXISTENCE_BIT):
        return ordered, reports
    kept = []
    for pair in ordered:
        if kept and kept[-1][0][0] == pair[0][0]:
            reports.append((pair[0][0], pair[0][4], kept[-1][1]))
            kept[-1] = pair
        else:
            kept.append(pair)
    return kept, reports


def expected_buffers(info, edges):
    """The buffers of ``edges`` in target order, spelled out edge by edge."""
    targets = [e[0] for e in edges]
    tags = sorted({type_tag(t) for t in targets})
    if info.plan is EdgePlan.EXISTENCE_BIT:
        return {f"bits:{tag}": ("|u1", [int(agent_id(tag, s) in targets) for s in
                                        range(max(local_index(t) for t in targets
                                                  if type_tag(t) == tag) + 1)])
                for tag in tags}
    out = {}
    for tag in tags:
        size = max(local_index(t) for t in targets if type_tag(t) == tag) + 2
        out[f"indptr:{tag}"] = ("<i8", [sum(t < agent_id(tag, s) for t in targets)
                                         for s in range(size)])
    if info.has_source:
        sources = [e[1] for e in edges]
        if sources and len({type_tag(i) for i in sources}) == 1 and all(
                local_index(i) < 1 << 32 for i in sources):
            out[f"source_slots:{type_tag(sources[0])}"] = ("<u4", [local_index(i) for i in sources])
        else:
            out["sources"] = ("<u8", sources)
    if info.has_state:
        out["field:w"] = ("<f8", [e[2] for e in edges])
        out["field:k"] = ("<i8", [e[3] for e in edges])
    return out


class TestPlanProjectionOracle:
    """``build_read_container`` of random chunk lists, onto carried-over
    edges or none, equals a plain-Python reference: the edges in merge
    order (carried first, then by producer when every chunk records them,
    else in worker and call order), stable-sorted by target, then every
    edge, each target's last edge or each target's bit. In warn mode a
    single plan reports each edge after a target's first, in target
    order; a list plan reports nothing."""

    @pytest.mark.parametrize("decl", PROJECTION_DECLS,
                             ids=lambda d: storage_plan_for(d.hints).value)
    @settings(max_examples=40, deadline=None)
    @given(case=projection_cases())
    def test_build_equals_the_reference(self, decl, case):
        edges, workers, recorded, runs, carried = case
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("A", (), immortal=True))
        schema.register_edge_type(decl)
        info = schema.edge_types[0]
        carryover, merged = None, []
        if carried is not None:
            carryover = build_read_container(info, [write_chunks(info, carried, False, runs)])
            merged = projected(info.plan, [(e, True) for e in carried])[0]
        lists = [write_chunks(info, [e for e in edges if e[4] % workers == w], recorded, runs)
                 for w in range(workers)]
        calls = [e for w in range(workers) for e in edges if e[4] % workers == w]
        if recorded:
            calls.sort(key=lambda e: e[4])
        else:  # reported as producer 0's
            calls = [(*e[:4], 0) for e in calls]
        kept, reports = projected(info.plan, merged + [(e, False) for e in calls])
        expected = expected_buffers(info, [e for e, _ in kept])
        expected_reports = [
            ("single_edge", t, p, "SINGLE_EDGE target already had a retained edge" if carried_first
             else "second edge added to a SINGLE_EDGE target")
            for t, p, carried_first in reports]
        for sink in (merge_sink("warn", 0), None):
            c = build_read_container(info, lists, carryover, sink)
            assert {k: _plain(v) for k, v in c.buffers().items()} == expected
            if sink is not None:
                assert [(v.kind, v.target, v.producer, v.message)
                        for v in sink.reports] == expected_reports


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
        assert c.edge_endpoints()[0].tolist() == [0, 0, 1, 3, 3, 3]
        assert edge_read(c, "sources", 3).tolist() == [1, 2, 0]
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
        counts = [edge_read(c, "count", t) for t in (0, 1, 7, B0, B0 + 1, B0 + 2)]
        assert counts == [0, 2, 1, 1, 0, 2]
        assert c.edge_endpoints()[0].tolist() == ids

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


def searched_indptr(targets: np.ndarray) -> dict:
    """The index as one search per slot finds it: per target type, the
    run start of each slot up to its last target's, and one more."""
    tags = type_tag(targets)
    out = {}
    for tag in np.unique(tags).tolist():
        lo, hi = np.searchsorted(tags, [tag, tag + 1]).tolist()
        size = int(local_index(targets[hi - 1])) + 2
        out[tag] = np.searchsorted(targets[lo:hi], slot_ids(tag, np.arange(size))) + lo
    return out


# Per type tag, its target slots, some sparse (few edges over wide slots)
# and some dense (many edges over few slots).
type_targets = st.dictionaries(
    st.integers(0, 3),
    st.one_of(
        st.lists(st.integers(0, 5000), min_size=1, max_size=20),
        st.lists(st.integers(0, 12), min_size=1, max_size=60),
    ),
    min_size=1, max_size=3,
)


class TestCountingIndex:
    """``_build_indptr`` builds the index, the count of edges before each
    slot, from the runs of one blocked scan; it is the search's, array for
    array, for merges as for bulk adds."""

    @staticmethod
    def targets_of(by_tag: dict) -> np.ndarray:
        return np.sort(np.concatenate([
            slot_ids(tag, np.array(slots, dtype=np.int64))
            for tag, slots in by_tag.items()
        ]))

    def assert_same(self, targets):
        got = storage._build_indptr(targets)
        want = searched_indptr(targets)
        assert list(got) == list(want)
        for tag in want:
            assert got[tag].dtype == want[tag].dtype == np.int64
            assert np.array_equal(got[tag], want[tag]), tag

    @settings(max_examples=200, deadline=None)
    @given(by_tag=type_targets)
    def test_equals_the_search(self, by_tag):
        self.assert_same(self.targets_of(by_tag))

    @pytest.mark.parametrize("by_tag", [
        {0: [0]},              # slot 0, one edge: two entries
        {2: [7]},              # one edge past empty slots
        {0: [0, 0, 0]},
        {0: [0], 1: [0, 900], 3: [4, 4, 4, 4, 4, 4]},
        {1: list(range(10)) * 3},
    ])
    def test_edge_cases(self, by_tag):
        self.assert_same(self.targets_of(by_tag))

    @pytest.mark.parametrize("drop_at", [2, storage._PROBE, storage._PROBE + 1,
                                         storage._BLOCK, storage._BLOCK + 1,
                                         2 * storage._BLOCK + 7, None])
    def test_the_scan_stops_at_the_first_block_out_of_order(self, monkeypatch, drop_at):
        """Block 0 compares positions 1 to ``_PROBE`` with the target
        before each, and block ``k > 0`` the ``_BLOCK`` positions from
        ``1 + _PROBE + (k - 1) * _BLOCK`` on; a target less than the one
        before it at ``drop_at`` ends the scan in its block, with no
        index. So unsorted targets cost a scan of ``_PROBE`` ids."""
        block, probe = storage._BLOCK, storage._PROBE
        targets = np.arange(3 * block + 5, dtype=np.uint64) // np.uint64(3) + np.uint64(1)
        if drop_at is not None:
            targets[drop_at] = targets[drop_at - 1] - np.uint64(1)
        compares = []
        real = np.not_equal

        def spy(a, b, *args, **kw):
            compares.append(np.size(a))
            return real(a, b, *args, **kw)

        monkeypatch.setattr(storage.np, "not_equal", spy)
        got = storage._build_indptr(targets)
        monkeypatch.undo()
        if drop_at is None:
            assert len(compares) == 4 and sum(compares) == targets.size - 1
            self.assert_same(targets)
        else:
            assert got is None
            first = drop_at <= probe
            assert len(compares) == (1 if first else 2 + (drop_at - 1 - probe) // block)

    @pytest.mark.parametrize("block", [1, 2, 1 << 16])
    @pytest.mark.parametrize("ids", [
        [5, 3],
        [agent_id(0, 5), agent_id(1, 0), agent_id(0, 7)],  # in order up to a type's last
        [agent_id(1, 5), agent_id(0, 3)],
        [agent_id(0, 1), agent_id(2, 0), agent_id(1, 0), agent_id(2, 1)],
        [agent_id(0, 2), agent_id(1, 0), agent_id(0, 9), agent_id(1, 1)],
        [agent_id(255, 0), agent_id(0, 1)],  # no type follows the last tag
        [agent_id(1, 0), agent_id(255, 3), agent_id(0, 1), agent_id(2, 0)],
    ])
    def test_targets_out_of_order_give_none(self, monkeypatch, ids, block):
        monkeypatch.setattr(storage, "_BLOCK", block)
        assert storage._build_indptr(np.array(ids, dtype=np.uint64)) is None

    def test_limit_returns_none_without_allocating(self):
        """An index of 2**40 + 2 entries would fail to allocate; over the
        limit it is not attempted."""
        far = np.array([agent_id(0, 1 << 40)], dtype=np.uint64)
        assert storage._build_indptr(far, limit=1 << 16) is None
        targets = self.targets_of({0: [0, 5], 1: [2]})  # 7 + 4 entries
        assert storage._build_indptr(targets, limit=10) is None
        assert storage._build_indptr(targets, limit=11).keys() == {0, 1}

    def test_epidemic_infection_index_is_unchanged(self):
        """The Infection index the epidemic builds every day, sparse as it
        has far fewer infections than persons: its buffers over 10 days
        hash as they did when every index was searched, and equal the
        search of its own targets."""
        import hashlib

        from graphabm import run
        from graphabm.models.episim import INFECTION, EpiConfig, build_epi, day_program

        model = build_epi(EpiConfig(persons=2000, locations=100, theta=0.2, seed=1,
                                    initial_infected=(0, 1, 2, 3, 4)))
        h = hashlib.sha256()
        stored = []

        def on_step(sim):
            c = sim.edge_container(INFECTION)
            stored.append(c.n_stored())
            assert sum(ptr.size for ptr in c.indptr.values()) > c.n_stored()
            want = searched_indptr(storage._index_targets(c.indptr))
            assert all(np.array_equal(c.indptr[tag], ptr) for tag, ptr in want.items())
            for name, buf in c.buffers().items():
                h.update(f"{name}:{buf.dtype.str}{buf.shape};".encode())
                h.update(np.ascontiguousarray(buf))

        run(model.sim, 10, day_program(model), on_step=on_step)
        assert stored == [2, 4, 12, 17, 19, 30, 46, 56, 78, 103]
        assert h.hexdigest() == (
            "3a67f25ae1cb297133e571dc4d65d680ae5fa1277b86088727a70920652c01eb"
        )


def reference_chunk(targets: np.ndarray, sources: np.ndarray, producers: bool):
    """What a bulk add keeps, written plainly: ``(index, targets, sources,
    source_tag)``, with the index, as the search finds it, only for targets
    in nondecreasing order whose index takes at most ``max(targets,
    _INDEX_FLOOR)`` entries, in a shard that records no producers, and the
    targets as uint64 otherwise; sources as uint32 slots when one tag's
    slots below 2**32 hold them all (by their min and max), else as uint64
    ids. The ids here stay below 2**63, so their int64 differences are
    exact."""
    ids = targets.astype(np.uint64)
    index = None
    if not producers and bool(np.all(np.diff(ids.astype(np.int64)) >= 0)):
        tags = type_tag(ids)
        entries = sum(int(local_index(ids[tags == tag].max())) + 2 for tag in set(tags.tolist()))
        if entries <= max(ids.size, storage._INDEX_FLOOR):
            index = searched_indptr(ids) if ids.size else {}
    if sources.dtype == np.uint32:
        return index, ids, sources, 0
    lo, hi = int(sources.min()), int(sources.max())
    if type_tag(lo) == type_tag(hi) and local_index(hi) < 1 << 32:
        return index, ids, local_index(sources).astype(np.uint32), type_tag(lo)
    return index, ids, sources, None


def stateless_info():
    """A STATELESS edge type, which keeps targets and sources."""
    schema = Schema()
    schema.register_agent_type(AgentTypeDecl("A", ()))
    schema.register_edge_type(EdgeTypeDecl("E", hints=Hint.STATELESS))
    return schema.edge_types[0]

# One id per edge: a type tag and a slot, the slot at times past 32 bits.
one_pass_ids = st.lists(
    st.tuples(st.integers(0, 3), st.one_of(st.integers(0, 40), st.just(1 << 32))),
    max_size=40,
)


class TestOnePassOracle:
    """Every chunk a bulk add makes equals :func:`reference_chunk`: the
    index or the copied targets, the sources' stored form and its tag,
    byte for byte; the caller's arrays are left as they were, and the
    chunk shares no memory with them. Drawn with small ``_BLOCK`` sizes,
    so that runs and decreases fall on every kind of block boundary."""

    @staticmethod
    def assert_chunk(targets, sources, producers=False):
        given_targets, given_sources = targets.copy(), sources.copy()
        shard = ListShard(stateless_info(), record_producers=producers)
        shard.extend(targets, sources, None, 0)
        chunks = shard.seal()
        assert np.array_equal(targets, given_targets) and targets.dtype == given_targets.dtype
        assert np.array_equal(sources, given_sources) and sources.dtype == given_sources.dtype
        if not targets.size:
            assert chunks == []
            return None
        (chunk,) = chunks
        index, ids, column, tag = reference_chunk(targets, sources, producers)
        if index is None:
            assert chunk.index is None
            assert chunk.targets.dtype == np.uint64 and np.array_equal(chunk.targets, ids)
            held = [chunk.targets]
        else:
            assert chunk.targets is None and list(chunk.index) == list(index)
            for key, ptr in index.items():
                assert chunk.index[key].dtype == np.int64
                assert np.array_equal(chunk.index[key], ptr), key
            held = list(chunk.index.values())
        assert chunk.source_tag == tag
        assert chunk.sources.dtype == column.dtype and np.array_equal(chunk.sources, column)
        for mine in held + [chunk.sources]:
            assert not np.shares_memory(mine, targets) and not np.shares_memory(mine, sources)
        return chunk

    @settings(max_examples=300, deadline=None)
    @given(pairs=one_pass_ids, order=st.sampled_from(["drawn", "sorted", "one_moved"]),
           moved=st.integers(0, 39), block=st.sampled_from([1, 2, 3, 7]),
           source_pairs=one_pass_ids, uint32=st.booleans(), producers=st.booleans())
    def test_draws(self, pairs, order, moved, block, source_pairs, uint32, producers):
        """``one_moved`` sorts the targets, then moves one to the end."""
        from unittest import mock

        if order != "drawn":
            pairs = sorted(pairs)
        if order == "one_moved" and pairs:
            pairs.append(pairs.pop(moved % len(pairs)))
        targets = np.array([agent_id(tag, slot) for tag, slot in pairs], dtype=np.uint64)
        cycle = source_pairs or [(0, 0)]
        sources = np.array([agent_id(*cycle[i % len(cycle)]) for i in range(len(pairs))],
                           dtype=np.uint64)
        if uint32 and not (targets >> np.uint64(32)).any():
            targets = targets.astype(np.uint32)
        if uint32 and not (sources >> np.uint64(32)).any():
            sources = sources.astype(np.uint32)
        with mock.patch.object(storage, "_BLOCK", block):
            self.assert_chunk(targets, sources, producers)

    BLOCK = storage._BLOCK

    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    @pytest.mark.parametrize("dtype", [np.uint64, np.uint32])
    def test_sizes_around_the_block(self, n, dtype):
        """Runs of 7 targets cross every block boundary; sources of one
        type fit in uint32 slots."""
        targets = (np.arange(n) // 7).astype(dtype)
        chunk = self.assert_chunk(targets, (np.arange(n)[::-1] % 1000).astype(dtype))
        if n:
            assert chunk.index is not None and chunk.source_tag == 0

    @pytest.mark.parametrize("drop_at", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 4])
    def test_a_decrease_at_a_block_boundary_copies_the_targets(self, drop_at):
        targets = np.arange(3 * self.BLOCK + 5, dtype=np.uint64) // np.uint64(5)
        targets[drop_at] = targets[drop_at - 1] - np.uint64(1)
        chunk = self.assert_chunk(targets, np.zeros(targets.size, dtype=np.uint64))
        assert chunk.index is None

    def test_one_to_three_target_tags(self):
        for tags in ([1], [0, 2], [0, 1, 3]):
            targets = np.sort(np.concatenate([slot_ids(tag, np.arange(self.BLOCK + 9) // 4)
                                              for tag in tags]))
            chunk = self.assert_chunk(targets, slot_ids(2, np.arange(targets.size)))
            assert list(chunk.index) == tags and chunk.source_tag == 2

    @pytest.mark.parametrize("where", [0, BLOCK - 1, BLOCK, 2 * BLOCK + 3])
    def test_sources_that_do_not_fit_stay_ids(self, where):
        """A slot of 2**32 or an id of another type, in the first block,
        at its end, or in a later block, keeps every source as a uint64
        id."""
        n = 2 * self.BLOCK + 5
        targets = np.arange(n, dtype=np.uint64)
        for odd in (agent_id(1, 1 << 32), agent_id(0, 3), agent_id(2, 0)):
            sources = slot_ids(1, np.arange(n) % 50)
            sources[where] = odd
            chunk = self.assert_chunk(targets, sources)
            assert chunk.source_tag is None and chunk.sources.dtype == np.uint64

    def test_a_far_target_is_copied_not_indexed(self):
        """A last slot ``s`` takes ``s + 2`` entries: one past
        ``_INDEX_FLOOR`` is copied, ``_INDEX_FLOOR`` itself indexed."""
        last = storage._INDEX_FLOOR - 2
        for slot, indexed in ((last + 1, False), (last, True), (1 << 40, False)):
            chunk = self.assert_chunk(np.array([0, 1, slot], dtype=np.uint64),
                                      np.zeros(3, dtype=np.uint64))
            assert (chunk.index is not None) == indexed


# ---------------------------------------------------------------------------
# Source forms: uint32 slots of one tag, or uint64 ids
# ---------------------------------------------------------------------------


def forms_sim(initial=None):
    """Mortal types A (tag 0) and B (tag 1), six agents each, and a
    STATELESS edge type E; ``initial`` picks the sources of the initial
    edges: one to each A agent from A agents, or from A and B agents."""
    schema = Schema()
    schema.register_agent_type(AgentTypeDecl("A", (("x", "int64"),)))
    schema.register_agent_type(AgentTypeDecl("B", (("x", "int64"),)))
    schema.register_edge_type(EdgeTypeDecl("E", hints=Hint.STATELESS))
    sim = Simulation(schema, seed=2)
    a = sim.add_agents("A", 6, {"x": np.arange(6)})
    b = sim.add_agents("B", 6, {"x": np.arange(6)})
    if initial is not None:
        sources = np.roll(a, 1) if initial == "A" else np.where(np.arange(6) % 2, b, a)
        sim.add_edges("E", a, sources)
    sim.commit_initial()
    return sim


def form_edges(aid: int, sources: str) -> list:
    """(target, source) of the edges agent ``aid`` adds: to itself, from
    its neighbours of type A, of type B, or one of each."""
    slot = local_index(aid)
    a, b = agent_id(0, (slot + 1) % 6), agent_id(1, (slot + 2) % 6)
    return {"A": [(aid, a), (aid, agent_id(0, slot))],
            "B": [(aid, b), (aid, agent_id(1, (slot + 1) % 6))],
            "AB": [(aid, a), (aid, b)]}[sources]


def emit_agent(view, params, _g):
    for target, source in form_edges(view.agent_id, params["sources"]):
        view.add_edge("E", target, source=source)


def emit_batch(batch, params, _g):
    edges = [(i, t, s) for i, aid in enumerate(batch.ids.tolist())
             for t, s in form_edges(aid, params["sources"])]
    agents, targets, sources = (np.array(c, dtype=np.uint64) for c in zip(*edges))
    batch.add_edges("E", targets, agents=agents.astype(np.int64), sources=sources)


def give_birth(view, _params, _g):
    """Each A agent of an even slot bears a B agent, the source of an edge
    to the bearer, beside an edge from an older B agent."""
    if view.agent_id % 2 == 0:
        child = view.add_agent("B", 7)
        view.add_edge("E", view.agent_id, source=child)
        view.add_edge("E", view.agent_id, source=agent_id(1, 0))


def die(_view, _params, _g):
    return None  # a per-agent call that returns no state drops its agent


class TestSourceForms:
    """Sources are kept as uint32 slots when they share one type tag, else
    as uint64 ids, and equal edges give one checksum at 1, 2 and 4 workers,
    in batch and per-agent form, shuffled and not, whatever path built
    them: a bulk add, a merge, a newborn's rewritten id, a carryover, a
    sweep."""

    RUNS = [(w, batch, shuffled) for w in (1, 2, 4) for batch in (False, True)
            for shuffled in (False, True)]
    # births, keep_existing and deaths are written by per-agent transitions only
    PER_AGENT = [run for run in RUNS if not run[1]]

    @staticmethod
    def stored(sim):
        c = sim.edge_container("E")
        return c.single_source_tag, tuple(name for name in c.buffers() if "source" in name)

    def run_all(self, make, steps, runs=None):
        sums, forms = set(), set()
        for workers, batch, shuffled in runs or self.RUNS:
            sim = make()
            for fn, spec in steps(batch):
                apply_transition(sim, fn, spec, workers=workers,
                                 shuffle=np.random.default_rng(workers) if shuffled else None)
                finalize_step(sim)
            sums.add(sim.state_checksum())
            forms.add(self.stored(sim))
        assert len(sums) == 1
        (form,) = forms
        return form

    @pytest.mark.parametrize("sources,form", [
        ("A", (0, ("source_slots:0",))),
        ("B", (1, ("source_slots:1",))),
        ("AB", (None, ("sources",))),
    ])
    def test_written_sources(self, sources, form):
        def make():
            sim = forms_sim()
            sim.set_param("sources", sources)
            return sim

        def steps(batch):
            spec = TransitionSpec(callable_types=("A", "B"), write_types=("E",), batch=batch)
            return [(emit_batch if batch else emit_agent, spec)]

        assert self.run_all(make, steps) == form
        c = forms_sim()
        c.set_param("sources", sources)
        apply_transition(c, emit_agent, steps(False)[0][1])
        finalize_step(c)
        read = c.edge_container("E")
        for aid in c.agent_ids("A").tolist() + c.agent_ids("B").tolist():
            assert edge_read(read, "sources", aid).tolist() == [
                s for _, s in form_edges(aid, sources)]
        ids = read.source_ids()
        assert ids.dtype == np.uint64
        if form[0] is not None:
            assert read.sources.dtype == np.uint32
            assert np.array_equal(read.source_slots(slice(None)), local_index(ids).astype(np.intp))

    def test_newborn_sources_are_rewritten_and_narrowed(self):
        spec = TransitionSpec(callable_types=("A",), write_types=("B", "E"),
                              keep_existing=("B",))
        assert self.run_all(forms_sim, lambda _batch: [(give_birth, spec)], self.PER_AGENT) == (
            1, ("source_slots:1",))
        sim = forms_sim()
        apply_transition(sim, give_birth, spec)
        finalize_step(sim)
        born = [agent_id(1, slot) for slot in (6, 7, 8)]  # births in producer order
        read = sim.edge_container("E")
        assert [edge_read(read, "sources", agent_id(0, s)).tolist() for s in (0, 2, 4)] == [
            [b, agent_id(1, 0)] for b in born]

    def test_a_carryover_that_adds_a_second_tag_widens(self):
        def make():
            sim = forms_sim(initial="A")
            sim.set_param("sources", "B")
            return sim

        spec = TransitionSpec(callable_types=("A",), write_types=("E",), keep_existing=("E",))
        assert self.stored(make()) == (0, ("source_slots:0",))
        assert self.run_all(make, lambda _b: [(emit_agent, spec)], self.PER_AGENT) == (
            None, ("sources",))

    def test_a_sweep_that_leaves_one_tag_ends_as_a_fresh_build(self):
        spec = TransitionSpec(callable_types=("B",), write_types=("B",))
        swept = forms_sim(initial="AB")
        assert self.stored(swept) == (None, ("sources",))
        assert self.run_all(lambda: forms_sim(initial="AB"), lambda _b: [(die, spec)],
                            self.PER_AGENT) == (0, ("source_slots:0",))
        apply_transition(swept, die, spec)
        finalize_step(swept)
        kept = swept.agent_ids("A")[::2]  # the A sources, each its own target
        rebuilt = build_sim(EdgeTypeDecl("E", hints=Hint.STATELESS), n_agents=6)
        rebuilt.add_edges("E", kept, kept)
        rebuilt.commit_initial()
        got, want = swept.edge_container("E").buffers(), rebuilt.edge_container("E").buffers()
        assert list(got) == list(want)
        for name in got:
            assert got[name].dtype == want[name].dtype and np.array_equal(got[name], want[name])


def cumsum_runs(starts, ends):
    """``ListEdgeRead.runs`` as a cumsum over every run's extent."""
    indptr = np.zeros(starts.size + 1, dtype=np.int64)
    np.cumsum(ends - starts, out=indptr[1:])
    if starts.size and np.array_equal(starts[1:], ends[:-1]):
        return slice(int(starts[0]), int(ends[-1])), indptr
    return starts, indptr


class TestRuns:
    """Back-to-back runs take their ``indptr`` by one subtraction; it must
    equal the cumsum in value and dtype, as must ``pos``."""

    @given(counts=st.lists(st.integers(0, 4), max_size=24), first=st.integers(0, 1 << 20),
           dtype=st.sampled_from([np.int64, np.int32, np.uint32]), views=st.booleans(),
           gap=st.integers(-1, 24))
    @settings(max_examples=200, deadline=None)
    def test_back_to_back_runs_equal_the_cumsum(self, counts, first, dtype, views, gap):
        """``views``: starts and ends are views of one index, as
        ``bounds`` gives them for consecutive slots. Else they are copies,
        and ``gap`` moves every run from that position on one edge further,
        so the runs are no longer back to back, unless it is outside
        ``1 .. len(counts) - 1``."""
        sim = build_sim(EdgeTypeDecl("E"))
        sim.commit_initial()
        c = sim.edge_container("E")
        edge = first + np.concatenate([[0], np.cumsum(counts, dtype=np.int64)]).astype(dtype)
        starts, ends = (edge[:-1], edge[1:]) if views else (edge[:-1].copy(), edge[1:].copy())
        gapped = not views and 0 < gap < starts.size
        if gapped:
            starts[gap:] += 1
            ends[gap:] += 1
        back_to_back = bool(starts.size) and not gapped
        pos, indptr = c.runs(starts, ends)
        want_pos, want_indptr = cumsum_runs(starts, ends)
        assert indptr.dtype == want_indptr.dtype == np.int64
        assert indptr.tolist() == want_indptr.tolist()
        assert isinstance(pos, slice) == back_to_back
        if back_to_back:
            assert (pos.start, pos.stop) == (want_pos.start, want_pos.stop)
            assert type(pos.start) is type(pos.stop) is int
        else:
            assert pos is starts and want_pos is starts
