from __future__ import annotations

import numpy as np
import pytest

from graphabm import (
    AgentTypeDecl,
    EdgeTypeDecl,
    Hint,
    Schema,
    Simulation,
    TransitionSpec,
    apply_transition,
    cut_edge_counts,
    cut_fraction,
    finalize_step,
    ghost_table,
    partition_graph,
    split_id,
)
from graphabm.models.hk import HKConfig, hk_run
from graphabm.models.topology import Cliques, Complete, Regular


def plain_sim(n, with_edges=None):
    schema = Schema()
    schema.register_agent_type(AgentTypeDecl("P", (("x", "float64"),), immortal=True))
    schema.register_edge_type(EdgeTypeDecl("E"))
    sim = Simulation(schema)
    sim.add_agents("P", n, {"x": np.zeros(n)})
    if with_edges is not None:
        targets, sources = with_edges
        sim.add_edges("E", np.asarray(targets, dtype=np.uint64),
                      np.asarray(sources, dtype=np.uint64))
    sim.commit_initial()
    return sim


class TestPartitionBalance:
    def test_contiguous_sizes(self):
        sim = plain_sim(10)
        p = partition_graph(sim, 4, "contiguous")
        assert p.sizes.tolist() == [3, 3, 2, 2]

    def test_round_robin_sizes(self):
        sim = plain_sim(10)
        p = partition_graph(sim, 4, "round_robin")
        assert sorted(p.sizes.tolist(), reverse=True) == [3, 3, 2, 2]
        assert max(p.sizes) - min(p.sizes) <= 1

    @pytest.mark.parametrize("strategy", ["contiguous", "round_robin"])
    @pytest.mark.parametrize("n,w", [(1, 1), (7, 3), (16, 4), (5, 8)])
    def test_balance_within_one(self, strategy, n, w):
        sim = plain_sim(n)
        p = partition_graph(sim, w, strategy)
        assert int(p.sizes.sum()) == n
        nonzero = p.sizes[p.sizes > 0] if n < w else p.sizes
        assert max(p.sizes) - min(nonzero.min(), p.sizes.min()) <= 1

    def test_contiguous_blocks_are_contiguous(self):
        sim = plain_sim(10)
        p = partition_graph(sim, 4, "contiguous")
        owners = p.worker_for_slots(0, 0, np.arange(10))
        assert owners.tolist() == sorted(owners.tolist())


class TestCutMetrics:
    def test_single_worker_cut_is_zero(self):
        n = 12
        ring = (np.repeat(np.arange(n), 2),
                np.stack([(np.arange(n) - 1) % n, (np.arange(n) + 1) % n], 1).ravel())
        sim = plain_sim(n, ring)
        p = partition_graph(sim, 1)
        assert cut_fraction(sim, p) == 0.0

    def test_ring_of_12_over_4_contiguous_blocks(self):
        n = 12
        ring = (np.repeat(np.arange(n), 2),
                np.stack([(np.arange(n) - 1) % n, (np.arange(n) + 1) % n], 1).ravel())
        sim = plain_sim(n, ring)
        p = partition_graph(sim, 4, "contiguous")
        assert cut_fraction(sim, p) == pytest.approx(8 / 24, abs=0)

    def test_complete_graph_cut_matches_exhaustive_count(self):
        n = 100
        targets = np.repeat(np.arange(n), n)
        sources = np.tile(np.arange(n), n)
        sim = plain_sim(n, (targets, sources))
        p = partition_graph(sim, 4, "contiguous")
        # exhaustive oracle over all stored edges
        owners = p.worker_for_ids(np.arange(n, dtype=np.uint64))
        cut = sum(
            1 for t, s in zip(targets.tolist(), sources.tolist())
            if owners[t] != owners[s]
        )
        assert cut == n * n * 3 // 4  # (W-1)/W of the off-partition pairs
        assert cut_fraction(sim, p) == pytest.approx(cut / (n * n), abs=0)

    def test_greedy_beats_round_robin_on_cliques(self):
        topo = Cliques(8, 6)
        n = topo.size()
        targets, sources = topo.build()
        sim = plain_sim(n, (targets, sources))
        greedy = partition_graph(sim, 4, "greedy_edge_cut")
        rr = partition_graph(sim, 4, "round_robin")
        assert cut_fraction(sim, greedy) <= cut_fraction(sim, rr)

    def test_greedy_cuts_one_edge_per_boundary_on_cliques(self):
        topo = Cliques(8, 6)
        n = topo.size()
        targets, sources = topo.build()
        sim = plain_sim(n, (targets, sources))
        greedy = partition_graph(sim, 4, "greedy_edge_cut")
        assert greedy.sizes.tolist() == [12, 12, 12, 12]
        counts = cut_edge_counts(sim, greedy)
        assert max(counts.values()) <= 1


class TestGhostTable:
    def test_covers_exactly_remote_sources_of_readable_types(self):
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("P", (("x", "float64"),), immortal=True))
        schema.register_edge_type(EdgeTypeDecl("Seen"))
        schema.register_edge_type(
            EdgeTypeDecl("Unseen", hints=Hint.IGNORE_SOURCE_STATE)
        )
        sim = Simulation(schema)
        sim.add_agents("P", 4, {"x": np.zeros(4)})
        sim.add_edge("Seen", 0, 3)    # cross-worker under 2-way contiguous
        sim.add_edge("Seen", 0, 1)    # same worker
        sim.add_edge("Unseen", 1, 2)  # source state unreadable: no ghost
        sim.commit_initial()
        p = partition_graph(sim, 2, "contiguous")
        table = ghost_table(sim, p)
        assert table[0].tolist() == [3]
        assert table[1].tolist() == []

    def test_all_local_needs_no_ghosts(self):
        sim = plain_sim(6, (np.arange(6), (np.arange(6) + 1) % 6))
        p = partition_graph(sim, 1)
        table = ghost_table(sim, p)
        assert all(v.size == 0 for v in table.values())


class TestParallelExecution:
    def test_bit_identical_across_worker_counts(self):
        cfg = HKConfig(n=120, epsilon=0.25, seed=11)
        base = hk_run(cfg, 8, collect_metrics=False)
        for w in (2, 4, 8):
            r = hk_run(cfg, 8, workers=w, collect_metrics=False)
            assert np.array_equal(r.final_opinions, base.final_opinions)
            assert r.checksum == base.checksum

    @pytest.mark.parametrize("strategy", ["contiguous", "round_robin", "greedy_edge_cut"])
    def test_strategies_do_not_change_results(self, strategy):
        cfg = HKConfig(n=60, epsilon=0.3, seed=2, topology=Regular(6))
        base = hk_run(cfg, 5, collect_metrics=False)
        r = hk_run(cfg, 5, workers=3, strategy=strategy, collect_metrics=False)
        assert r.checksum == base.checksum

    def test_merge_sorted_by_producer_regardless_of_workers(self):
        def emit(view, params, g):
            view.add_edge("E", 0)
            return None

        spec = TransitionSpec(callable_types=("P",), write_types=("E",))
        expected = None
        for w in (1, 2, 4):
            sim = plain_sim(9)
            apply_transition(sim, emit, spec, workers=w,
                             partition=partition_graph(sim, w, "round_robin"))
            finalize_step(sim)
            got = sim.edge_container("E").sources_for(0).tolist()
            assert got == sorted(got)
            if expected is None:
                expected = got
            assert got == expected

    def test_more_workers_than_agents(self):
        cfg = HKConfig(n=3, epsilon=1.0, seed=0)
        base = hk_run(cfg, 2, collect_metrics=False)
        r = hk_run(cfg, 2, workers=8, collect_metrics=False)
        assert r.checksum == base.checksum

    def test_worker_error_propagates(self):
        sim = plain_sim(8)

        def boom(view, params, g):
            if view.agent_id >= 4:
                raise RuntimeError("remote failure")
            return view.state

        spec = TransitionSpec(callable_types=("P",), write_types=("P",))
        with pytest.raises(RuntimeError, match="remote failure"):
            apply_transition(sim, boom, spec, workers=2,
                             partition=partition_graph(sim, 2))
        # engine remains usable
        apply_transition(sim, lambda v, p, g: v.state, spec, workers=2,
                         partition=partition_graph(sim, 2))
        finalize_step(sim)
        assert sim.step == 1

    def test_new_agents_live_on_creating_worker(self):
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("P", (("x", "float64"),)))
        sim = Simulation(schema)
        for i in range(4):
            sim.add_agent("P", float(i))
        sim.commit_initial()

        def spawn(view, params, g):
            view.add_agent("P", view.field("x") + 10.0)
            return view.state

        spec = TransitionSpec(callable_types=("P",), write_types=("P",))
        apply_transition(sim, spawn, spec, workers=2, partition=partition_graph(sim, 2))
        finalize_step(sim)
        parts = sorted(split_id(int(i))[1] for i in sim.agent_ids("P").tolist())
        assert parts == [0, 0, 0, 0, 0, 0, 1, 1]


class TestGhostBytes:
    def test_ghost_state_bytes_counts_remote_state(self):
        from graphabm.parallel import ghost_state_bytes

        schema = Schema()
        schema.register_agent_type(
            AgentTypeDecl("P", (("x", "float64"), ("y", "int64")), immortal=True)
        )
        schema.register_edge_type(EdgeTypeDecl("E"))
        sim = Simulation(schema)
        sim.add_agents("P", 4, {"x": np.zeros(4), "y": np.zeros(4, dtype=np.int64)})
        sim.add_edge("E", 0, 3)  # crosses the 2-way contiguous boundary
        sim.commit_initial()
        p = partition_graph(sim, 2, "contiguous")
        assert ghost_state_bytes(sim, p) == 16  # one remote agent, two fields
