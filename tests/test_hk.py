from __future__ import annotations

import numpy as np
import pytest

from graphabm import EdgePlan, run
from graphabm.models.hk import (
    AGENT,
    EDGE,
    HKConfig,
    build_hk,
    cluster_count,
    hk_metrics,
    hk_program,
    hk_run,
    opinions,
)
from graphabm.models.topology import Cliques, Complete, Regular

from edge_reads import edge_read


def brute_force_hk_step(values: np.ndarray, epsilon: float) -> np.ndarray:
    """Independent oracle: dense pairwise confidence matrix, row means."""
    close = np.abs(values[None, :] - values[:, None]) <= epsilon
    return np.array(
        [values[row].mean() for row in close]
    )


class TestStepRule:
    def test_five_agent_step_matches_hand_computation(self):
        # Own 0.5, neighbors {0.4, 0.6, 0.9}, eps 0.15: the set within the
        # bound is {0.5, 0.4, 0.6}, mean 0.5.
        values = np.array([0.5, 0.4, 0.6, 0.9])
        close = values[np.abs(values - 0.5) <= 0.15]
        assert close.mean() == pytest.approx(0.5, abs=1e-15)

    def test_full_step_against_dense_oracle(self):
        cfg = HKConfig(n=5, epsilon=0.2, seed=42)
        sim = build_hk(cfg)
        initial = opinions(sim).copy()
        from graphabm import run
        from graphabm.models.hk import hk_program

        run(sim, 1, hk_program())
        expected = brute_force_hk_step(initial, 0.2)
        assert np.allclose(opinions(sim), expected, atol=1e-15)

    def test_isolated_agent_keeps_opinion(self):
        cfg = HKConfig(n=5, epsilon=1e-12, seed=1)
        sim = build_hk(cfg)
        before = opinions(sim).copy()
        from graphabm import run
        from graphabm.models.hk import hk_program

        run(sim, 1, hk_program())
        assert np.array_equal(opinions(sim), before)

    def test_epsilon_one_gives_global_mean(self):
        cfg = HKConfig(n=17, epsilon=1.0, seed=3)
        sim = build_hk(cfg)
        mean = opinions(sim).mean()
        from graphabm import run
        from graphabm.models.hk import hk_program

        run(sim, 1, hk_program())
        after = opinions(sim)
        assert np.all(after == after[0])
        assert after[0] == pytest.approx(mean, abs=1e-15)


class TestRun:
    def test_consensus_in_exactly_one_step_at_eps_one(self):
        res = hk_run(HKConfig(n=40, epsilon=1.0, seed=9), 2, record_trajectory=True)
        first = res.trajectory[0]
        assert np.all(first == first[0])
        assert np.array_equal(res.trajectory[1], first)
        assert res.metrics[0]["clusters"] == 1

    def test_small_epsilon_fixed_point_at_step_one(self):
        # No pair within eps: every step is the identity.
        cfg = HKConfig(n=5, epsilon=0.05, seed=0)
        sim = build_hk(cfg)
        start = opinions(sim).copy()
        pairwise = np.abs(start[None, :] - start[:, None])
        assume_isolated = (pairwise[~np.eye(5, dtype=bool)] > 0.05).all()
        from graphabm import run
        from graphabm.models.hk import hk_program

        run(sim, 3, hk_program())
        if assume_isolated:
            assert np.array_equal(opinions(sim), start)

    def test_contraction_every_step(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            eps = float(rng.uniform(0.01, 1.0))
            res = hk_run(
                HKConfig(n=50, epsilon=eps, seed=int(rng.integers(1 << 30))),
                8,
            )
            mins = [m["min"] for m in res.metrics]
            maxs = [m["max"] for m in res.metrics]
            assert all(a <= b for a, b in zip(mins, mins[1:]))
            assert all(a >= b for a, b in zip(maxs, maxs[1:]))

    def test_deterministic_given_seed(self):
        cfg = HKConfig(n=100, epsilon=0.3, seed=21)
        assert hk_run(cfg, 10).checksum == hk_run(cfg, 10).checksum

    def test_fixed_point_detection_by_tiny_change(self):
        res = hk_run(HKConfig(n=30, epsilon=0.25, seed=5), 60, record_trajectory=True)
        deltas = [
            np.abs(b - a).max() for a, b in zip(res.trajectory, res.trajectory[1:])
        ]
        assert deltas[-1] < 1e-12  # converged and stationary


class TestHintEquivalence:
    def test_hinted_and_unhinted_runs_are_bit_identical(self):
        hinted = hk_run(HKConfig(n=150, epsilon=0.2, seed=8, hints=True), 12)
        plain = hk_run(HKConfig(n=150, epsilon=0.2, seed=8, hints=False), 12)
        assert np.array_equal(hinted.final_opinions, plain.final_opinions)

    def test_declared_plans_differ(self):
        hinted = build_hk(HKConfig(n=4, epsilon=0.5, seed=0, hints=True))
        plain = build_hk(HKConfig(n=4, epsilon=0.5, seed=0, hints=False))
        assert hinted.schema.edge_type(EDGE).plan is EdgePlan.SOURCE_ONLY_LIST
        assert plain.schema.edge_type(EDGE).plan is EdgePlan.FULL_EDGE_LIST


class TestDescribe:
    def test_hk_holds_four_bytes_per_edge_plus_the_index(self):
        """The store keeps sources, as uint32 slots, and the CSR index (one
        int64 per agent, and one more) and no target column, hinted or not:
        the unhinted type declares no state field."""
        n, k = 500, 10
        for hints in (True, False):
            sim = build_hk(HKConfig(n=n, epsilon=0.2, topology=Regular(k), hints=hints))
            edges = n * (k + 1)
            assert sim.describe() == {
                "agents": {AGENT: n},
                "edges": {EDGE: {
                    "plan": sim.schema.edge_type(EDGE).plan.value,
                    "stored": edges,
                    "bytes": 4 * edges + 8 * (n + 1),
                }},
            }


class TestBuildAllocations:
    def test_complete_graph_build_holds_four_bytes_per_edge(self):
        """``build_hk`` passes the builder's uint32 slots in unwidened and
        the store keeps the sources as 4-byte slots: counted in bytes with
        ``tracemalloc``. A uint64 source column would hold 8 bytes an edge,
        and widened builder output or a 64-bit copy on the way in would
        lift the peak past 16."""
        import tracemalloc

        n = 1500
        tracemalloc.start()
        try:
            sim = build_hk(HKConfig(n=n, epsilon=0.2, topology=Complete()))
            held, peak = (b / n**2 for b in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert sim.edge_container(EDGE).n_stored() == n**2
        assert held <= 4.5, held
        assert peak <= 13, peak


class TestTopologies:
    def test_regular_in_degree(self):
        sim = build_hk(HKConfig(n=20, epsilon=0.2, seed=0, topology=Regular(4)))
        cont = sim.edge_container(EDGE)
        ids = sim.agent_ids("Person")
        assert all(edge_read(cont, "count", int(i)) == 5 for i in ids)  # 4 + self-loop

    @pytest.mark.parametrize("self_loops", [True, False])
    @pytest.mark.parametrize("n, k", [(3, 0), (3, 2), (5, 4), (9, 2), (10, 8), (101, 100),
                                      (1000, 10)])
    def test_regular_matches_the_modulo_formula(self, n, k, self_loops):
        half = k // 2
        offsets = np.array(list(range(-half, 0)) + [0] * self_loops + list(range(1, half + 1)))
        expected = ((np.arange(n)[:, None] + offsets[None, :]) % n).astype(np.uint64).ravel()
        targets, sources = Regular(k, self_loops).build(n)
        assert sources.dtype == np.uint32 and sources.tolist() == expected.tolist()
        assert targets.tolist() == np.repeat(np.arange(n), offsets.size).tolist()

    def test_clique_sizes(self):
        topo = Cliques(3, 4)
        sim = build_hk(HKConfig(n=12, epsilon=0.2, seed=0, topology=topo))
        cont = sim.edge_container(EDGE)
        ids = sim.agent_ids("Person").tolist()
        counts = sorted(edge_read(cont, "count", int(i)) for i in ids)
        # members see 4 (clique incl self); connectors see 4 + 2 adjacents
        assert counts == [4] * 9 + [6] * 3

    def test_complete_includes_self_loop(self):
        sim = build_hk(HKConfig(n=6, epsilon=0.2, seed=0))
        cont = sim.edge_container(EDGE)
        for aid in sim.agent_ids("Person").tolist():
            assert edge_read(cont, "count", int(aid)) == 6

    def test_cluster_count_tolerance(self):
        assert cluster_count(np.array([0.1, 0.1 + 5e-10, 0.9])) == 2
        assert cluster_count(np.array([0.1, 0.1 + 5e-9, 0.9])) == 3
        assert cluster_count(np.array([])) == 0


class TestMetrics:
    def test_mean_is_bit_equal_to_the_agent_fold(self):
        cfg = HKConfig(n=500, epsilon=0.1, topology=Regular(10), seed=4)
        sim = build_hk(cfg)
        for _ in range(3):
            run(sim, 1, hk_program())
            expected = sim.aggregate(AGENT, lambda s: s[0], "sum") / cfg.n
            assert hk_metrics(sim)["mean"] == expected
