from __future__ import annotations

import contextlib
import enum
import io
import multiprocessing as mp
import os
import pickle
import signal
import sys
from multiprocessing.connection import Connection

import numpy as np
import pytest

from graphabm import (
    AgentTypeDecl,
    ContractViolation,
    EdgeTypeDecl,
    Schema,
    Simulation,
    TransitionSpec,
    UsageError,
    WorkerError,
    apply_transition,
    cut_edge_counts,
    cut_fraction,
    finalize_step,
    local_index,
    partition_graph,
    run,
)
from graphabm import engine
from graphabm.models.episim import EpiConfig, build_epi, day_program, epi_run
from graphabm.models.hk import HKConfig, hk_run
from graphabm.models.topology import Cliques, Complete, Regular
from graphabm.parallel import Partition
from graphabm.storage import Chunk

from edge_reads import edge_read


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

    @pytest.mark.parametrize("strategy", ["contiguous", "round_robin"])
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_every_type_spreads_over_every_worker(self, strategy, workers):
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("A", (("x", "float64"),)))
        schema.register_agent_type(AgentTypeDecl("B", (("x", "float64"),)))
        schema.register_edge_type(EdgeTypeDecl("E"))
        sim = Simulation(schema)
        for name, n in (("A", 10), ("B", 7)):
            sim.add_agents(name, n, {"x": np.zeros(n)})
        p = partition_graph(sim, workers, strategy)
        for tag, n in ((0, 10), (1, 7)):
            share = np.bincount(p.worker_for_slots(tag, np.arange(n)), minlength=workers)
            assert share.max() - share.min() <= 1, (tag, share)
        assert p.sizes.sum() == 17

    def test_contiguous_blocks_are_contiguous(self):
        sim = plain_sim(10)
        p = partition_graph(sim, 4, "contiguous")
        owners = p.worker_for_slots(0, np.arange(10))
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

    def test_greedy_assignment_pinned_on_degree_ties(self):
        # A ring of 10 with chords 0-5 and 2-7, a self-loop and a repeated
        # edge 4-5: seeds and frontier picks tie on degree and gain, and the
        # lowest rank wins each tie.
        targets = list(range(10)) + [0, 2, 3, 4]
        sources = [(i + 1) % 10 for i in range(10)] + [5, 7, 3, 5]
        sim = plain_sim(10, (targets, sources))
        expected = {
            2: [0, 0, 0, 1, 0, 0, 1, 1, 1, 1],
            3: [0, 0, 1, 1, 0, 0, 2, 1, 2, 2],
            4: [0, 1, 1, 1, 0, 0, 2, 2, 3, 3],
        }
        for workers, owners in expected.items():
            p = partition_graph(sim, workers, "greedy_edge_cut")
            assert p.worker_for_slots(0, np.arange(10)).tolist() == owners


CHURN = TransitionSpec(callable_types=("M",), write_types=("M",))
BOTH = TransitionSpec(callable_types=("M", "I"))


def churn(view, params, g):
    """Agents of M die and give births by a rule of slot and step, so
    that births take freed slots and fresh ones."""
    slot, step = local_index(view.agent_id), view.step
    if slot and (3 * slot + step) % 7 == 0:
        return None
    if (slot + step) % 5 == 0:
        for _ in range(1 + slot % 3):
            view.add_agent("M", float(step))
    return view.state


def churn_sim():
    """A mortal type M and an immortal type I, on a ring of M's and an
    edge from every I to an M."""
    schema = Schema()
    schema.register_agent_type(AgentTypeDecl("M", (("x", "float64"),)))
    schema.register_agent_type(AgentTypeDecl("I", (("x", "float64"),), immortal=True))
    schema.register_edge_type(EdgeTypeDecl("E"))
    sim = Simulation(schema)
    m = sim.add_agents("M", 15, {"x": np.zeros(15)})
    i = sim.add_agents("I", 6, {"x": np.zeros(6)})
    sim.add_edges("E", m, np.roll(m, 1))
    sim.add_edges("E", m[:6], i)
    return sim


class TestOwnerTasks:
    """Each worker's tasks are the alive agents the partition gives it,
    :meth:`Partition.worker_for_slots` being the rule, while agents die,
    are born past the partitioned slots and reuse freed slots."""

    @staticmethod
    def assert_tasks_follow_the_rule(sim, p, workers):
        rt = engine.RuntimeSpec(sim, BOTH)
        for tag in rt.callable_tags:
            alive = sim._segments[tag].alive_slots()
            owned = []
            for w in range(workers):
                tasks = dict(engine._agent_tasks(sim, rt, p, w, workers))
                want = alive[p.worker_for_slots(tag, alive) == w]
                got = tasks.get(tag, want[:0])
                assert got.dtype == want.dtype and got.tolist() == want.tolist(), (tag, w)
                owned.append(got)
            owned = np.concatenate(owned)
            assert np.unique(owned).size == owned.size  # disjoint
            assert np.sort(owned).tolist() == alive.tolist()  # and cover the alive

    @pytest.mark.parametrize("strategy", ["contiguous", "round_robin", "greedy_edge_cut"])
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_tasks_equal_the_owner_rule(self, strategy, workers):
        sim = churn_sim()
        apply_transition(sim, churn, CHURN)  # deaths before partitioning
        finalize_step(sim)
        seg = sim._segments[0]
        assert seg.n_alive < seg.count
        p = partition_graph(sim, workers, strategy)
        reused = set()
        for _ in range(4):
            self.assert_tasks_follow_the_rule(sim, p, workers)
            before = sim._segments[0]
            dead = set(range(before.count)) - set(before.alive_slots().tolist())
            apply_transition(sim, churn, CHURN)
            finalize_step(sim)
            reused |= dead & set(sim._segments[0].alive_slots().tolist())
        self.assert_tasks_follow_the_rule(sim, p, workers)
        seg = sim._segments[0]
        assert seg.count > p.maps[0].size  # born after partitioning
        assert reused and seg.n_alive < seg.count  # freed slots reused, and deaths

    def test_a_partition_for_another_worker_count_is_refused(self):
        sim = churn_sim()
        for workers, parts in ((2, 3), (3, 2)):
            with pytest.raises(UsageError, match=f"over {parts} workers cannot serve {workers}"):
                apply_transition(sim, churn, CHURN, workers=workers,
                                 partition=partition_graph(sim, parts))
            with pytest.raises(UsageError, match=f"over {parts} workers"):
                run(sim, 1, [(churn, CHURN)], workers=workers,
                    partition=partition_graph(sim, parts))
        assert sim.step == 0 and sim._staged is None

    def test_an_epidemic_day_asks_no_owner_per_agent(self, monkeypatch):
        """Workers take their tasks from the owner lists made at
        partitioning, not from an owner lookup of every alive agent."""
        real = Partition.worker_for_slots

        def spy(self, tag, slots):
            if sys._getframe(1).f_code.co_name == "_agent_tasks":
                raise AssertionError("_agent_tasks looked up the owner of every agent")
            return real(self, tag, slots)

        monkeypatch.setattr(Partition, "worker_for_slots", spy)
        cfg = EpiConfig(persons=200, locations=20, theta=0.3, seed=3)
        assert epi_run(cfg, 1, workers=2).checksum == epi_run(cfg, 1).checksum


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
            got = edge_read(sim.edge_container("E"), "sources", 0).tolist()
            assert got == sorted(got)
            if expected is None:
                expected = got
            assert got == expected

    def test_shuffle_reorders_each_workers_agents(self, tmp_path):
        """With ``shuffle``, each worker runs its own agents in an order
        drawn from its seed, and the result is the unshuffled one."""
        log = tmp_path / "calls"

        def logged_bump(view, params, g):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {view.agent_id}\n")
            return bump(view, params, g)

        sims = [plain_sim(16), plain_sim(16)]
        apply_transition(sims[0], bump, WRITE_P, workers=2)
        apply_transition(sims[1], logged_bump, WRITE_P, workers=2,
                         shuffle=np.random.default_rng(0))
        for sim in sims:
            finalize_step(sim)
        assert sims[1].state_checksum() == sims[0].state_checksum()
        orders = {}
        for line in log.read_text().splitlines():
            pid, aid = line.split()
            orders.setdefault(pid, []).append(int(aid))
        assert len(orders) == 2
        assert sorted(a for order in orders.values() for a in order) == list(range(16))
        assert all(order != sorted(order) for order in orders.values())

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

    def test_births_off_worker_zero_match_one_worker(self):
        """The pool oracle's program, where every fifth agent gives births:
        over 3 steps the checksums and the populations at 2 workers equal
        the one-worker run's. (Newborns used to take their worker's
        partition, and the rule reads agent ids, so the runs diverged.)"""
        got = [cell_checksums(workers, steps=3) for workers in (1, 2)]
        assert got[1] == got[0]

    @pytest.mark.parametrize("strategy", ["contiguous", "round_robin"])
    def test_agents_born_after_partitioning_run_on_several_workers(self, strategy):
        """A slot the partition did not assign runs on worker ``slot % W``:
        the newborns of a partitioned run spread over the workers, and the
        run's checksums equal the one-worker run's."""
        sim = cell_sim()
        p = partition_graph(sim, 2, strategy)
        sums = []
        run(sim, 3, [(live, LIVE), set_bonus, (feed, FEED)], workers=2, partition=p,
            on_step=lambda s: sums.append(s.state_checksum()))
        assert sums == cell_checksums(1, steps=3)[0]
        born = sim.agent_ids("Cell")
        born = born[born >= p.maps[0].size]
        assert born.size >= 4
        owners = p.worker_for_slots(0, born.astype(np.int64))
        assert owners.tolist() == (born % 2).tolist() and set(owners.tolist()) == {0, 1}


# ---------------------------------------------------------------------------
# The resident worker pool
# ---------------------------------------------------------------------------

CONTROL_PID = os.getpid()
WRITE_P = TransitionSpec(callable_types=("P",), write_types=("P",))


def bump(view, params, g):
    return (view.field("x") + 1.0,)


def in_worker():
    """True in a forked worker, False on the control process."""
    return os.getpid() != CONTROL_PID


def fail_in_child(how):
    def fn(view, params, g):
        if in_worker():
            if how == "raise":
                raise KeyError("remote failure")
            if how == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        return (view.field("x"),)
    return fn


@contextlib.contextmanager
def deadline(seconds):
    """Fail, rather than hang, when the block runs over ``seconds``."""
    def expire(signum, frame):  # not an OSError, which a join would swallow
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def apply_once(sim, fn, workers):
    apply_transition(sim, fn, WRITE_P, workers=workers)
    finalize_step(sim)


def run_program(sim, fn, workers):
    run(sim, 2, [(fn, WRITE_P)], workers=workers)


class TestWorkerFaults:
    @pytest.mark.parametrize("entry", [apply_once, run_program])
    @pytest.mark.parametrize("how,exitcode", [("exit", 3), ("kill", -signal.SIGKILL)])
    def test_dead_worker_is_named_with_its_exit_code(self, entry, how, exitcode):
        sim = plain_sim(8)
        with pytest.raises(WorkerError) as info:
            entry(sim, fail_in_child(how), 2)
        assert info.value.worker == 1
        assert info.value.exitcode == exitcode
        assert sim._staged is None
        assert mp.active_children() == []

    @pytest.mark.parametrize("entry", [apply_once, run_program])
    def test_worker_exception_keeps_its_type(self, entry):
        sim = plain_sim(8)
        with pytest.raises(KeyError, match="remote failure"):
            entry(sim, fail_in_child("raise"), 2)
        assert sim._staged is None
        assert mp.active_children() == []

    @pytest.mark.parametrize("entry", [apply_once, run_program])
    def test_worker_zero_error_tears_the_pool_down(self, entry):
        def fail_on_control(view, params, g):
            if not in_worker():
                raise ValueError("local failure")
            return (view.field("x") + 1.0,)

        sim = plain_sim(8)
        with pytest.raises(ValueError, match="local failure"):
            entry(sim, fail_on_control, 2)
        assert sim._staged is None
        assert mp.active_children() == []
        run(sim, 3, [(bump, WRITE_P)], workers=2)
        assert mp.active_children() == []
        serial = plain_sim(8)
        run(serial, 3, [(bump, WRITE_P)])
        assert sim.state_checksum() == serial.state_checksum()

    def test_globals_that_do_not_pickle_are_refused(self):
        sim = plain_sim(8)
        sim.set_global("scale", lambda x: 2 * x)
        with pytest.raises(UsageError, match="globals must pickle"):
            run(sim, 1, [(bump, WRITE_P)], workers=2)
        assert sim._staged is None
        assert mp.active_children() == []

    def test_a_failed_transition_on_the_run_pool_ends_it_and_the_run_goes_on(self):
        """A program callable retries a program transition on the run's
        workers and catches its failure: the pool is ended, and the rest of
        the run forks a pool per transition with the same results."""
        def maybe_fail(view, params, g):
            if g.fail:
                raise ValueError("asked to fail")
            return (view.field("x") * 0.5 + view.agent_id,)

        def failing_retry(sim):
            sim.set_global("fail", True)
            with pytest.raises(ValueError, match="asked to fail"):
                apply_transition(sim, maybe_fail, WRITE_P, workers=2)
            sim.set_global("fail", False)

        sums = []
        for workers in (1, 2):
            sim = plain_sim(8)
            sim.set_global("fail", False)
            run(sim, 3, [(maybe_fail, WRITE_P), failing_retry, (bump, WRITE_P)],
                workers=workers)
            sums.append(sim.state_checksum())
            assert sim._pool is None and sim._staged is None
        assert sums[1] == sums[0]

    @pytest.mark.parametrize("failure", ["dangling_edge", "unpicklable_globals"])
    def test_a_failure_before_anything_reaches_the_run_pool_leaves_it_up(self, failure):
        """A program callable applies a two-worker transition that fails
        before the run's workers were sent anything for it, and catches
        the error: a one-off whose merge finds an edge to a nonexistent
        agent, or the run's own transition with globals that do not
        pickle. The run's pool stays up, and the run ends with the
        results of one worker."""
        to_nowhere = TransitionSpec(callable_types=("P",), write_types=("E",))

        def dangling(view, params, g):
            view.add_edge("E", 1000)
            return None

        pools = []

        def failing(sim):
            pools.append(sim._pool)
            if failure == "dangling_edge":
                with pytest.raises(ContractViolation, match="nonexistent agent"):
                    apply_transition(sim, dangling, to_nowhere, workers=2)
            else:
                sim.set_global("scale", lambda x: x)
                with pytest.raises(UsageError, match="globals must pickle"):
                    apply_transition(sim, bump, WRITE_P, workers=2)
                sim.set_global("scale", 1)
            assert sim._staged is None
            pools.append(sim._pool)

        sums = []
        for workers in (1, 2):
            sim = plain_sim(8)
            sim.set_global("scale", 1)
            pools.clear()
            with deadline(30):
                run(sim, 3, [(bump, WRITE_P), failing, (bump, WRITE_P)], workers=workers)
            sums.append(sim.state_checksum())
        assert len(pools) == 6 and pools[0] is not None
        assert all(pool is pools[0] for pool in pools)
        assert sums[1] == sums[0]

    def test_a_commit_a_dead_run_worker_cannot_take_ends_the_pool(self):
        """Worker 2 of a three-worker run dies between transitions. The
        commit of a one-off two-worker transition applied by a program
        callable then fails to reach it: the error names it, nothing is
        staged, the run's pool is ended and the run goes on."""
        errors = []

        def kill_and_commit(sim):
            if sim._pool is not None:
                sim._pool.procs[1].kill()
                sim._pool.procs[1].join()
                with pytest.raises(WorkerError) as info:
                    apply_transition(sim, bump, WRITE_P, workers=2)
                errors.append(info.value)
                assert sim._staged is None and sim._pool is None
            else:
                apply_transition(sim, bump, WRITE_P, workers=2)
                finalize_step(sim)

        sim = plain_sim(9)
        with deadline(30):
            run(sim, 3, [(bump, WRITE_P), kill_and_commit, (bump, WRITE_P)], workers=3)
        assert [(e.worker, e.exitcode) for e in errors] == [(2, -signal.SIGKILL)]
        assert sim.step == 8
        assert sim._pool is None

    def test_error_in_a_program_callable_ends_the_pool(self):
        def broken(sim):
            raise LookupError("callable failure")

        sim = plain_sim(8)
        with pytest.raises(LookupError):
            run(sim, 2, [(bump, WRITE_P), broken], workers=3)
        assert mp.active_children() == []
        assert sim._staged is None


# The per-step oracle: births, deaths, a kept edge type and a global set
# between transitions, at several worker counts and strategies. Every fifth
# agent gives births every other step, on whichever worker runs it.

LIVE = TransitionSpec(callable_types=("Cell",), read_types=("Cell", "Trail"),
                      write_types=("Cell", "Trail"), keep_existing=("Trail",))
FEED = TransitionSpec(callable_types=("Cell",), read_types=("Trail",),
                      write_types=("Cell",), batch=True)


def live(view, params, g):
    energy = int(view.field("energy")) + g.bonus - view.num_edges("Trail")
    energy += int(view.rng.integers(-1, 3))
    if view.agent_id % 5 == 0 and view.step % 4 == 0:  # every other program step
        for _ in range(2):
            view.add_agent("Cell", 4)
        energy = max(energy, 50)
    elif energy < 0:
        return None
    sources = view.sources("Trail")
    target = int(sources[view.rng.integers(sources.size)]) if sources.size else 0
    view.add_edge("Trail", target, (view.step,))
    return (energy,)


def feed(batch, params, g):
    return (batch.field("energy") + batch.count("Trail") % 3,)


def set_bonus(sim):
    sim.set_global("bonus", sim.n_alive("Cell") % 4)


def cell_sim(n=24):
    schema = Schema()
    schema.register_agent_type(AgentTypeDecl("Cell", (("energy", "int64"),)))
    schema.register_edge_type(EdgeTypeDecl("Trail", (("step", "int64"),)))
    sim = Simulation(schema, seed=5)
    ids = sim.add_agents("Cell", n, {"energy": np.arange(n) % 7})
    sim.add_edges("Trail", ids, np.roll(ids, 1), [(0,)] * n)
    sim.set_global("bonus", 0)
    return sim


def cell_checksums(workers, strategy="contiguous", steps=5):
    sim = cell_sim()
    sums, alive = [], []

    def on_step(s):
        sums.append(s.state_checksum())
        alive.append(s.n_alive("Cell"))

    run(sim, steps, [(live, LIVE), set_bonus, (feed, FEED)],
        workers=workers, strategy=strategy, on_step=on_step)
    assert mp.active_children() == []
    return sums, alive


class TestPoolOracle:
    def test_types_declared_with_a_local_enum_reach_the_workers(self):
        class Kind(enum.IntEnum):
            OFF = 0
            ON = 1

        def build():
            schema = Schema()
            schema.register_agent_type(AgentTypeDecl("K", (("k", Kind),), immortal=True))
            schema.register_edge_type(EdgeTypeDecl("Flag", (("k", Kind),)))
            sim = Simulation(schema)
            sim.add_agents("K", 6, {"k": np.zeros(6, dtype=np.int64)})
            return sim

        def flip(view, params, g):
            view.add_edge("Flag", view.agent_id, (1 - view.num_edges("Flag") % 2,))
            return (view.num_edges("Flag"),)

        spec = TransitionSpec(callable_types=("K",), read_types=("Flag",),
                              write_types=("K", "Flag"), keep_existing=("Flag",))
        sums = []
        for workers in (1, 2):
            sim = build()
            run(sim, 3, [(flip, spec)], workers=workers)
            sums.append(sim.state_checksum())
        assert sums[0] == sums[1]

    def test_the_program_gives_births_and_deaths(self):
        _, alive = cell_checksums(1)
        assert len(set(alive)) > 1
        assert any(b < a for a, b in zip(alive, alive[1:]))

    @pytest.mark.parametrize("strategy", ["contiguous", "round_robin"])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_every_step_equals_one_worker(self, workers, strategy):
        expected, _ = cell_checksums(1)
        got, _ = cell_checksums(workers, strategy)
        assert got == expected

    @pytest.mark.parametrize("workers", [2, 4])
    def test_a_commit_made_on_the_control_reaches_the_workers(self, workers):
        """A program callable applies and commits a transition on the
        control alone, with births, deaths and a kept edge type; the next
        transition on the pool reads its result on every worker."""
        def live_on_control(sim):
            apply_transition(sim, live, LIVE)
            finalize_step(sim)

        sums, alive = [], []
        for w in (1, workers):
            sim = cell_sim()
            steps = []
            run(sim, 3, [live_on_control, set_bonus, (feed, FEED)], workers=w,
                on_step=lambda s: steps.append(s.state_checksum()))
            sums.append(steps)
            alive.append(sim.n_alive("Cell"))
        assert sums[1] == sums[0]
        assert alive[0] == alive[1] != 24

    @pytest.mark.parametrize("workers", [2, 4])
    def test_every_process_merges_the_payloads_in_worker_order(
            self, workers, tmp_path, monkeypatch):
        log = tmp_path / "merges"
        merge = engine._merge_and_stage

        def spy(sim, rt, payloads):
            # contiguous: worker w owns slots 2w and 2w + 1; each re-adds
            # both, changed, and none dies
            deltas = [p["agents"][0] for p in payloads]
            assert [(n, dead.size, slots.size) for slots, _states, dead, n in deltas] == [
                (2, 0, 2)] * workers
            owners = [int(slots[0]) // 2 for slots, _states, _dead, _n in deltas]
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {owners}\n")
            merge(sim, rt, payloads)

        monkeypatch.setattr(engine, "_merge_and_stage", spy)
        sim = plain_sim(2 * workers)
        run(sim, 2, [(bump, WRITE_P)], workers=workers)
        lines = [line.split(" ", 1) for line in log.read_text().splitlines()]
        assert len({pid for pid, _ in lines}) == workers
        assert len(lines) == 2 * workers
        assert {owners for _, owners in lines} == {str(list(range(workers)))}

    def test_the_exchange_ships_arrays_builtins_and_records_only(self, monkeypatch):
        """Every message between the control and a worker, run requests,
        payloads both ways, payloads whose chunk list is a marker for the
        worker's kept one and a commit made on the control alone, holds
        numpy arrays, builtins and chunk records: no write shard, contract
        report, schema record or function."""
        records = {("graphabm.storage", "Chunk")}

        class PlainUnpickler(pickle.Unpickler):
            def find_class(self, module, name):
                if module.split(".")[0] not in ("numpy", "builtins") and (
                        (module, name) not in records):
                    raise pickle.UnpicklingError(f"{module}.{name} crossed a pipe")
                return super().find_class(module, name)

        plain = (np.ndarray, np.generic, int, float, str, bytes, type(None), Chunk)

        def walk(obj):
            assert isinstance(obj, plain + (tuple, list, dict)), type(obj)
            if isinstance(obj, np.ndarray):
                assert obj.dtype != object
            elif isinstance(obj, dict):
                for item in obj.items():
                    walk(item)
            elif isinstance(obj, (tuple, list)):
                for item in obj:
                    walk(item)

        blobs = []
        send_bytes, recv_bytes = Connection.send_bytes, Connection.recv_bytes

        def recording_send(conn, buf, *args):
            blobs.append(bytes(buf))
            return send_bytes(conn, buf, *args)

        def recording_recv(conn, *args):
            blob = recv_bytes(conn, *args)
            blobs.append(blob)
            return blob

        def feed_on_control(sim):
            apply_transition(sim, feed, FEED)
            finalize_step(sim)

        monkeypatch.setattr(Connection, "send_bytes", recording_send)
        monkeypatch.setattr(Connection, "recv_bytes", recording_recv)
        sim = cell_sim()
        run(sim, 2, [(live, LIVE), set_bonus, (feed, FEED), feed_on_control], workers=2)
        kinds = []
        for blob in blobs:
            message = PlainUnpickler(io.BytesIO(blob)).load()
            walk(message)
            kinds.append(message[0])
            if message[0] == "run":  # the control's checks setting, as its name
                assert type(message[-1]) is str and message[-1] == sim.checks
        # per step and pool transition a run request, a payload each way; and a commit
        assert sorted(kinds) == sorted(["run", "ok", "ok"] * 4 + ["commit"] * 2)

        # an epidemic re-emits its Visit edges (tag 0) on day 2: both payloads
        # of that exchange carry the marker, None, in place of the chunk list
        blobs.clear()
        model = build_epi(EpiConfig(persons=60, locations=6, theta=0.5, seed=2))
        run(model.sim, 2, day_program(model), workers=2)
        messages = [PlainUnpickler(io.BytesIO(blob)).load() for blob in blobs]
        for message in messages:
            walk(message)
        visits = [m[1]["edges"][0] for m in messages if m[0] == "ok" and 0 in m[1]["edges"]]
        assert len(visits) == 4 and visits[2:] == [None, None]
        assert all(isinstance(chunks, list) and all(isinstance(c, Chunk) for c in chunks)
                   for chunks in visits[:2])
