"""Batch (array-at-a-time) transitions.

The batch forms of HK and of the epidemic must give the same state
checksum as their per-agent oracles for every topology or infection
probability, storage plan, worker count, partition strategy, execution
order and chunking; batch reads, edge writes and random draws must equal
their per-agent counterparts; batch specs must keep the engine's contract
checks.
"""

from __future__ import annotations

import gc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphabm import (
    AgentTypeDecl,
    EdgeTypeDecl,
    Hint,
    HintViolation,
    Schema,
    Simulation,
    TransitionSpec,
    TypeNotReadable,
    TypeNotWritable,
    UnknownName,
    UsageError,
    apply_transition,
    engine,
    finalize_step,
    local_index,
    partition_graph,
    run,
    type_tag,
)
from graphabm.models.hk import (
    HK_AGENT_SPEC,
    HK_SPEC,
    HKConfig,
    build_hk,
    hk_agent_transition,
    hk_transition,
)
from graphabm.models.episim import (
    EpiConfig,
    build_epi,
    day_program,
    day_program_agents,
    random_schedule,
)
from graphabm.models.topology import Cliques, Complete, Regular
from graphabm.storage import ListEdgeRead
from graphabm.view import AgentBatch

from edge_reads import edge_read

TOPOLOGIES = {
    "ring": (Regular(10), 300),
    "complete": (Complete(), 120),
    "cliques": (Cliques(6, 20), None),
}
STEPS = 3


def hk_checksum(topology, hints, fn, spec, workers=1, strategy="contiguous"):
    topo, n = TOPOLOGIES[topology]
    sim = build_hk(HKConfig(n=n or topo.size(), epsilon=0.2, topology=topo,
                            seed=11, hints=hints))
    run(sim, STEPS, [(fn, spec)], workers=workers, strategy=strategy)
    return sim.state_checksum()


def oracle_checksum(topology, hints):
    return hk_checksum(topology, hints, hk_agent_transition, HK_AGENT_SPEC)


class TestHKOracle:
    @pytest.mark.parametrize("hints", [True, False])
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_batch_equals_per_agent_at_every_worker_count(self, topology, hints):
        expected = oracle_checksum(topology, hints)
        for workers in (1, 2, 4):
            for strategy in ("contiguous", "round_robin", "greedy_edge_cut"):
                got = hk_checksum(topology, hints, hk_transition, HK_SPEC,
                                  workers, strategy)
                assert got == expected, (workers, strategy)
            got = hk_checksum(topology, hints, hk_agent_transition,
                              HK_AGENT_SPEC, workers)
            assert got == expected, ("per-agent", workers)

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_shuffled_batch_equals_oracle(self, topology):
        """Shuffled, every agent runs as a batch of its own."""
        calls = []

        def counted(batch, params, glob):
            calls.append(batch.slots.size)
            return hk_transition(batch, params, glob)

        topo, n = TOPOLOGIES[topology]
        cfg = HKConfig(n=n or topo.size(), epsilon=0.2, topology=topo, seed=11)
        base = build_hk(cfg)
        apply_transition(base, hk_agent_transition, HK_AGENT_SPEC)
        finalize_step(base)
        for trial in range(3):
            sim = build_hk(cfg)
            apply_transition(sim, counted, HK_SPEC,
                             shuffle=np.random.default_rng(trial))
            finalize_step(sim)
            assert sim.state_checksum() == base.state_checksum()
        assert calls == [1] * (3 * base.n_alive("Person"))

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_one_agent_per_chunk_equals_oracle(self, topology, monkeypatch):
        calls = []

        def counted(batch, params, glob):
            calls.append(batch.slots.size)
            return hk_transition(batch, params, glob)

        monkeypatch.setattr(engine, "BATCH_EDGE_LIMIT", 1)
        got = hk_checksum(topology, True, counted, HK_SPEC)
        assert got == oracle_checksum(topology, True)
        assert set(calls) == {1}

    def test_default_chunks_hold_many_agents(self):
        calls = []

        def counted(batch, params, glob):
            calls.append(batch.slots.size)
            return hk_transition(batch, params, glob)

        hk_checksum("ring", True, counted, HK_SPEC)
        # 300 agents of 11 incoming edges fit one chunk
        assert calls == [300] * STEPS


class TestChunks:
    def test_chunks_hold_whole_agents_under_the_limit(self):
        edges = np.array([3, 0, 5, 2, 9, 1, 1, 4], dtype=np.int64)
        slots = np.arange(edges.size)
        chunks = list(engine._chunks(slots, edges, 6))
        assert np.array_equal(np.concatenate(chunks), slots)
        for chunk in chunks:
            assert edges[chunk].sum() <= 6 or chunk.size == 1
        assert [c.tolist() for c in chunks] == [[0, 1], [2], [3], [4], [5, 6, 7]]

    def test_agents_without_edges_share_one_chunk(self):
        slots = np.arange(5)
        chunks = list(engine._chunks(slots, np.zeros(5, dtype=np.int64), 1))
        assert [c.tolist() for c in chunks] == [[0, 1, 2, 3, 4]]


def chunked_plan(lists, tag, slots, limit):
    """A task's plan as ``_chunks`` splits it, whatever its edge total."""
    bounds = [(name, *c.bounds(tag, engine._task_span(slots)), c) for name, c in lists]
    edges = np.zeros(slots.size, dtype=np.int64)
    for _name, starts, ends, _c in bounds:
        edges += ends - starts
    planned, lo = [], 0
    for chunk in engine._chunks(slots, edges, limit):
        hi = lo + chunk.size
        planned.append((lo, hi, {name: c.runs(starts[lo:hi], ends[lo:hi])
                                 for name, starts, ends, c in bounds}))
        lo = hi
    return planned


def plain_plan(planned):
    def plain_runs(pos, indptr):
        pos = (pos.start, pos.stop) if isinstance(pos, slice) else (pos.dtype.str, pos.tolist())
        return pos, indptr.dtype.str, indptr.tolist()

    return [(lo, hi, {name: plain_runs(*runs) for name, runs in by_name.items()})
            for lo, hi, by_name in planned]


class TestOneChunkPlan:
    """A task of at most the limit's edges is planned as one chunk without
    ``_chunks``; the plan must be the one ``_chunks`` gives."""

    @given(counts=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)),
                           min_size=1, max_size=16),
           pick=st.lists(st.booleans(), min_size=16, max_size=16),
           case=st.sampled_from(["total below", "total at", "total above",
                                 "agent above", "no edges"]))
    @settings(max_examples=150, deadline=None)
    def test_one_chunk_plan_equals_the_chunked_one(self, counts, pick, case):
        """``counts`` holds each agent's E and F edges, ``pick`` which
        agents the task holds (all of them, in a run, when it picks none).
        The limit is the task's edge total + 1, the total or the total - 1,
        or one less than the most edges one agent has."""
        if case == "no edges":
            counts = [(0, 0)] * len(counts)
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("T", (("x", "int64"),), immortal=True))
        schema.register_edge_type(EdgeTypeDecl("E", hints=Hint.STATELESS))
        schema.register_edge_type(EdgeTypeDecl("F", (("w", "int64"),)))
        sim = Simulation(schema)
        ids = sim.add_agents("T", len(counts), {"x": np.zeros(len(counts), dtype=np.int64)})
        for k, name in enumerate(("E", "F")):
            targets = ids[np.repeat(np.arange(len(counts)), [c[k] for c in counts])]
            states = None if name == "E" else [(w,) for w in range(targets.size)]
            sim.add_edges(name, targets, ids[::-1][np.arange(targets.size) % ids.size], states)
        sim.commit_initial()
        lists = [(name, sim.edge_container(name)) for name in ("E", "F")]
        slots = np.flatnonzero(pick[:len(counts)])
        if not slots.size:
            slots = np.arange(len(counts))
        per_agent = np.array([sum(counts[s]) for s in slots.tolist()])
        total = int(per_agent.sum())
        limit = {"total below": total + 1, "total at": total, "total above": total - 1,
                 "agent above": int(per_agent.max()) - 1, "no edges": 1}[case]
        assume(limit >= 1)
        tag = type_tag(int(ids[0]))
        with mock.patch.object(engine, "_chunks", wraps=engine._chunks) as chunks:
            got = engine._plan_task(lists, tag, slots, limit)
        assert chunks.called == (total > limit)
        assert plain_plan(got) == plain_plan(chunked_plan(lists, tag, slots, limit))
        if total <= limit:
            assert [(lo, hi) for lo, hi, _runs in got] == [(0, slots.size)]


def small_sim(hints=Hint.STATELESS, with_edges=True):
    schema = Schema()
    schema.register_agent_type(
        AgentTypeDecl("P", (("x", "float64"), ("k", "int64")), immortal=True)
    )
    schema.register_agent_type(AgentTypeDecl("Q", (("y", "float64"),)))
    schema.register_edge_type(EdgeTypeDecl("E", hints=hints))
    schema.register_edge_type(EdgeTypeDecl("F"))
    sim = Simulation(schema, seed=0)
    ids = sim.add_agents("P", 4, {"x": np.arange(4.0), "k": np.arange(4)})
    if with_edges:
        # 0 <- 1, 2; 2 <- 0; 3 <- 3
        sim.add_edges("E", ids[[0, 0, 2, 3]], ids[[1, 2, 0, 3]])
    sim.commit_initial()
    return sim, ids


def batch_spec(**kw):
    kw.setdefault("callable_types", ("P",))
    kw.setdefault("read_types", ("E", "P"))
    kw.setdefault("write_types", ("P",))
    return TransitionSpec(batch=True, **kw)


def identity(batch, params, glob):
    return batch.field("x"), batch.field("k")


class TestBatchContract:
    def test_neighbor_field_is_csr_of_view_values(self):
        sim, ids = small_sim()
        seen = {}

        def record(batch, params, glob):
            values, indptr = batch.neighbor_field("E", "x")
            for i, aid in enumerate(batch.ids.tolist()):
                seen[aid] = values[indptr[i]:indptr[i + 1]].tolist()
            return identity(batch, params, glob)

        apply_transition(sim, record, batch_spec())
        finalize_step(sim)
        assert seen == {int(ids[0]): [1.0, 2.0], int(ids[1]): [],
                        int(ids[2]): [0.0], int(ids[3]): [3.0]}

    def test_returned_columns_are_cast_to_declared_dtypes(self):
        sim, ids = small_sim()

        def halve(batch, params, glob):
            return batch.field("x") / 2, batch.field("k").astype(np.float64) + 0.5

        apply_transition(sim, halve, batch_spec())
        finalize_step(sim)
        assert sim.field_array("P", "x").tolist() == [0.0, 0.5, 1.0, 1.5]
        k = sim.field_array("P", "k")
        assert k.dtype == np.int64 and k.tolist() == [0, 1, 2, 3]

    def test_states_returned_for_a_retained_type_are_rejected(self):
        """A batch re-adds every agent of a type it writes, so it cannot
        write a callable type under keep_existing."""
        sim, _ids = small_sim()
        with pytest.raises(UsageError, match="retained"):
            apply_transition(sim, identity,
                             batch_spec(write_types=("P",), keep_existing=("P",)))
        assert sim._staged is None

    @pytest.mark.parametrize("batch", [False, True], ids=["per-agent", "batch"])
    def test_spec_writing_another_agent_type_is_accepted(self, batch):
        """Either form writes an agent type it does not call, and creates
        agents of it with edges to them (see ``test_births`` for the
        oracle of both forms)."""
        def spawn_agent(view, params, glob):
            if view.field("k") % 2:
                view.add_edge("F", view.add_agent("Q", view.field("x")))
            return view.state

        def spawn_batch(b, params, glob):
            odd = np.flatnonzero(b.field("k") % 2)
            b.add_edges("F", b.add_agents("Q", [b.field("x")[odd]], agents=odd), agents=odd)
            return identity(b, params, glob)

        sim, ids = small_sim()
        apply_transition(sim, spawn_batch if batch else spawn_agent,
                         TransitionSpec(callable_types=("P",), write_types=("P", "Q", "F"),
                                        batch=batch))
        finalize_step(sim)
        assert sim.field_array("Q", "y").tolist() == [1.0, 3.0]
        sources = sim.edge_container("F").sources_at(type_tag(sim.agent_ids("Q")[0]), 1)
        assert sources.tolist() == [int(ids[3])]

    @pytest.mark.parametrize("write_types, fn", [
        (("P", "E"), identity),
        ((), lambda b, p, g: None),
    ], ids=["edge-type", "nothing"])
    def test_spec_writing_edges_or_nothing_is_accepted(self, write_types, fn):
        sim, _ids = small_sim()
        before = sim.field_array("P", "x").tolist()
        apply_transition(sim, fn, batch_spec(write_types=write_types))
        finalize_step(sim)
        assert sim.field_array("P", "x").tolist() == before
        # a written edge type is rebuilt from this step's edges: none here
        assert sim.edge_container("E").n_stored() == (0 if "E" in write_types else 4)

    def test_states_for_an_unwritten_callable_type_raise(self):
        sim, _ids = small_sim()
        with pytest.raises(TypeNotWritable):
            apply_transition(sim, identity, batch_spec(write_types=()))
        assert sim._staged is None

    @pytest.mark.parametrize("fn", [
        lambda b, p, g: (b.field("x")[:-1], b.field("k")[:-1]),
        lambda b, p, g: (b.field("x"), np.int64(1)),
        lambda b, p, g: (b.field("x"),),
        lambda b, p, g: (b.field("x"), b.field("k"), b.field("k")),
        lambda b, p, g: None,
    ], ids=["short-arrays", "scalar", "too-few-fields", "too-many-fields", "none"])
    def test_wrong_columns_raise_usage_error(self, fn):
        sim, _ids = small_sim()
        with pytest.raises(UsageError):
            apply_transition(sim, fn, batch_spec())
        assert sim._staged is None

    def test_read_outside_read_set_raises(self):
        sim, _ids = small_sim()
        with pytest.raises(TypeNotReadable):
            apply_transition(
                sim, lambda b, p, g: b.neighbor_field("F", "x"),
                batch_spec(read_types=("E", "P")),
            )
        with pytest.raises(TypeNotReadable):
            apply_transition(
                sim, lambda b, p, g: b.neighbor_field("E", "x"),
                batch_spec(read_types=("E",)),
            )

    def test_hint_and_name_checks(self):
        sim, _ids = small_sim(hints=Hint.IGNORE_SOURCE_STATE)
        with pytest.raises(HintViolation):
            apply_transition(sim, lambda b, p, g: b.neighbor_field("E", "x"),
                             batch_spec())
        sim, _ids = small_sim()
        with pytest.raises(UnknownName):
            apply_transition(sim, lambda b, p, g: b.neighbor_field("E", "nope"),
                             batch_spec())
        sim, _ids = small_sim()
        with pytest.raises(UnknownName):
            apply_transition(sim, lambda b, p, g: b.field("nope"), batch_spec())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_single_full_edge_gather_equals_view(self, workers):
        """A SINGLE_FULL_EDGE type's batch gather gives every agent the
        values and count the per-agent gather gives it."""

        def agent_form(view, params, glob):
            values = view.neighbor_field("E", "x")
            return (values[0] if values.size else -1.0), values.size

        def batch_form(batch, params, glob):
            values, indptr = batch.neighbor_field("E", "x")
            counts = np.diff(indptr)
            first = np.full(counts.size, -1.0)
            first[counts > 0] = values[indptr[:-1][counts > 0]]
            return first, counts

        got = []
        for fn, batch in ((agent_form, False), (batch_form, True)):
            schema = Schema()
            schema.register_agent_type(
                AgentTypeDecl("P", (("x", "float64"), ("k", "int64")), immortal=True)
            )
            schema.register_edge_type(EdgeTypeDecl("E", hints=Hint.SINGLE_EDGE))
            sim = Simulation(schema, seed=0)
            ids = sim.add_agents("P", 6, {"x": np.arange(6.0) + 0.5, "k": np.zeros(6)})
            # 0 <- 1, 2 <- 0, 3 <- 3, 5 <- 4; agents 1 and 4 have no edge
            sim.add_edges("E", ids[[0, 2, 3, 5]], ids[[1, 0, 3, 4]])
            spec = TransitionSpec(callable_types=("P",), read_types=("E", "P"),
                                  write_types=("P",), batch=batch)
            run(sim, 2, [(fn, spec)], workers=workers)
            got.append((sim.field_array("P", "x").tolist(),
                        sim.field_array("P", "k").tolist(), sim.state_checksum()))
        assert got[0] == got[1]
        assert got[1][1] == [1, 0, 1, 1, 0, 1]

    def test_agent_without_edges_raises_as_in_per_agent_form(self):
        errors = []
        for fn, spec in ((hk_agent_transition, HK_AGENT_SPEC),
                         (hk_transition, HK_SPEC)):
            schema = Schema()
            schema.register_agent_type(
                AgentTypeDecl("Person", (("opinion", "float64"),), immortal=True)
            )
            schema.register_edge_type(EdgeTypeDecl("Sees", hints=Hint.STATELESS))
            sim = Simulation(schema, params={"epsilon": 0.2})
            ids = sim.add_agents("Person", 3, {"opinion": np.array([0.1, 0.2, 0.3])})
            sim.add_edges("Sees", ids[[0, 2]], ids[[0, 2]])  # agent 1 sees nothing
            with pytest.raises(ValueError) as info:
                run(sim, 1, [(fn, spec)])
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert f"{int(ids[1]):#x}" in errors[0]


EPI_PERSONS, EPI_LOCATIONS, EPI_DAYS = 240, 10, 4
EPI_SCHEDULE = random_schedule(EPI_PERSONS, EPI_LOCATIONS,
                               np.random.default_rng(4), visits_per_person=3)


def epi_checksum(program, theta, hints, workers=1, shuffle=None):
    model = build_epi(EpiConfig(
        persons=EPI_PERSONS, locations=EPI_LOCATIONS, theta=theta, seed=3,
        schedule=EPI_SCHEDULE, initial_infected=(0, 7, 11), hints=hints,
    ))
    if shuffle is None:
        run(model.sim, EPI_DAYS, program(model), workers=workers)
    else:
        for _day in range(EPI_DAYS):
            for fn, spec in program(model):
                apply_transition(model.sim, fn, spec, shuffle=shuffle)
                finalize_step(model.sim)
    return model.sim.state_checksum()


class TestEpidemicOracle:
    @pytest.mark.parametrize("hints", [True, False])
    @pytest.mark.parametrize("theta", [0.0, 0.35, 1.0])
    def test_batch_day_equals_per_agent_day(self, theta, hints, monkeypatch):
        expected = epi_checksum(day_program_agents, theta, hints)
        for workers in (1, 2, 4):
            assert epi_checksum(day_program, theta, hints, workers) == expected, workers
            got = epi_checksum(day_program_agents, theta, hints, workers)
            assert got == expected, ("per-agent", workers)
        rng = np.random.default_rng(5)
        assert epi_checksum(day_program, theta, hints, shuffle=rng) == expected
        assert epi_checksum(day_program_agents, theta, hints, shuffle=rng) == expected
        monkeypatch.setattr(engine, "BATCH_EDGE_LIMIT", 1)
        assert epi_checksum(day_program, theta, hints) == expected

    def test_intermediate_theta_infects_some_but_not_all(self):
        """The oracle at theta = 0.35 compares runs that draw and infect."""
        counts = []
        for theta in (0.35, 1.0):
            model = build_epi(EpiConfig(
                persons=EPI_PERSONS, locations=EPI_LOCATIONS, theta=theta,
                seed=3, schedule=EPI_SCHEDULE, initial_infected=(0, 7, 11),
            ))
            run(model.sim, EPI_DAYS, day_program(model))
            counts.append(int(np.count_nonzero(model.sim.field_array("Person", "status"))))
        assert 3 < counts[0] < counts[1]


def emit_schedule() -> tuple:
    """48 persons at 6 locations. The first and the last person of every
    block of a 2- or 4-worker contiguous partition has no visit, and every
    third person visits one location twice."""
    rng = np.random.default_rng(9)
    rows = []
    for p in range(48):
        if p % 12 in (0, 11):
            continue
        for _ in range(int(rng.integers(1, 4))):
            start = int(rng.integers(0, 600))
            rows.append((p, int(rng.integers(0, 6)), start, start + int(rng.integers(30, 240))))
        if p % 3 == 0:
            _p, loc, start, _end = rows[-1]
            rows.append((p, loc, start + 100, start + 300))
    return tuple(rows)


EMIT_SCHEDULE = emit_schedule()


def emit_model():
    return build_epi(EpiConfig(persons=48, locations=6, theta=0.1, seed=2,
                               schedule=EMIT_SCHEDULE, initial_infected=(1, 30)))


def emit_run(program, workers=1, strategy="contiguous", shuffle=None, days=4):
    """(state checksum, merges reused per day) of ``days`` days."""
    model = emit_model()
    sim, day = model.sim, program(model)
    if shuffle is None:
        run(sim, days, day, workers=workers, strategy=strategy)
        return sim.state_checksum(), [m["merges_reused"] for m in sim.step_metrics]
    partition = partition_graph(sim, workers, strategy) if workers > 1 else None
    reused = []
    for _day in range(days):
        reused.append(0)
        for fn, spec in day:
            apply_transition(sim, fn, spec, workers=workers, partition=partition,
                             shuffle=shuffle)
            reused[-1] += sim._staged.reused
            finalize_step(sim)
    return sim.state_checksum(), reused


class TestEmitPaths:
    """``emit_visits`` slices the schedule for a chunk of consecutive
    persons and gathers it per person otherwise; either way the day equals
    the per-agent one."""

    def test_schedule_has_empty_block_ends_and_repeat_visits(self):
        persons = {row[0] for row in EMIT_SCHEDULE}
        assert not persons & {0, 11, 12, 23, 24, 35, 36, 47}
        pairs = [row[:2] for row in EMIT_SCHEDULE]
        assert len(set(pairs)) < len(pairs)
        model = emit_model()
        run(model.sim, 4, day_program(model))
        assert np.count_nonzero(model.sim.field_array("Person", "status")) == 24
        assert [m["merges_reused"] for m in model.sim.step_metrics] == [0, 1, 1, 1]

    @pytest.mark.parametrize("strategy", ["contiguous", "round_robin", "greedy_edge_cut"])
    def test_both_paths_equal_the_per_agent_day(self, strategy):
        expected = emit_run(day_program_agents)
        for workers in (1, 2, 4):
            got = emit_run(day_program, workers, strategy)
            assert got == emit_run(day_program_agents, workers, strategy), workers
            assert got[0] == expected[0], workers
        for workers in (1, 2):
            got = [emit_run(program, workers, strategy, np.random.default_rng(3))
                   for program in (day_program, day_program_agents)]
            assert got[0] == got[1], ("shuffled", workers)
            assert got[0][0] == expected[0], ("shuffled", workers)

    @pytest.mark.parametrize("strategy, sliced", [("contiguous", True), ("round_robin", False)])
    def test_the_slice_path_runs_for_consecutive_persons(self, strategy, sliced, monkeypatch):
        """At two workers the control runs worker 0's persons: under
        ``contiguous`` persons 0-23, whose Visit targets are a view of the
        schedule, under ``round_robin`` the even persons, gathered."""
        model = emit_model()
        seen = []
        add_edges = AgentBatch.add_edges

        def spy(batch, edge_type, targets, **kw):
            if edge_type == "Visit":
                seen.append(np.shares_memory(targets, model.visit_location))
            return add_edges(batch, edge_type, targets, **kw)

        monkeypatch.setattr(AgentBatch, "add_edges", spy)
        run(model.sim, 2, day_program(model), workers=2, strategy=strategy)
        assert seen == [sliced] * 2


def typed_sim(n_types=1, seed=0, checks="on", edge=None):
    """``n_types`` agent types T0.. of 12 agents each; edge types ``E``
    (one int64 state field) and, if given, ``edge``."""
    schema = Schema()
    for t in range(n_types):
        schema.register_agent_type(AgentTypeDecl(f"T{t}", (("x", "int64"),), immortal=True))
    schema.register_edge_type(EdgeTypeDecl("E", (("w", "int64"),)))
    if edge is not None:
        schema.register_edge_type(edge)
    sim = Simulation(schema, seed=seed, checks=checks)
    ids = [sim.add_agents(f"T{t}", 12, {"x": np.arange(12)}) for t in range(n_types)]
    sim.commit_initial()
    return sim, ids


class TestRandom:
    def test_draws_equal_numpy_philox_for_random_keys(self):
        from graphabm.philox import agent_draws

        rng = np.random.default_rng(2024)
        for _case in range(200):
            seed = int(rng.integers(0, 2**63)) * int(rng.integers(1, 3))
            step = int(rng.integers(0, 10_000))
            ids = rng.integers(0, 2**63, int(rng.integers(1, 6)), dtype=np.uint64)
            ids[rng.random(ids.size) < 0.5] |= np.uint64(1 << 63)
            counts = rng.integers(0, 11, ids.size)
            expected = []
            for aid, count in zip(ids.tolist(), counts.tolist()):
                g = np.random.Generator(np.random.Philox(
                    counter=[step, 0, 0, 0], key=np.array([seed, aid], dtype=np.uint64)
                ))
                expected += [g.random() for _ in range(count)]
            got = agent_draws(seed, step, ids, counts)
            assert got.dtype == np.float64
            assert got.tobytes() == np.array(expected, dtype=np.float64).tobytes()

    @pytest.mark.parametrize("slice_blocks", [1, 3, 4096])
    @pytest.mark.parametrize("seed", [2**64 - 1, 2**64 - 0x9E3779B97F4A7C15 * 3 // 2, 7])
    def test_draws_across_slices_equal_numpy_philox(self, seed, slice_blocks, monkeypatch):
        """Blocks are drawn a slice at a time, a slice boundary falling
        inside an agent's blocks and between two agents'; near 2**64 the
        seed's key word wraps within the ten rounds."""
        from graphabm import philox

        monkeypatch.setattr(philox, "_SLICE", slice_blocks)
        ids = np.array([5, 2**63 + 1, 0, 77], dtype=np.uint64)
        counts = np.array([4 * 2000 + 3, 0, 4 * 2097 + 2, 9])  # 4,100 blocks
        assert int(((counts + 3) // 4).sum()) > 4096
        expected = [np.random.Generator(np.random.Philox(
            counter=[11, 0, 0, 0], key=np.array([seed, aid], dtype=np.uint64))).random(count)
            for aid, count in zip(ids.tolist(), counts.tolist())]
        got = philox.agent_draws(seed, 11, ids, counts)
        assert got.tobytes() == np.concatenate(expected).tobytes()

    @pytest.mark.parametrize("seed", [0, 987654321, 2**63 + 5])
    def test_batch_random_equals_view_rng(self, seed):
        # 130 agent types: the last has tag 129, so its ids are >= 2**63
        _sim, ids = typed_sim(n_types=130, seed=seed)
        assert int(ids[-1][0]) >= 2**63
        callable_types = ("T0", "T129")
        counts_of = {int(a): (int(a) * 7 + 3) % 11 for block in (ids[0], ids[-1]) for a in block}
        assert {0, 4, 5, 8, 9} <= set(counts_of.values())  # empty and block-crossing
        per_agent, batched = {}, {}

        def agent_form(view, params, glob):
            per_agent[(view.step, view.agent_id)] = [
                view.rng.random() for _ in range(counts_of[view.agent_id])
            ]

        def batch_form(batch, params, glob):
            counts = np.array([counts_of[a] for a in batch.ids.tolist()])
            draws = batch.random(counts)
            ends = np.cumsum(counts)
            for aid, end, count in zip(batch.ids.tolist(), ends, counts):
                batched[(batch._sim.step, aid)] = draws[end - count:end].tolist()

        for fn, batch in ((agent_form, False), (batch_form, True)):
            sim, _ids = typed_sim(n_types=130, seed=seed)
            spec = TransitionSpec(callable_types=callable_types, batch=batch)
            for _step in range(2):
                apply_transition(sim, fn, spec)
                finalize_step(sim)
        assert len(per_agent) == 48 and batched == per_agent
        steps = {step for step, _aid in per_agent}
        assert len(steps) == 2

    def test_streams_of_adjacent_high_ids_differ(self):
        sim, ids = typed_sim(n_types=130)
        first = {}

        def agent_form(view, params, glob):
            first[view.agent_id] = view.rng.random()

        apply_transition(sim, agent_form, TransitionSpec(callable_types=("T129",)))
        assert len(set(first.values())) == 12

    @pytest.mark.parametrize("counts", [[1, 2], [-1] * 12, [0.5] * 12])
    def test_bad_counts_raise_usage_error(self, counts):
        sim, _ids = typed_sim()
        with pytest.raises(UsageError):
            apply_transition(sim, lambda b, p, g: b.random(np.array(counts)),
                             TransitionSpec(callable_types=("T0",), batch=True))
        assert sim._staged is None


def write_spec(edge="E", batch=True, reads=()):
    return TransitionSpec(callable_types=("T0",), read_types=reads,
                          write_types=(edge,), batch=batch)


class TestBatchEdgeWrites:
    def emit_pairs(self, batch, params, glob):
        """Agent at slot s adds edges to slots s + 1 and s + 2 (mod 12),
        with states 10 * s + k, in that order."""
        n = batch.slots.size
        agents = np.repeat(np.arange(n), 2)
        slots = batch.slots[agents] + np.tile([1, 2], n)
        targets = (batch.ids[agents] - batch.slots[agents].astype(np.uint64)
                   + (slots % 12).astype(np.uint64))
        batch.add_edges("E", targets, agents=agents,
                        states=(10 * batch.slots[agents] + np.tile([0, 1], n),))

    @staticmethod
    def emit_pairs_agent(view, params, glob):
        base = view.agent_id - local_index(view.agent_id)
        s = view.agent_id - base
        for k in (1, 2):
            view.add_edge("E", base + (s + k) % 12, (10 * s + k - 1,))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_edges_equal_per_agent_adds(self, workers):
        sums = []
        for fn, batch in ((self.emit_pairs_agent, False), (self.emit_pairs, True)):
            sim, ids = typed_sim()
            apply_transition(sim, fn, write_spec(batch=batch), workers=workers)
            finalize_step(sim)
            sums.append(sim.state_checksum())
            c = sim.edge_container("E")
            assert edge_read(c, "records", int(ids[0][3])) == [
                (int(ids[0][1]), (11,), "E"), (int(ids[0][2]), (20,), "E")
            ]
        assert sums[0] == sums[1]

    def test_reads_equal_view_reads(self):
        """``has``, ``count`` and ``edges`` give each agent what the view gives."""
        sim, ids = typed_sim()
        apply_transition(sim, self.emit_pairs, write_spec())
        finalize_step(sim)
        seen_view, seen_batch = {}, {}

        def agent_form(view, params, glob):
            seen_view[view.agent_id] = (view.has_edge("E"), view.num_edges("E"),
                                        [(r.source, r.state) for r in view.edges("E")])

        def batch_form(batch, params, glob):
            has, count = batch.has("E"), batch.count("E")
            sources, (w,), indptr = batch.edges("E")
            for i, aid in enumerate(batch.ids.tolist()):
                lo, hi = indptr[i], indptr[i + 1]
                seen_batch[aid] = (bool(has[i]), int(count[i]), list(zip(
                    sources[lo:hi].tolist(), [(v,) for v in w[lo:hi].tolist()]
                )))

        for fn, batch in ((agent_form, False), (batch_form, True)):
            apply_transition(sim, fn, TransitionSpec(
                callable_types=("T0",), read_types=("E",), batch=batch))
            finalize_step(sim)
        assert seen_batch == seen_view and len(seen_view) == 12

    @pytest.mark.parametrize("hints, call", [
        (Hint.STATELESS | Hint.IGNORE_FROM, "edges"),
        (Hint.SINGLE_EDGE, "count"),
        (Hint.SINGLE_EDGE | Hint.STATELESS | Hint.IGNORE_FROM, "count"),
        (Hint.SINGLE_EDGE | Hint.STATELESS | Hint.IGNORE_FROM, "edges"),
    ], ids=["count-only-edges", "single-full-count", "existence-count",
            "existence-edges"])
    def test_reads_the_plan_drops_raise_as_in_the_view(self, hints, call):
        errors = []
        for batch in (False, True):
            sim, _ids = typed_sim(edge=EdgeTypeDecl("H", hints=hints))
            if batch:
                def fn(b, p, g):
                    getattr(b, call)("H")
            else:
                def fn(v, p, g):
                    (v.num_edges if call == "count" else v.edges)("H")
            with pytest.raises(HintViolation) as info:
                apply_transition(sim, fn, TransitionSpec(
                    callable_types=("T0",), read_types=("H",), batch=batch))
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("hints", [
        Hint.STATELESS | Hint.IGNORE_FROM,
        Hint.SINGLE_EDGE | Hint.STATELESS | Hint.IGNORE_FROM,
    ], ids=["count-only", "existence-bit"])
    def test_has_and_count_on_stateless_plans(self, hints):
        sim, ids = typed_sim(edge=EdgeTypeDecl("H", hints=hints))

        def emit(batch, params, glob):
            agents = np.array([0, 0, 5])  # slot 3 twice, slot 7 once
            targets = batch.ids[0] + np.array([3, 3, 7], dtype=np.uint64)
            if hints & Hint.SINGLE_EDGE:
                agents, targets = agents[1:], targets[1:]
            batch.add_edges("H", targets, agents=agents)

        apply_transition(sim, emit, write_spec("H"))
        finalize_step(sim)
        got = {}

        def read(batch, params, glob):
            got["has"] = batch.has("H").tolist()
            if not hints & Hint.SINGLE_EDGE:
                got["count"] = batch.count("H").tolist()

        apply_transition(sim, read, TransitionSpec(
            callable_types=("T0",), read_types=("H",), batch=True))
        assert got["has"] == [i in (3, 7) for i in range(12)]
        if "count" in got:
            assert got["count"] == [2 if i == 3 else int(i == 7) for i in range(12)]

    @pytest.mark.parametrize("kwargs", [
        {"agents": [0, 1]},                               # agents too short
        {"agents": [0, 1, 2], "states": ([1, 2],)},       # states too short
        {"agents": [0, 1, 2], "states": ([1, 2, 3], [1, 2, 3])},  # arity
        {"agents": [0, 1, 2]},                            # states missing
        {"agents": [0, 1, 2], "states": ([1, 2, 3],), "sources": [0]},
        {"agents": [0, 1, 12], "states": ([1, 2, 3],)},   # past the batch
        {"agents": [0, -1, 2], "states": ([1, 2, 3],)},
        {"agents": [0.0, 1.0, 2.0], "states": ([1, 2, 3],)},
    ], ids=["agents", "states", "arity", "no-states", "sources", "agent-high",
            "agent-negative", "agent-float"])
    def test_bad_arguments_raise_usage_error(self, kwargs):
        sim, _ids = typed_sim()

        def emit(batch, params, glob):
            batch.add_edges("E", batch.ids[:3], **kwargs)

        with pytest.raises(UsageError):
            apply_transition(sim, emit, write_spec())
        assert sim._staged is None

    def test_unwritten_edge_type_raises(self):
        sim, _ids = typed_sim(edge=EdgeTypeDecl("F"))

        def emit(batch, params, glob):
            batch.add_edges("F", batch.ids[:1], agents=[0])

        with pytest.raises(TypeNotWritable):
            apply_transition(sim, emit, write_spec())
        assert sim._staged is None

    @pytest.mark.parametrize("hints, kinds", [
        (Hint.SINGLE_TYPE | Hint.STATELESS, {"single_type": 12}),
        (Hint.SINGLE_TYPE | Hint.SINGLE_EDGE | Hint.STATELESS | Hint.IGNORE_FROM,
         {"single_type": 12, "single_edge": 12}),
        (Hint.SINGLE_EDGE | Hint.STATELESS | Hint.IGNORE_FROM, {"single_edge": 12}),
    ], ids=["single-type", "single-type-existence", "existence-duplicates"])
    def test_reports_equal_per_agent_reports(self, hints, kinds):
        """Each agent adds edges to slots s and s + 1 of T0 and to slot s of
        T1: with SINGLE_TYPE (target T0) every T1 edge is reported, and
        with SINGLE_EDGE every edge to a slot an earlier edge reached."""
        target = "T0" if hints & Hint.SINGLE_TYPE else None
        decl = EdgeTypeDecl("H", hints=hints, single_type_target=target)

        def targets_of(aid, bases):
            s = local_index(aid)
            return [bases[0] + s, bases[0] + (s + 1) % 12, bases[1] + s]

        def agent_form(view, params, glob):
            for t in targets_of(view.agent_id, bases):
                view.add_edge("H", t)

        def batch_form(batch, params, glob):
            rows = [targets_of(a, bases) for a in batch.ids.tolist()]
            batch.add_edges("H", np.array(rows, dtype=np.uint64).ravel(),
                            agents=np.repeat(np.arange(len(rows)), 3))

        by_workers = []
        for workers in (1, 2):
            found = []
            for fn, batch in ((agent_form, False), (batch_form, True)):
                sim, ids = typed_sim(n_types=2, checks="warn", edge=decl)
                bases = [int(ids[0][0]), int(ids[1][0])]
                apply_transition(sim, fn, write_spec("H", batch=batch), workers=workers)
                finalize_step(sim)
                found.append([(v.kind, v.target, v.producer, v.message)
                              for v in sim.check_reports])
            assert found[0] == found[1], workers
            got = {}
            for kind, *_ in found[0]:
                got[kind] = got.get(kind, 0) + 1
            assert got == kinds, workers
            by_workers.append(found[0])
        assert by_workers[0] == by_workers[1]

    def test_breach_in_error_mode_leaves_nothing_staged(self):
        decl = EdgeTypeDecl("H", hints=Hint.SINGLE_TYPE | Hint.STATELESS,
                            single_type_target="T0")
        sim, ids = typed_sim(n_types=2, edge=decl)

        def emit(batch, params, glob):
            batch.add_edges("H", ids[1][:1], agents=[0])

        from graphabm import ContractViolation

        with pytest.raises(ContractViolation):
            apply_transition(sim, emit, write_spec("H"))
        assert sim._staged is None


# ---------------------------------------------------------------------------
# Read plans
# ---------------------------------------------------------------------------


PLAN_STEPS = 6
LIFE_SPEC = TransitionSpec(callable_types=("M",), read_types=("L",), write_types=("M",))


def life(view, params, glob):
    """Mortal agents die and have children every step. On odd program
    steps (a step runs three transitions) only agents without ``L`` edges,
    the ones born in the run, die."""
    draw = view.rng.random()
    if draw < 0.2 and (view.step // 3 % 2 == 0 or not view.has_edge("L")):
        return None
    if draw > 0.7:
        view.add_agent("M", view.field("x") * 0.5)
    return (view.field("x"),)


def mix_agent(view, params, glob):
    x = view.field("x")
    weights = np.array([record.state[0] for record in view.edges("L")])
    seen = view.neighbor_field("L", "x")
    if not seen.size:
        return (x + 1.0,)
    return (0.5 * (x + float(np.max(seen * weights))),)


def mix_batch(batch, params, glob):
    """:func:`mix_agent` for a chunk: the largest weighted neighbour value."""
    x = batch.field("x")
    seen, indptr = batch.neighbor_field("L", "x")
    _sources, (weights,), _indptr = batch.edges("L")
    counts = batch.count("L")
    assert np.array_equal(counts, np.diff(indptr))
    top = np.zeros(x.size)
    some = counts > 0
    if some.any():
        top[some] = np.maximum.reduceat(seen * weights, indptr[:-1][some])
    return (np.where(some, 0.5 * (x + top), x + 1.0),)


def grow(view, params, glob):
    """Every third mortal agent has a child; none dies."""
    if view.agent_id % 3 == 0:
        view.add_agent("M", view.field("x") * 0.5)
    return (view.field("x"),)


def mortal_program(batch: bool, births=life) -> list:
    """``births``, then the mix over the immortal ``S`` and over ``M``."""
    mix = mix_batch if batch else mix_agent
    return [(births, LIFE_SPEC)] + [
        (mix, TransitionSpec(callable_types=(name,), read_types=("L", "M", "S"),
                             write_types=(name,), batch=batch))
        for name in ("S", "M")
    ]


def mortal_sim():
    """40 mortal agents ``M`` and 20 immortal ``S``, each the target of 4
    weighted ``L`` edges from either type."""
    schema = Schema()
    schema.register_agent_type(AgentTypeDecl("M", (("x", "float64"),)))
    schema.register_agent_type(AgentTypeDecl("S", (("x", "float64"),), immortal=True))
    schema.register_edge_type(EdgeTypeDecl("L", (("w", "float64"),)))
    sim = Simulation(schema, seed=21)
    rng = np.random.default_rng(8)
    ids = np.concatenate([sim.add_agents("M", 40, {"x": rng.random(40)}),
                          sim.add_agents("S", 20, {"x": rng.random(20)})])
    targets = np.repeat(ids, 4)
    weights = [(w,) for w in rng.random(targets.size).tolist()]
    sim.add_edges("L", targets, rng.choice(ids, targets.size), weights)
    sim.commit_initial()
    return sim


class TestReadPlans:
    def mortal_run(self, batch, workers, strategy, shuffled):
        """Checksum and agents run per step of ``PLAN_STEPS`` steps."""
        sim = mortal_sim()
        program = mortal_program(batch)
        if not shuffled:
            run(sim, PLAN_STEPS, program, workers=workers, strategy=strategy)
            return sim.state_checksum(), [m["agents_run"] for m in sim.step_metrics]
        for step in range(PLAN_STEPS):
            for fn, spec in program:
                partition = partition_graph(sim, workers, strategy) if workers > 1 else None
                apply_transition(sim, fn, spec, workers=workers, partition=partition,
                                 shuffle=np.random.default_rng(step))
                finalize_step(sim)
        return sim.state_checksum(), None

    def test_batch_equals_per_agent_while_agents_and_edges_change(self):
        """On even steps deaths sweep ``L`` into a new container while the
        slots of ``S`` stay; on odd steps births and deaths move the slots
        of ``M`` while ``L`` stays. So a plan kept past either would read
        the wrong runs."""
        sim = mortal_sim()
        containers, slots = [], []

        def note(s):
            containers.append(s.edge_container("L"))
            slots.append(s._segments[0].alive_slots())

        program = mortal_program(True)
        run(sim, PLAN_STEPS, [note, program[0], note, *program[1:]])
        for step in range(PLAN_STEPS):
            before, after = containers[2 * step: 2 * step + 2]
            assert not np.array_equal(slots[2 * step], slots[2 * step + 1])
            if step % 2 == 0:
                assert after is not before and after.n_stored() < before.n_stored()
            else:
                assert after is before
        # agents run: M before each of its transitions, and the 20 of S
        alive = [s.size for s in slots]
        runs = [alive[2 * step] + 20 + alive[2 * step + 1] for step in range(PLAN_STEPS)]
        assert [m["agents_run"] for m in sim.step_metrics] == runs

        expected, expected_runs = self.mortal_run(False, 1, "contiguous", False)
        assert expected == sim.state_checksum() and expected_runs == runs
        for workers in (1, 2, 4):
            for strategy in ("contiguous", "round_robin"):
                for shuffled in (False, True):
                    for batch in (True, False):
                        got, got_runs = self.mortal_run(batch, workers, strategy, shuffled)
                        case = (workers, strategy, shuffled, batch)
                        assert got == expected, case
                        assert got_runs in (None, runs), case

    def test_a_task_grown_at_its_end_replans(self):
        """Births alone keep the slots of ``M`` consecutive from 0 and
        ``L`` in place, so only a task's length tells two plans apart."""
        got = []
        for batch in (True, False):
            sim = mortal_sim()
            first = sim.edge_container("L")
            run(sim, 3, mortal_program(batch, grow))
            assert sim.edge_container("L") is first
            assert np.array_equal(sim._segments[0].alive_slots(), np.arange(sim.n_alive("M")))
            got.append(sim.state_checksum())
        assert sim.n_alive("M") > 60 and got[0] == got[1]

    def test_plans_keep_no_replaced_container(self):
        """A written edge type's old container is freed when its
        replacement commits, though a plan of a later transition was built
        on it, and that plan goes with it."""
        model = build_epi(EpiConfig(
            persons=EPI_PERSONS, locations=EPI_LOCATIONS, theta=0.35, seed=3,
            schedule=EPI_SCHEDULE, initial_infected=(0, 7, 11),
        ))
        sim = model.sim
        for workers in (1, 2, 1):
            for fn, spec in day_program(model):
                (written,) = spec.write_types
                old = weakref.ref(sim.edge_container(written)) if written != "Person" else None
                apply_transition(sim, fn, spec, workers=workers)
                finalize_step(sim)
                gc.collect()
                if old is not None:
                    assert old() is None, (workers, written)
                    assert not [key for key in sim._plans if written in key.read_types]
        assert len(sim._plans) == 3

    def test_a_new_chunk_limit_replans_the_next_step(self, monkeypatch):
        calls = []

        def counted(batch, params, glob):
            calls.append(batch.slots.size)
            return hk_transition(batch, params, glob)

        topo, n = TOPOLOGIES["ring"]
        sim = build_hk(HKConfig(n=n, epsilon=0.2, topology=topo, seed=11))
        run(sim, 2, [(counted, HK_SPEC)])
        assert calls == [300, 300]  # 11 incoming edges an agent
        calls.clear()
        monkeypatch.setattr(engine, "BATCH_EDGE_LIMIT", 22)
        run(sim, 1, [(counted, HK_SPEC)])
        assert calls == [2] * 150
        calls.clear()
        monkeypatch.setattr(engine, "BATCH_EDGE_LIMIT", 1 << 15)
        run(sim, 1, [(counted, HK_SPEC)])
        assert calls == [300]


class TestPlanCalls:
    """The read plan finds each task's bounds and each chunk's runs once."""

    @pytest.fixture
    def spied(self, monkeypatch):
        calls = []
        for name in ("bounds", "runs"):
            original = getattr(ListEdgeRead, name)

            def spy(self, *args, _name=name, _original=original):
                calls.append((_name, self))
                return _original(self, *args)

            monkeypatch.setattr(ListEdgeRead, name, spy)
        return calls

    def counted(self, fn, chunks):
        def wrapped(batch, params, glob):
            chunks.append(batch.slots.size)
            return fn(batch, params, glob)

        wrapped.__name__ = fn.__name__
        return wrapped

    def test_one_bounds_per_task_and_one_runs_per_chunk(self, spied, monkeypatch):
        monkeypatch.setattr(engine, "BATCH_EDGE_LIMIT", 100)
        model = build_epi(EpiConfig(
            persons=EPI_PERSONS, locations=EPI_LOCATIONS, theta=0.35, seed=3,
            schedule=EPI_SCHEDULE, initial_infected=(0, 7, 11),
        ))
        sim = model.sim
        infections = []
        for day in range(2):
            for fn, spec in day_program(model):
                chunks = []
                spied.clear()
                read = {name: sim.edge_container(name) for name in spec.read_types
                        if name in ("Visit", "Infection")}
                apply_transition(sim, self.counted(fn, chunks), spec)
                finalize_step(sim)
                bounds = [c for name, c in spied if name == "bounds"]
                runs = [c for name, c in spied if name == "runs"]
                if fn.__name__ == "spread":  # its 10 locations in chunks of <= 100 visits
                    (visit,) = read.values()
                    assert len(chunks) > 1
                    if day == 0:
                        assert bounds == [visit] and runs == [visit] * len(chunks)
                    else:  # day 1's Visit edges again: its container and plan are kept
                        assert spied == []
                elif fn.__name__ == "update_status":
                    (infection,) = read.values()
                    infections.append(infection.buffers())
                    assert bounds == [infection] and runs == [infection] * len(chunks)
                else:
                    assert not read and spied == []
        assert infections[0].keys() != infections[1].keys() or any(
            not np.array_equal(a, infections[1][name]) for name, a in infections[0].items())

    def test_hk_steps_after_the_first_find_no_runs(self, spied):
        chunks = []
        sim = build_hk(HKConfig(n=300, epsilon=0.2, topology=Regular(10), seed=11))
        run(sim, 1, [(self.counted(hk_transition, chunks), HK_SPEC)])
        assert [name for name, _c in spied] == ["bounds", "runs"]
        spied.clear()
        run(sim, 3, [(self.counted(hk_transition, chunks), HK_SPEC)])
        assert spied == [] and len(chunks) == 4

    def test_a_shuffled_call_neither_uses_nor_replaces_the_plan(self, spied):
        sim = build_hk(HKConfig(n=300, epsilon=0.2, topology=Regular(10), seed=11))
        run(sim, 1, [(hk_transition, HK_SPEC)])
        plan = sim._plans[HK_SPEC]
        spied.clear()
        apply_transition(sim, hk_transition, HK_SPEC, shuffle=np.random.default_rng(0))
        finalize_step(sim)
        assert sim._plans == {HK_SPEC: plan}
        assert [name for name, _c in spied] == ["bounds", "runs"] * 300
        spied.clear()
        run(sim, 1, [(hk_transition, HK_SPEC)])
        assert spied == []


def gate_sim(hints):
    """Agents P0..P3 of type P (field x = 10 * slot); edges of type H (one
    int64 field) P1 -> P0, P2 -> P0 and P3 -> P2, in that order."""
    schema = Schema()
    schema.register_agent_type(AgentTypeDecl("P", (("x", "int64"),), immortal=True))
    schema.register_edge_type(EdgeTypeDecl("H", (("w", "int64"),), hints=hints))
    sim = Simulation(schema, checks="off")
    p = sim.add_agents("P", 4, {"x": np.arange(4) * 10})
    for target, source, w in ((0, 1, 5), (0, 2, 6), (2, 3, 7)):
        sim.add_edge("H", p[target], p[source], (w,))
    sim.commit_initial()
    return sim


def refusal(sim, fn, batch=False) -> str:
    """The message of the HintViolation a transition ``fn`` reading H raises."""
    with pytest.raises(HintViolation) as info:
        apply_transition(sim, fn, TransitionSpec(
            callable_types=("P",), read_types=("H", "P"), batch=batch))
    assert sim._staged is None
    return str(info.value)


class TestReadGate:
    """Each read is refused at the gate, with one message however it is
    asked: by the view, by the batch or by ``aggregate``."""

    @pytest.mark.parametrize("hints", [Hint.NONE, Hint.IGNORE_FROM],
                             ids=["full-edge-list", "state-only-list"])
    def test_edge_states_are_the_records_states(self, hints):
        sim = gate_sim(hints)
        seen = {}

        def read(view, params, g):
            seen[view.agent_id] = (view.edge_states("H"), [r.state for r in view.edges("H")])

        apply_transition(sim, read, TransitionSpec(callable_types=("P",), read_types=("H",)))
        finalize_step(sim)
        assert seen == {0: ([(5,), (6,)],) * 2, 1: ([],) * 2, 2: ([(7,)],) * 2, 3: ([],) * 2}

    def test_edge_states_of_a_stateless_type_raise(self):
        sim = gate_sim(Hint.STATELESS)
        message = refusal(sim, lambda v, p, g: v.edge_states("H"))
        assert message == "edge type 'H' is STATELESS; edges carry no state"

    @pytest.mark.parametrize("hints", [Hint.NONE, Hint.IGNORE_FROM, Hint.SINGLE_EDGE],
                             ids=["full-edge-list", "state-only-list", "single-full-edge"])
    @pytest.mark.parametrize("layout", [(("w", "int64"),), ()], ids=["fields", "no-fields"])
    def test_aggregate_folds_the_edge_states(self, hints, layout):
        """``aggregate`` over an edge type folds the states the view's
        ``edge_states`` gives, ``()`` per edge for a type without fields,
        as it folds ``()`` per agent of an agent type without fields."""
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("P", (), immortal=True))
        schema.register_edge_type(EdgeTypeDecl("H", layout, hints=hints))
        sim = Simulation(schema, checks="off")
        p = sim.add_agents("P", 4)
        for target, source, w in ((0, 1, 5), (0, 2, 6), (2, 3, 7)):
            sim.add_edge("H", p[target], p[source], (w,) if layout else ())
        sim.commit_initial()
        seen = []

        def read(view, params, g):
            seen.extend(view.edge_states("H"))

        apply_transition(sim, read, TransitionSpec(callable_types=("P",), read_types=("H",)))
        finalize_step(sim)
        assert len(seen) == sim.edge_container("H").n_stored()
        assert sim.aggregate("H", lambda s: 1, "sum") == len(seen)
        assert sim.aggregate("H", lambda s: s, "max") == max(seen)
        assert sim.aggregate("P", lambda s: 1, "sum") == 4

    @pytest.mark.parametrize("hints", [Hint.STATELESS, Hint.SINGLE_EDGE | Hint.STATELESS
                                       | Hint.IGNORE_FROM],
                             ids=["stateless", "existence-bit"])
    def test_aggregate_refuses_as_edge_states_does(self, hints):
        sim = gate_sim(hints)
        message = refusal(sim, lambda v, p, g: v.edge_states("H"))
        with pytest.raises(HintViolation) as info:
            sim.aggregate("H", lambda s: 1)
        assert str(info.value) == message

    @pytest.mark.parametrize("read, hints", [
        ("source_state", Hint.IGNORE_SOURCE_STATE),
        ("source_state", Hint.IGNORE_FROM),
        ("count", Hint.SINGLE_EDGE | Hint.STATELESS | Hint.IGNORE_FROM),
        ("count", Hint.SINGLE_EDGE),
    ], ids=["source-state-ignore-source-state", "source-state-ignore-from",
            "count-existence-bit", "count-single-full-edge"])
    def test_refusals_agree_in_every_form(self, read, hints):
        sim = gate_sim(hints)
        if read == "source_state":
            def by_record(view, params, g):
                for record in view.edges("H"):
                    view.source_state(record)

            messages = [
                refusal(sim, by_record),
                refusal(sim, lambda v, p, g: v.neighbor_field("H", "x")),
                refusal(sim, lambda b, p, g: b.neighbor_field("H", "x"), batch=True),
            ]
        else:
            messages = [
                refusal(sim, lambda v, p, g: v.num_edges("H")),
                refusal(sim, lambda b, p, g: b.count("H"), batch=True),
            ]
            with pytest.raises(HintViolation) as info:
                sim.aggregate("H", reduce="count")
            messages.append(str(info.value))
        assert len(set(messages)) == 1 and messages[0].startswith("edge type 'H' ")
        assert sim.step == 0
