"""Batch (array-at-a-time) transitions.

The batch form of HK must give the same state checksum as its per-agent
oracle for every topology, storage plan, worker count, partition strategy,
execution order and chunking; batch specs must keep the engine's contract
checks.
"""

from __future__ import annotations

import numpy as np
import pytest

from graphabm import (
    AgentTypeDecl,
    EdgeTypeDecl,
    Hint,
    HintViolation,
    Schema,
    Simulation,
    TransitionSpec,
    TypeNotReadable,
    UnknownName,
    UsageError,
    apply_transition,
    engine,
    finalize_step,
    run,
)
from graphabm.models.hk import (
    HK_AGENT_SPEC,
    HK_SPEC,
    HKConfig,
    build_hk,
    hk_agent_transition,
    hk_transition,
)
from graphabm.models.topology import Cliques, Complete, Regular

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
        topo, n = TOPOLOGIES[topology]
        cfg = HKConfig(n=n or topo.size(), epsilon=0.2, topology=topo, seed=11)
        base = build_hk(cfg)
        apply_transition(base, hk_agent_transition, HK_AGENT_SPEC)
        finalize_step(base)
        for trial in range(3):
            sim = build_hk(cfg)
            apply_transition(sim, hk_transition, HK_SPEC,
                             shuffle=np.random.default_rng(trial))
            finalize_step(sim)
            assert sim.state_checksum() == base.state_checksum()

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

    @pytest.mark.parametrize("spec_kw", [
        {"write_types": ("P", "E")},
        {"write_types": ("P", "Q")},
        {"write_types": ("P",), "keep_existing": ("P",)},
        {"write_types": ()},
    ], ids=["edge-type", "other-agent-type", "keep-existing", "nothing"])
    def test_spec_not_writing_exactly_its_callable_types_is_rejected(self, spec_kw):
        sim, _ids = small_sim()
        with pytest.raises(UsageError):
            apply_transition(sim, identity, batch_spec(**spec_kw))
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

    def test_plan_without_csr_index_is_rejected(self):
        sim, _ids = small_sim(hints=Hint.SINGLE_EDGE, with_edges=False)
        with pytest.raises(UsageError):
            apply_transition(sim, lambda b, p, g: b.neighbor_field("E", "x"),
                             batch_spec())

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
