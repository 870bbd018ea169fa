from __future__ import annotations

import hashlib

import numpy as np
import pytest

from graphabm import (
    AgentTypeDecl,
    EdgeTypeDecl,
    Hint,
    Schema,
    Simulation,
    TransitionSpec,
    UnknownName,
    UsageError,
    add_raster,
    apply_transition,
    finalize_step,
    local_index,
    move_to,
    run,
    type_tag,
)

from edge_reads import edge_read


def person_sim(n=0):
    schema = Schema()
    schema.register_agent_type(
        AgentTypeDecl("Person", (("opinion", "float64"),), immortal=True)
    )
    schema.register_agent_type(AgentTypeDecl("Location", (), immortal=True))
    schema.register_edge_type(EdgeTypeDecl("E"))
    sim = Simulation(schema)
    if n:
        sim.add_agents("Person", n, {"opinion": np.zeros(n)})
    return sim


class TestAgentCreation:
    def test_first_ids_are_sequential_on_partition_zero(self):
        sim = person_sim()
        first = sim.add_agent("Person", 0.5)
        second = sim.add_agent("Location")
        third = sim.add_agent("Person", 0.7)
        assert (type_tag(first), local_index(first)) == (0, 0)
        assert (type_tag(second), local_index(second)) == (1, 0)
        assert (type_tag(third), local_index(third)) == (0, 1)

    def test_state_arity_validated(self):
        sim = person_sim()
        with pytest.raises(UsageError):
            sim.add_agent("Person")
        with pytest.raises(UsageError):
            sim.add_agent("Person", 0.5, 0.6)

    def test_bulk_requires_exact_fields(self):
        sim = person_sim()
        with pytest.raises(UsageError):
            sim.add_agents("Person", 3, {})
        with pytest.raises(UsageError):
            sim.add_agents("Person", 3, {"opinion": np.zeros(2)})

    def test_agent_state_and_liveness(self):
        sim = person_sim()
        aid = sim.add_agent("Person", 0.25)
        assert sim.agent_state(aid) == (0.25,)
        assert sim.is_alive(aid)
        assert not sim.is_alive(aid + 1)

    def test_field_array_unknown_field(self):
        sim = person_sim(2)
        with pytest.raises(UnknownName):
            sim.field_array("Person", "mood")


class TestSelfLoop:
    def test_source_state_of_self_loop_is_own_time_t_state(self):
        sim = person_sim(1)
        sim.add_edge("E", 0, 0)
        observed = []

        def probe(view, params, g):
            rec = view.edges("E")[0]
            observed.append(view.source_state(rec))
            return (view.field("opinion") + 1.0,)

        spec = TransitionSpec(
            callable_types=("Person",), read_types=("E", "Person"),
            write_types=("Person",),
        )
        apply_transition(sim, probe, spec)
        finalize_step(sim)
        assert observed == [(0.0,)]


class TestRunPrograms:
    def test_globals_update_items_run_between_transitions(self):
        sim = person_sim(4)
        seen = []

        def bump(view, params, g):
            seen.append(g["offset"] if "offset" in g else None)
            return (view.field("opinion") + 1.0,)

        def update(s):
            s.set_global("offset", float(s.step))

        sim.set_global("offset", -1.0)
        spec = TransitionSpec(callable_types=("Person",), write_types=("Person",))
        run(sim, 3, [(bump, spec), update])
        # step 0 sees the pre-run value; later steps see the prior update
        assert seen[:4] == [-1.0] * 4
        assert seen[4:8] == [1.0] * 4
        assert seen[8:] == [2.0] * 4

    def test_bad_program_item_rejected(self):
        sim = person_sim(1)
        with pytest.raises(UsageError):
            run(sim, 1, ["not a transition"])


class TestMoveToInTransition:
    def test_view_move_to_respects_write_set(self):
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("Cell", (), immortal=True))
        schema.register_agent_type(AgentTypeDecl("Walker", (), immortal=True))
        schema.register_edge_type(EdgeTypeDecl("Position"))
        sim = Simulation(schema)
        raster = add_raster(sim, "world", (3, 3), "Cell")
        walker = sim.add_agent("Walker")
        sim.commit_initial()

        def relocate(view, params, g):
            move_to(view, raster, view.agent_id, (2, 2), "Position")
            return None

        spec = TransitionSpec(callable_types=("Walker",), write_types=("Position",))
        apply_transition(sim, relocate, spec)
        finalize_step(sim)
        cont = sim.edge_container("Position")
        assert edge_read(cont, "sources", walker).tolist() == [raster.cell_id((2, 2))]

    def test_keep_must_be_subset_of_write(self):
        with pytest.raises(UsageError):
            TransitionSpec(callable_types=("P",), keep_existing=("E",))


class TestChecksum:
    def test_checksum_reflects_state_not_history(self):
        a = person_sim(3)
        b = person_sim(3)
        assert a.state_checksum() == b.state_checksum()
        b.add_agent("Person", 0.9)
        assert a.state_checksum() != b.state_checksum()

    def test_checksum_hashes_the_buffers_each_container_holds(self):
        """Over two target types, with empty slots at the start, middle and
        end of each, an edge container's ``buffers()`` are its index or
        bitmap and its stored columns, whose bytes are the ``nbytes()``
        that ``describe()`` reports, and the checksum is SHA-256 over every
        container's named buffers."""
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("P", (("x", "float64"),)))
        schema.register_agent_type(AgentTypeDecl("L", ()))
        schema.register_edge_type(EdgeTypeDecl("E", (("w", "float64"),)))
        schema.register_edge_type(EdgeTypeDecl("S", hints=Hint.STATELESS))
        schema.register_edge_type(
            EdgeTypeDecl("X", hints=Hint.STATELESS | Hint.IGNORE_FROM | Hint.SINGLE_EDGE))
        sim = Simulation(schema)
        p = sim.add_agents("P", 9, {"x": np.arange(9.0)})
        loc = sim.add_agents("L", 6)
        targets = np.concatenate([np.repeat(p[[1, 2, 4, 7]], [3, 1, 5, 2]),
                                  np.repeat(loc[[2, 3]], [4, 1])])
        sources = p[np.arange(targets.size) % 9]
        for name in ("E", "S"):
            states = [(float(i),) for i in range(targets.size)] if name == "E" else None
            sim.add_edges(name, targets, sources, states)
        sim.add_edges("X", np.unique(targets))
        sim.commit_initial()
        described = sim.describe()["edges"]
        for name, keys in (("E", ["indptr:0", "indptr:1", "source_slots:0", "field:w"]),
                           ("S", ["indptr:0", "indptr:1", "source_slots:0"]),
                           ("X", ["bits:0", "bits:1"])):
            c = sim.edge_container(name)
            assert list(c.buffers()) == keys
            total = sum(buf.nbytes for buf in c.buffers().values())
            assert total == c.nbytes() == described[name]["bytes"]
        h = hashlib.sha256()
        containers = [(f"A{tag}", seg) for tag, seg in enumerate(sim._segments)] + [
            (f"E{tag}", c) for tag, c in enumerate(sim._edges)]
        for key, container in containers:
            for name, buf in container.buffers().items():
                h.update(f"{key}/{name}:{buf.dtype.str}{buf.shape};".encode())
                h.update(np.ascontiguousarray(buf))
        assert sim.state_checksum() == h.hexdigest()
