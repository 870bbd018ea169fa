from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphabm import (
    AgentTypeDecl,
    DuplicateRasterName,
    EdgeTypeDecl,
    IndexOutOfBounds,
    Schema,
    Simulation,
    UsageError,
    add_raster,
    cell_id,
    connect_raster_neighbors,
    move_to,
)
from graphabm.spatial import neighbor_pairs

from edge_reads import edge_read


def grid_sim(extra_agent_types=()):
    schema = Schema()
    schema.register_agent_type(AgentTypeDecl("Cell", (), immortal=True))
    for decl in extra_agent_types:
        schema.register_agent_type(decl)
    schema.register_edge_type(EdgeTypeDecl("Neighbor"))
    schema.register_edge_type(EdgeTypeDecl("Position"))
    return Simulation(schema)


def brute_force_pairs(dims, topology, periodic):
    """Independent adjacency oracle: enumerate neighbor index tuples."""
    ndim = len(dims)
    if topology == "von_neumann":
        offsets = [
            tuple(d if i == axis else 0 for i in range(ndim))
            for axis in range(ndim)
            for d in (-1, 1)
        ]
    else:
        offsets = [o for o in itertools.product((-1, 0, 1), repeat=ndim) if any(o)]
    pairs = set()
    for idx in itertools.product(*[range(d) for d in dims]):
        for off in offsets:
            nb = tuple(a + b for a, b in zip(idx, off))
            if periodic:
                nb = tuple(c % d for c, d in zip(nb, dims))
            elif not all(0 <= c < d for c, d in zip(nb, dims)):
                continue
            if nb != idx:
                flat = int(np.ravel_multi_index(idx, dims))
                nflat = int(np.ravel_multi_index(nb, dims))
                pairs.add((flat, nflat))
    return pairs


class TestRasterCreation:
    def test_cell_count_is_product_of_extents(self):
        sim = grid_sim()
        raster = add_raster(sim, "world", (10, 10), "Cell")
        assert raster.ids.size == 100
        assert sim.n_alive("Cell") == 100

    def test_one_dimensional(self):
        sim = grid_sim()
        raster = add_raster(sim, "line", (4,), "Cell")
        for i in range(4):
            assert raster.cell_id((i,)) == int(raster.ids[i])

    def test_zero_extent_rejected(self):
        sim = grid_sim()
        with pytest.raises(UsageError):
            add_raster(sim, "bad", (0, 5), "Cell")

    def test_duplicate_name(self):
        sim = grid_sim()
        add_raster(sim, "world", (2, 2), "Cell")
        with pytest.raises(DuplicateRasterName):
            add_raster(sim, "world", (2, 2), "Cell")

    def test_mortal_cells_rejected(self):
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("Cell", ()))
        sim = Simulation(schema)
        with pytest.raises(UsageError):
            add_raster(sim, "world", (2,), "Cell")

    def test_cell_init_states_row_major(self):
        schema = Schema()
        schema.register_agent_type(
            AgentTypeDecl("Cell", (("row", "int64"), ("col", "int64")), immortal=True)
        )
        sim = Simulation(schema)
        raster = add_raster(sim, "w", (2, 3), "Cell", cell_init=lambda idx: idx)
        assert sim.agent_state(raster.cell_id((1, 2))) == (1, 2)


class TestCellLookup:
    def test_origin_and_last(self):
        sim = grid_sim()
        raster = add_raster(sim, "world", (10, 10), "Cell")
        assert raster.cell_id((0, 0)) == int(raster.ids[0])
        assert raster.cell_id((9, 9)) == int(raster.ids[-1])

    def test_out_of_bounds(self):
        sim = grid_sim()
        raster = add_raster(sim, "world", (10, 10), "Cell")
        with pytest.raises(IndexOutOfBounds):
            raster.cell_id((10, 0))
        with pytest.raises(IndexOutOfBounds):
            raster.cell_id((0, -1))
        with pytest.raises(IndexOutOfBounds):
            raster.cell_id((1, 1, 1))

    def test_periodic_lookup_wraps(self):
        sim = grid_sim()
        raster = add_raster(sim, "world", (10, 10), "Cell")
        assert raster.cell_id((10, 0), periodic=True) == raster.cell_id((0, 0))
        assert cell_id(raster, (-1, -1), periodic=True) == raster.cell_id((9, 9))

    def test_bijection(self):
        sim = grid_sim()
        raster = add_raster(sim, "world", (3, 4, 2), "Cell")
        seen = {
            raster.cell_id(idx)
            for idx in itertools.product(range(3), range(4), range(2))
        }
        assert len(seen) == 24


class TestNeighborEdges:
    def test_von_neumann_10x10_counts(self):
        sim = grid_sim()
        raster = add_raster(sim, "world", (10, 10), "Cell")
        added = connect_raster_neighbors(sim, raster, "Neighbor", "von_neumann", False)
        assert added == 360
        sim2 = grid_sim()
        raster2 = add_raster(sim2, "world", (10, 10), "Cell")
        assert connect_raster_neighbors(sim2, raster2, "Neighbor", "von_neumann", True) == 400

    def test_edge_type_with_state_is_rejected(self):
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("Cell", (), immortal=True))
        schema.register_edge_type(EdgeTypeDecl("Weighted", (("w", "float64"),)))
        sim = Simulation(schema)
        raster = add_raster(sim, "world", (2, 2), "Cell")
        with pytest.raises(UsageError):
            connect_raster_neighbors(sim, raster, "Weighted")

    def test_moore_center_cell_has_8_incoming(self):
        sim = grid_sim()
        raster = add_raster(sim, "world", (3, 3), "Cell")
        connect_raster_neighbors(sim, raster, "Neighbor", "moore", False)
        sim.commit_initial()
        center = raster.cell_id((1, 1))
        assert edge_read(sim.edge_container("Neighbor"), "count", center) == 8

    def test_both_directions_present(self):
        sim = grid_sim()
        raster = add_raster(sim, "world", (1, 2), "Cell")
        connect_raster_neighbors(sim, raster, "Neighbor", "von_neumann", False)
        sim.commit_initial()
        a, b = raster.cell_id((0, 0)), raster.cell_id((0, 1))
        cont = sim.edge_container("Neighbor")
        assert edge_read(cont, "sources", a).tolist() == [b]
        assert edge_read(cont, "sources", b).tolist() == [a]

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 8), min_size=1, max_size=3),
        topology=st.sampled_from(["von_neumann", "moore"]),
        periodic=st.booleans(),
    )
    def test_pairs_match_brute_force_oracle(self, dims, topology, periodic):
        dims = tuple(dims)
        assert neighbor_pairs(dims, topology, periodic) == sorted(brute_force_pairs(
            dims, topology, periodic
        ))

    def test_von_neumann_count_formula_non_periodic(self):
        for a, b in [(2, 3), (4, 4), (5, 2)]:
            pairs = neighbor_pairs((a, b), "von_neumann", False)
            assert len(pairs) == 2 * (a * (b - 1) + b * (a - 1))


class TestMoveTo:
    def test_edge_runs_cell_to_agent(self):
        sim = grid_sim(
            extra_agent_types=(AgentTypeDecl("Walker", (), immortal=True),)
        )
        raster = add_raster(sim, "world", (4, 4), "Cell")
        walker = sim.add_agent("Walker")
        cid = move_to(sim, raster, walker, (2, 3), "Position")
        sim.commit_initial()
        cont = sim.edge_container("Position")
        assert cid == raster.cell_id((2, 3))
        assert edge_read(cont, "sources", walker).tolist() == [cid]
        assert not edge_read(cont, "has", cid)

    def test_reverse_adds_both_directions(self):
        sim = grid_sim(
            extra_agent_types=(AgentTypeDecl("Walker", (), immortal=True),)
        )
        raster = add_raster(sim, "world", (2, 2), "Cell")
        walker = sim.add_agent("Walker")
        cid = move_to(sim, raster, walker, (1, 1), "Position", reverse=True)
        sim.commit_initial()
        cont = sim.edge_container("Position")
        assert edge_read(cont, "sources", walker).tolist() == [cid]
        assert edge_read(cont, "sources", cid).tolist() == [walker]

    def test_cells_act_as_ordinary_agents_in_transitions(self):
        # Cells run transition functions like any agent: count neighbors.
        schema = Schema()
        schema.register_agent_type(
            AgentTypeDecl("Cell", (("deg", "int64"),), immortal=True)
        )
        schema.register_edge_type(EdgeTypeDecl("Neighbor"))
        sim = Simulation(schema)
        raster = add_raster(sim, "world", (3, 3), "Cell", cell_init=lambda i: (0,))
        connect_raster_neighbors(sim, raster, "Neighbor", "von_neumann", False)

        from graphabm import TransitionSpec, apply_transition, finalize_step

        spec = TransitionSpec(
            callable_types=("Cell",), read_types=("Neighbor",), write_types=("Cell",)
        )
        apply_transition(sim, lambda v, p, g: (v.num_edges("Neighbor"),), spec)
        finalize_step(sim)
        degrees = sim.field_array("Cell", "deg")
        assert sorted(degrees.tolist()) == [2, 2, 2, 2, 3, 3, 3, 3, 4]
