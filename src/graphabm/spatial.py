"""Discrete n-dimensional rasters whose cells are ordinary agents.

A raster creates one agent per cell (row-major over the extents) and keeps
a dense Cartesian-index -> agent-id mapping. Cells participate in
transitions exactly like any other agent; neighbor edges make the grid
topology explicit in the graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DuplicateRasterName, IndexOutOfBounds, UsageError
from .schema import state_row

TOPOLOGIES = ("von_neumann", "moore")


@dataclass(frozen=True)
class RasterMap:
    """Immutable mapping from Cartesian indices to cell agent ids."""

    name: str
    dims: tuple[int, ...]
    cell_type: str
    ids: np.ndarray  # flat, row-major, len == prod(dims)

    def flat_index(self, index: tuple[int, ...], periodic: bool = False) -> int:
        if len(index) != len(self.dims):
            raise IndexOutOfBounds(
                f"index {index} has {len(index)} coordinates; raster "
                f"{self.name!r} has {len(self.dims)} dimensions"
            )
        try:
            return int(np.ravel_multi_index(index, self.dims,
                                             mode="wrap" if periodic else "raise"))
        except ValueError:
            raise IndexOutOfBounds(
                f"index {index} outside raster {self.name!r} dims {self.dims}"
            ) from None

    def cell_id(self, index: tuple[int, ...], periodic: bool = False) -> int:
        """Agent id of the cell at a Cartesian index."""
        return int(self.ids[self.flat_index(index, periodic)])


def add_raster(sim, name: str, dims, cell_type: str, cell_init=None) -> RasterMap:
    """Create the cell agents of a raster during initialization.

    ``cell_init`` maps a Cartesian index tuple to the cell's state tuple;
    omit it for stateless cell types. Cells are created in row-major index
    order. The cell type must be immortal: raster lookups hold ids for the
    whole run.
    """
    if name in sim.rasters:
        raise DuplicateRasterName(f"raster {name!r} already exists")
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise UsageError(f"raster dims must be positive, got {dims}")
    info = sim.schema.agent_type(cell_type)
    if not info.immortal:
        raise UsageError(
            f"raster cells must be immortal; declare {cell_type!r} with "
            "immortal=True"
        )
    rows = [state_row(info, () if cell_init is None else cell_init(index))
            for index in itertools.product(*[range(d) for d in dims])]
    ids = sim.add_agents(cell_type, len(rows), dict(zip(info.field_names, zip(*rows))))
    raster = RasterMap(name=name, dims=dims, cell_type=cell_type, ids=ids)
    sim.rasters[name] = raster
    return raster


def _neighbor_offsets(ndim: int, topology: str):
    if topology == "von_neumann":
        offsets = []
        for axis in range(ndim):
            for delta in (-1, 1):
                off = [0] * ndim
                off[axis] = delta
                offsets.append(tuple(off))
        return offsets
    if topology == "moore":
        return [
            off
            for off in itertools.product((-1, 0, 1), repeat=ndim)
            if any(off)
        ]
    raise UsageError(f"unknown topology {topology!r}; expected one of {TOPOLOGIES}")


def neighbor_pairs(dims, topology: str, periodic: bool):
    """All ordered (cell, neighbor-cell) flat-index pairs, deduplicated.

    Under periodic wrapping on tiny extents, distinct offsets can reach the
    same neighbor; each ordered pair appears once. Self-pairs are excluded.
    """
    dims = tuple(dims)
    cells = np.indices(dims).reshape(len(dims), -1)  # coordinates, row-major
    flat = np.arange(cells.shape[1])
    extents = np.array(dims)[:, None]
    pairs = []
    for off in _neighbor_offsets(len(dims), topology):
        coords = cells + np.array(off)[:, None]
        inside = ((coords >= 0) & (coords < extents)).all(axis=0) | periodic
        nflat = np.ravel_multi_index(coords[:, inside], dims, mode="wrap")
        pairs.append(np.stack([flat[inside], nflat], axis=1))
    pairs = np.unique(np.concatenate(pairs), axis=0)
    return [tuple(p) for p in pairs[pairs[:, 0] != pairs[:, 1]].tolist()]


def connect_raster_neighbors(sim, raster: RasterMap, edge_type: str,
                             topology: str = "von_neumann",
                             periodic: bool = False) -> int:
    """Add one directed edge per ordered pair of adjacent cells.

    Both directions are present. Returns the number of edges added. The
    edges carry no state, so an edge type that stores states is rejected
    with ``UsageError``.
    """
    pairs = neighbor_pairs(raster.dims, topology, periodic)
    if not pairs:
        return 0
    # Edge direction: source is the neighbor, target the cell reading it.
    targets = raster.ids[np.array([a for a, _ in pairs], dtype=np.intp)]
    sources = raster.ids[np.array([b for _, b in pairs], dtype=np.intp)]
    sim.add_edges(edge_type, targets, sources)
    return len(pairs)


def cell_id(raster: RasterMap, index, periodic: bool = False) -> int:
    return raster.cell_id(tuple(index), periodic)


def move_to(sim_or_view, raster: RasterMap, agent: int, index,
            edge_type: str, *, reverse: bool = False,
            periodic: bool = False, state: tuple = ()) -> int:
    """Place an agent at a raster cell by adding a position edge.

    The edge runs cell -> agent (the cell is the source), so the agent can
    read its location's state during transitions; ``reverse=True`` adds the
    agent -> cell edge as well. Works on a simulation during initialization
    or on a view inside a transition. Returns the cell id.
    """
    cid = raster.cell_id(tuple(index), periodic)
    add = sim_or_view.add_edge
    add(edge_type, agent, source=cid, state=state)
    if reverse:
        add(edge_type, cid, source=agent, state=state)
    return cid
