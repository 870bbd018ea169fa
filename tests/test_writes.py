"""One write contract for agent and edge state, and one placement of slots.

Every write of agent or edge state passes ``storage.cast_columns`` (columns)
or ``schema.state_row`` (one agent's or one edge's state), every per-edge
add ``storage.check_edge_row`` and every bulk add the shard's own check,
and every agent slot is taken by ``AgentSegment.place``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import graphabm
from graphabm import (
    AgentTypeDecl,
    EdgeTypeDecl,
    Hint,
    Schema,
    Simulation,
    TransitionSpec,
    TypeNotWritable,
    UsageError,
    apply_transition,
    finalize_step,
    run,
)
from graphabm.storage import AgentSegment

N = 4
GOOD = (0.5, 1)
FAULTS = {  # fault -> (state, the field the message names, or None)
    "arity": ((0.5,), None),
    "cast": ((0.5, "abc"), 1),
    "none": ((None, 1), 0),
}
AGENT_FIELDS = ("x", "i")
EDGE_FIELDS = ("w", "k")


def build():
    """``N`` mortal agents of ``T(x, i)``, whose edge type ``E(w, k)`` keeps
    sources and states; nothing committed."""
    schema = Schema()
    schema.register_agent_type(AgentTypeDecl("T", (("x", "float64"), ("i", "int64"))))
    schema.register_edge_type(EdgeTypeDecl("E", (("w", "float64"), ("k", "int64"))))
    sim = Simulation(schema)
    sim.add_agents("T", N, {"x": np.zeros(N), "i": np.arange(N)})
    return sim


def columns(state, n):
    """The columns of ``n`` agents or edges of ``state``; for the length
    fault, of ``GOOD`` with one value too few."""
    if state == "length":
        return [[v] * (n - 1) for v in GOOD]
    return [[v] * n for v in state]


def step(sim, fn, batch=False, writes=("T",)):
    spec = TransitionSpec(callable_types=("T",), write_types=writes, batch=batch)
    apply_transition(sim, fn, spec)


# -- the write paths: each writes ``state`` as a user would -----------------

def sim_add_agent(sim, state):
    sim.add_agent("T", *state)


def sim_add_agents(sim, state):
    cols = columns(state, 2)
    sim.add_agents("T", 2, dict(zip(AGENT_FIELDS, cols)))


def sim_add_edge(sim, state):
    sim.add_edge("E", 0, 1, state)
    sim.commit_initial()


def sim_edge_adder(sim, state):
    sim.edge_adder("E")(0, 1, state)
    sim.commit_initial()


def sim_add_edges(sim, state):
    rows = [GOOD] if state == "length" else [state, state]
    sim.add_edges("E", np.array([0, 1], dtype=np.uint64),
                  np.array([1, 2], dtype=np.uint64), rows)


def view_add_agent(sim, state):
    step(sim, lambda v, p, g: (v.add_agent("T", *state), v.state)[1])


def view_add_edge(sim, state):
    step(sim, lambda v, p, g: (v.add_edge("E", v.agent_id, state), v.state)[1],
         writes=("T", "E"))


def batch_add_edges(sim, state):
    def fn(batch, p, g):
        n = batch.slots.size
        batch.add_edges("E", batch.ids, agents=np.arange(n), states=columns(state, n))
        return [batch.field(name) for name in AGENT_FIELDS]

    step(sim, fn, batch=True, writes=("T", "E"))


def batch_add_agents(sim, state):
    def fn(batch, p, g):
        n = batch.slots.size
        batch.add_agents("T", columns(state, n), agents=np.arange(n))
        return [batch.field(name) for name in AGENT_FIELDS]

    step(sim, fn, batch=True)


def per_agent_return(sim, state):
    step(sim, lambda v, p, g: state)


def batch_return(sim, state):
    step(sim, lambda b, p, g: columns(state, b.slots.size), batch=True)


INIT_PATHS = [sim_add_agent, sim_add_agents, sim_add_edge, sim_edge_adder, sim_add_edges]
STEP_PATHS = [view_add_agent, view_add_edge, batch_add_edges, batch_add_agents,
              per_agent_return, batch_return]
ARRAY_PATHS = {sim_add_agents, sim_add_edges, batch_add_edges, batch_add_agents, batch_return}
CASES = [(path, fault) for path in INIT_PATHS + STEP_PATHS
         for fault in [*FAULTS, *(["length"] if path in ARRAY_PATHS else [])]]


# Writes of ids that are not integers, or not ids: none may be truncated
# or wrapped into an edge. Each takes the simulation, committed first for
# a step's write.
FLOATS = np.array([0.7, 1.9]), np.array([2.2, -0.5])
INTS = np.array([0, 1], dtype=np.uint64)
NEGATIVE = np.array([-1, 0])


def batch_ids(targets=None, sources=None):
    def write(sim):
        def fn(batch, p, g):
            batch.add_edges("E", INTS if targets is None else targets,
                            agents=np.zeros(2, dtype=np.int64), sources=sources,
                            states=columns(GOOD, 2))
            return [batch.field(name) for name in AGENT_FIELDS]

        step(sim, fn, batch=True, writes=("T", "E"))
    return write


def view_ids(target, source=None):
    def write(sim):
        step(sim, lambda v, p, g: (v.add_edge("E", target, GOOD, source=source), v.state)[1],
             writes=("T", "E"))
    return write


ID_CASES = {
    "add_edges-floats": lambda sim: sim.add_edges("E", *FLOATS, [GOOD] * 2),
    "add_edges-float_sources": lambda sim: sim.add_edges("E", INTS, FLOATS[1], [GOOD] * 2),
    "add_edges-bool_targets": lambda sim: sim.add_edges(
        "E", np.array([True, False]), INTS, [GOOD] * 2),
    "add_edge-floats": lambda sim: sim.add_edge("E", 1.7, 0.2, GOOD),
    "add_edge-negative": lambda sim: sim.add_edge("E", -1, 0, GOOD),
    "add_edge-too_wide": lambda sim: sim.add_edge("E", 0, 1 << 64, GOOD),
    "batch-float_targets": batch_ids(targets=FLOATS[0]),
    "batch-bool_sources": batch_ids(sources=np.array([True, False])),
    # signed ids below 0 would wrap to type tag 255
    "add_edges-negative_targets": lambda sim: sim.add_edges("E", NEGATIVE, INTS, [GOOD] * 2),
    "add_edges-negative_sources": lambda sim: sim.add_edges("E", INTS, NEGATIVE, [GOOD] * 2),
    "batch-negative_targets": batch_ids(targets=NEGATIVE),
    "batch-negative_sources": batch_ids(sources=NEGATIVE.astype(np.int32)),
    "view-negative": view_ids(-1),
    "view-float": view_ids(1.5),
    "view-too_wide": view_ids(1 << 64),
    "view-negative_source": view_ids(0, source=-5),
    "edge_adder-negative": lambda sim: sim.edge_adder("E")(-1, 0, GOOD),
    "edge_adder-float": lambda sim: sim.edge_adder("E")(1.5, 0, GOOD),
    "edge_adder-too_wide": lambda sim: sim.edge_adder("E")(1 << 64, 0, GOOD),
    "edge_adder-negative_source": lambda sim: sim.edge_adder("E")(0, -5, GOOD),
    "add_edges-2d_ids": lambda sim: sim.add_edges("E", INTS[None], INTS[None] + 1, [GOOD]),
    "add_edges-2d_sources": lambda sim: sim.add_edges("E", INTS, INTS[:, None], [GOOD] * 2),
}


class TestWriteContract:
    """Every write path refuses a state of the wrong arity, a value that
    does not cast, None and, for arrays, the wrong length, with a
    ``UsageError`` naming the type and the field when there is one; it
    leaves nothing committed or staged, and the simulation steps on.
    Every edge write refuses ids that are not integers or lie outside
    [0, 2**64), in the same way."""

    @pytest.mark.parametrize("path,fault", CASES,
                             ids=[f"{p.__name__}-{f}" for p, f in CASES])
    def test_a_bad_write_raises_and_leaves_nothing(self, path, fault):
        state, field = FAULTS.get(fault, ("length", 0))
        kind = "E" if path.__name__.endswith(("edge", "edges", "adder")) else "T"
        self.assert_refused(lambda sim: path(sim, state), path in STEP_PATHS, kind, field)

    @pytest.mark.parametrize("case", list(ID_CASES))
    def test_ids_that_are_not_integers_raise_and_leave_nothing(self, case):
        sim = self.assert_refused(ID_CASES[case], case.startswith(("batch", "view")), "E", None)
        assert sim.edge_container("E").n_stored() == 0

    @pytest.mark.parametrize("batch", [False, True], ids=["view", "batch"])
    def test_a_birth_of_an_unwritten_type_raises_and_leaves_nothing(self, batch):
        def view_birth(view, p, g):
            view.add_agent("T", *GOOD)

        def batch_births(b, p, g):
            b.add_agents("T", columns(GOOD, b.slots.size), agents=np.arange(b.slots.size))

        sim = build()
        sim.commit_initial()
        before = sim.state_checksum()
        with pytest.raises(TypeNotWritable, match="agent type 'T'"):
            step(sim, batch_births if batch else view_birth, batch=batch, writes=())
        assert sim._staged is None and not sim._in_transition
        assert sim.state_checksum() == before

    @staticmethod
    def assert_refused(write, in_step, kind, field):
        sim = build()
        before = None
        if in_step:
            sim.commit_initial()
            before = sim.state_checksum()
        with pytest.raises(UsageError) as exc:
            write(sim)
        message = str(exc.value)
        assert f"'{kind}'" in message
        if field is not None:
            names = EDGE_FIELDS if kind == "E" else AGENT_FIELDS
            assert f"field '{names[field]}'" in message
        assert sim._staged is None and not sim._in_transition
        assert sim.n_alive("T") == N
        if before is not None:
            assert sim.state_checksum() == before
        elif any(shard.targets for shard in sim._init_shards):
            # the bad edge stays in the tail: every commit refuses it
            with pytest.raises(UsageError):
                sim.commit_initial()
            assert not sim._initialized
            assert sim.edge_container("E").n_stored() == 0
            return sim
        step(sim, lambda v, p, g: v.state)
        finalize_step(sim)
        assert sim.n_alive("T") == N
        return sim


class TestPerRowChecks:
    @pytest.mark.parametrize("states", [
        [(1.0,)], [(1.0, 2.0, 3.0)], [(1.0, 2.0), (1.0, 2.0, 3.0)], [(1.0, 2.0), 5.0],
    ], ids=["short", "long", "ragged", "bare"])
    def test_edge_adder_rows_of_another_arity_are_refused_at_the_add(self, states):
        """The add refuses the row, so nothing of it is stored and the
        rows before it commit."""
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("A", ()))
        schema.register_edge_type(EdgeTypeDecl("E", (("a", "float64"), ("b", "float64"))))
        sim = Simulation(schema)
        sim.add_agents("A", 3, {})
        add = sim.edge_adder("E")
        *good, bad = states
        for target, state in enumerate(good):
            add(target, 2, state)
        with pytest.raises(UsageError, match="edge type 'E'"):
            add(len(good), 2, bad)
        sim.commit_initial()
        assert sim.edge_container("E").n_stored() == len(good)

    def test_a_bare_return_raises_naming_the_type(self):
        sim = build()
        sim.commit_initial()
        with pytest.raises(UsageError, match="agent type 'T': expected a state tuple"):
            step(sim, lambda v, p, g: v.field("x") * 2)
        assert sim._staged is None

    def test_a_negative_count_adds_no_agent(self):
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("P", (), immortal=True))
        sim = Simulation(schema)
        sim.add_agents("P", 3, {})
        with pytest.raises(UsageError, match="'P'"):
            sim.add_agents("P", -2, {})
        assert sim.n_alive("P") == 3
        with pytest.raises(UsageError):
            sim._segments[0].place(-1)
        assert sim._segments[0].count == 3


class TestStatesThePlanDoesNotStore:
    """States a bulk add passes to a type whose plan keeps none are not
    held by the chunk, so they neither reach the kept-merge comparison nor
    cross to another worker."""

    SPEC = TransitionSpec(callable_types=("A",), write_types=("E",), batch=True)

    def run(self, as_arrays, workers):
        """Four steps in which each agent adds an edge to the next one,
        with a weight drawn anew each step: the stored edges repeat."""
        def emit(batch, params, g):
            n = batch.slots.size
            weights = batch.random(np.ones(n, dtype=np.int64))
            batch.add_edges("E", (batch.ids + np.uint64(1)) % np.uint64(6),
                            agents=np.arange(n),
                            states=[weights if as_arrays else weights.tolist()])

        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("A", (), immortal=True))
        schema.register_edge_type(EdgeTypeDecl("E", (("w", "float64"),), hints=Hint.STATELESS))
        sim = Simulation(schema)
        sim.add_agents("A", 6)
        run(sim, 4, [(emit, self.SPEC)], workers=workers)
        assert sim.edge_container("E").n_stored() == 6
        return [m["merges_reused"] for m in sim.step_metrics]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_list_columns_are_dropped(self, workers):
        self.run(as_arrays=False, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_array_columns_are_dropped_so_the_merge_is_reused(self, workers):
        assert self.run(as_arrays=True, workers=workers) == [0, 1, 1, 1]


def sites(matches) -> list:
    """``(module, innermost function)`` of each node of graphabm's source
    for which ``matches`` holds."""
    root = Path(graphabm.__file__).parent
    found = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if matches(node):
                inside = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                found.add((path.relative_to(root).as_posix(),
                           max(inside, key=lambda f: f.lineno).name))
    return sorted(found)


def raises(text):
    """Whether a node raises a message whose constant parts hold ``text``."""
    def matches(node):
        return isinstance(node, ast.Raise) and text in "".join(
            c.value for c in ast.walk(node)
            if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return matches


class TestWriteSites:
    def test_only_the_contract_counts_state_fields(self):
        """Only ``storage.cast_columns`` and ``schema.state_row`` raise the
        "takes N state fields" message."""
        assert sites(raises("state fields")) == [
            ("schema.py", "state_row"), ("storage.py", "cast_columns")]

    def test_only_the_row_check_refuses_per_edge_ids(self):
        """Only ``storage.check_edge_row`` raises the per-edge "ids must be
        integers" message."""
        assert sites(raises("ids must be integers")) == [("storage.py", "check_edge_row")]

    def test_only_the_shared_scan_takes_the_largest_ids(self):
        """Both contract checks reach ``_largest_ids`` through one scan,
        ``storage._failing_ids``."""
        assert sites(lambda node: isinstance(node, ast.Call)
                     and getattr(node.func, "id", None) == "_largest_ids") == [
            ("storage.py", "_failing_ids")]


class TestPlace:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("immortal", [False, True])
    def test_place_gives_the_slots_of_successive_lifo_takes(self, seed, immortal):
        """Interleaved frees and ``place(k)`` give the slots that ``k``
        successive takes of a plain-list LIFO free list give: the last
        freed first, then the next fresh slot."""
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("P", (("x", "float64"),), immortal=immortal))
        seg = AgentSegment(schema.agent_types[0])
        free, count, alive = [], 0, set()
        rng = np.random.default_rng(seed)
        for _ in range(40):
            if alive and not immortal and rng.random() < 0.4:
                dead = rng.choice(sorted(alive), size=rng.integers(1, len(alive) + 1),
                                  replace=False).tolist()
                seg.alive[dead] = False
                seg.free.extend(dead)
                free.extend(dead)
                alive -= set(dead)
                continue
            k = int(rng.integers(0, 6))
            expected = []
            for _ in range(k):
                if free:
                    expected.append(free.pop())
                else:
                    expected.append(count)
                    count += 1
            slots = seg.place(k)
            seg.write(slots, [np.full(k, float(seed))])
            assert slots.tolist() == expected
            alive |= set(expected)
            assert seg.count == count and seg.free == free
            assert sorted(seg.alive_slots().tolist()) == sorted(alive)
