"""Kept merges: an edge type whose shards come back unchanged is neither
shipped nor merged again, and every result equals that of a run that
keeps nothing, at any worker count."""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import os
import pickle
import signal
from multiprocessing.connection import Connection

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphabm import (
    AgentTypeDecl,
    EdgePlan,
    EdgeTypeDecl,
    Hint,
    Schema,
    Simulation,
    TransitionSpec,
    WorkerError,
    apply_transition,
    finalize_step,
    run,
)
from graphabm import engine
from graphabm.ids import provisional_id
from graphabm.models.episim import EpiConfig, build_epi, day_program, day_program_agents
from graphabm.storage import ListShard, rewrite_ids, validate_endpoints

CONTROL_PID = os.getpid()


@contextlib.contextmanager
def kept_nothing():
    """Every commit, on the control and on every worker forked meanwhile,
    clears the kept merges: nothing is ever reused."""
    finalize = engine.finalize_step

    def clearing(sim):
        finalize(sim)
        sim._kept.clear()

    with pytest.MonkeyPatch.context() as mp_:
        mp_.setattr(engine, "finalize_step", clearing)
        yield


def reused(sim):
    return [m["merges_reused"] for m in sim.step_metrics]


# ---------------------------------------------------------------------------
# Random list-plan shards, re-emitted, then perturbed in one byte
# ---------------------------------------------------------------------------

HINTS = {
    EdgePlan.FULL_EDGE_LIST: Hint.NONE,
    EdgePlan.STATE_ONLY_LIST: Hint.IGNORE_FROM,
    EdgePlan.SOURCE_ONLY_LIST: Hint.STATELESS,
    EdgePlan.COUNT_ONLY: Hint.STATELESS | Hint.IGNORE_FROM,
}


def table_sim(plan, n):
    hints = HINTS[plan]
    schema = Schema()
    schema.register_agent_type(AgentTypeDecl("A", (("x", "int64"),), immortal=True))
    layout = () if Hint.STATELESS in hints else (("w", "float64"),)
    schema.register_edge_type(EdgeTypeDecl("E", layout, hints=hints))
    sim = Simulation(schema, seed=3)
    sim.add_agents("A", n, {"x": np.zeros(n, dtype=np.int64)})
    return sim


def table_program(tables, schedule, batch_form, stateful):
    """Each step, every agent emits its rows of ``tables[schedule[step]]``,
    ``(producer, target, source, w)`` columns over slots of type 0, whose
    slots are their ids."""
    spec = TransitionSpec(callable_types=("A",), write_types=("E",), batch=batch_form)

    def pick(sim):
        sim.set_global("k", schedule[len(sim.step_metrics)])

    def emit_batch(batch, params, g):
        prod, tgt, src, w = tables[g.k]
        mine = np.isin(prod, batch.slots)
        batch.add_edges("E", tgt[mine], agents=np.searchsorted(batch.slots, prod[mine]),
                        sources=src[mine], states=(w[mine],) if stateful else None)
        return None

    def emit_agent(view, params, g):
        prod, tgt, src, w = tables[g.k]
        for i in np.flatnonzero(prod == view.agent_id).tolist():
            view.add_edge("E", int(tgt[i]), (w[i],) if stateful else (), source=int(src[i]))
        return None

    return [pick, (emit_batch if batch_form else emit_agent, spec)]


def run_tables(plan, n, tables, batch_form, workers):
    schedule = [0, 0, 1, 1]
    sim = table_sim(plan, n)
    sums = []
    run(sim, len(schedule), table_program(tables, schedule, batch_form,
                                          plan in (EdgePlan.FULL_EDGE_LIST,
                                                   EdgePlan.STATE_ONLY_LIST)),
        workers=workers, on_step=lambda s: sums.append(s.state_checksum()))
    return sums, reused(sim)


def check_tables(plan, n, rows, perturbed, batch_form):
    """Both tables differ; at one and two workers the checksums equal those
    of a run that keeps nothing, and a repeat is reused, in the batch and
    in the per-agent form."""
    tables = [rows, perturbed]
    with kept_nothing():
        expected, none = run_tables(plan, n, tables, batch_form, 1)
    assert none == [0, 0, 0, 0]
    assert expected[2] != expected[1]
    for workers in (1, 2):
        assert run_tables(plan, n, tables, batch_form, workers) == (expected, [0, 1, 0, 1])


def columns(prod, tgt, src, w):
    order = np.argsort(prod, kind="stable")  # each agent's rows together
    return (np.asarray(prod, dtype=np.uint64)[order], np.asarray(tgt, dtype=np.uint64)[order],
            np.asarray(src, dtype=np.uint64)[order], np.asarray(w, dtype=np.float64)[order])


def flip(column, row, byte, mask):
    """``column`` with byte ``byte`` of row ``row`` xor ``mask``."""
    out = column.copy()
    out.view(np.uint8)[row * out.itemsize + byte] ^= mask
    return out


@st.composite
def table_cases(draw):
    plan = draw(st.sampled_from(sorted(HINTS, key=lambda p: p.value)))
    n = draw(st.integers(2, 12))
    m = draw(st.integers(1, 16))
    slot = st.integers(0, n - 1)
    rows = columns(draw(st.lists(slot, min_size=m, max_size=m)),
                   draw(st.lists(slot, min_size=m, max_size=m)),
                   draw(st.lists(slot, min_size=m, max_size=m)),
                   draw(st.lists(st.floats(width=64), min_size=m, max_size=m)))
    kinds = ["target"]
    if plan in (EdgePlan.FULL_EDGE_LIST, EdgePlan.SOURCE_ONLY_LIST):
        kinds.append("source")
    if plan in (EdgePlan.FULL_EDGE_LIST, EdgePlan.STATE_ONLY_LIST):
        kinds.append("w")
    kind = draw(st.sampled_from(kinds))
    row = draw(st.integers(0, m - 1))
    prod, tgt, src, w = rows
    if kind == "w":  # any bit of one float: a sign, an exponent, a NaN payload
        w = flip(w, row, draw(st.integers(0, 7)), draw(st.integers(1, 255)))
    else:  # another slot below 256: one byte of the id
        column = tgt if kind == "target" else src
        column = column.copy()
        column[row] = (int(column[row]) + draw(st.integers(1, n - 1))) % n
        tgt, src = (column, src) if kind == "target" else (tgt, column)
    return plan, n, rows, (prod, tgt, src, w), draw(st.booleans())


class TestRandomShards:
    @settings(max_examples=20, deadline=None)
    @given(table_cases())
    def test_reemitted_then_perturbed_shards_match_a_run_that_keeps_nothing(self, case):
        check_tables(*case)

    @pytest.mark.parametrize("batch_form", [True, False])
    @pytest.mark.parametrize("before,after", [
        (0.0, -0.0),
        (-0.0, 0.0),
        (np.float64("nan"), np.uint64(0x7FF8000000000001).view(np.float64)),
    ], ids=["zero-to-minus-zero", "minus-zero-to-zero", "nan-payloads"])
    def test_equal_floats_of_other_bytes_are_not_the_same(self, before, after, batch_form):
        rows = columns([0, 1, 1], [1, 0, 1], [1, 1, 0], [1.5, before, 2.5])
        perturbed = rows[:3] + (rows[3].copy(),)
        perturbed[3][1] = after
        assert perturbed[3].tobytes() != rows[3].tobytes()
        check_tables(EdgePlan.FULL_EDGE_LIST, 3, rows, perturbed, batch_form)


# ---------------------------------------------------------------------------
# Fixed cases: births, deaths, never-reused plans, shuffles, one-off pools
# ---------------------------------------------------------------------------


def colony(n=12):
    """Cells that re-emit their incoming ``Link`` edges (SOURCE_ONLY_LIST,
    per-agent adds) onto themselves and a ``Tie`` to themselves
    (FULL_EDGE_LIST, a batch add) every step; some give birth, with a
    link to the newborn's provisional id, and some die."""
    schema = Schema()
    schema.register_agent_type(AgentTypeDecl("Cell", (("e", "int64"),)))
    schema.register_edge_type(EdgeTypeDecl("Link", hints=Hint.STATELESS))
    schema.register_edge_type(EdgeTypeDecl("Tie", (("w", "float64"),)))
    sim = Simulation(schema, seed=9)
    ids = sim.add_agents("Cell", n, {"e": np.arange(n)})
    sim.add_edges("Link", ids, np.roll(ids, 1))
    return sim


LIVE = TransitionSpec(callable_types=("Cell",), read_types=("Link",),
                      write_types=("Cell", "Link"))
TIE = TransitionSpec(callable_types=("Cell",), write_types=("Tie",), batch=True)


def live(view, params, g):
    aid = view.agent_id
    for source in view.sources("Link").tolist():
        view.add_edge("Link", aid, source=source)
    if aid % 4 == 1 and view.step % 8 == 2:
        view.add_edge("Link", view.add_agent("Cell", 0))
    if aid % 5 == 3 and view.step == 12:
        return None
    return (int(view.field("e")) + 1,)


def tie(batch, params, g):
    w = np.where(batch.slots % 3 == 0, -0.0, 0.0) + (batch.slots % 2)
    batch.add_edges("Tie", batch.ids, agents=np.arange(batch.slots.size), states=(w,))
    return None


def colony_run(program, workers, steps=9):
    sim = colony()
    sums = []
    run(sim, steps, program, workers=workers,
        on_step=lambda s: sums.append(s.state_checksum()))
    assert mp.active_children() == []
    return sums, reused(sim), sim


class TestFixedCases:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_births_and_deaths_with_the_sweep(self, workers):
        program = [(live, LIVE), (tie, TIE)]
        with kept_nothing():
            expected, none, serial = colony_run(program, 1)
        assert none == [0] * 9
        sums, counts, sim = colony_run(program, workers)
        assert sums == expected
        births = serial.n_alive("Cell") > 12
        assert births and sim.n_alive("Cell") == serial.n_alive("Cell")
        assert len(serial._segments[0].free) > 0  # deaths, whose slots a birth did not take
        # Births at steps 1 and 5, deaths at 6. Link changes with a birth (a
        # provisional target), the step after (the newborn re-emits its
        # link) and the steps of and after deaths (links from the dead are
        # swept, then no longer re-emitted); Tie with the alive set.
        assert counts == [0, 0, 1, 2, 2, 0, 0, 1, 2]

    def test_a_kept_shard_holds_the_newborns_final_id(self):
        """A birth step's shard is kept with its provisional ids rewritten,
        so a step whose edge names the newborn's final id reuses it."""
        def parent(view, params, g):
            if view.agent_id == 1:
                target = view.add_agent("Cell", 0) if view.step == 0 else 4
                view.add_edge("Link", target)
            return (int(view.field("e")),)

        sim = colony(4)
        apply_transition(sim, parent, LIVE)
        assert sim._staged.reused == 0
        finalize_step(sim)
        (kept,) = sim._kept[0].chunks
        assert kept[0].targets.tolist() == [4] == sim.agent_ids("Cell")[4:].tolist()
        apply_transition(sim, parent, LIVE)
        assert sim._staged.reused == 1
        finalize_step(sim)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_kept_container_is_the_one_built_before_the_sweep(self, workers):
        """Edges to an agent that died in the transition that wrote them
        are re-emitted: its sweep dropped them from the committed
        container, but a merge of the same shards in a step without a
        death keeps them."""
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("P", (), immortal=True))
        schema.register_agent_type(AgentTypeDecl("Q", (("x", "int64"),)))
        schema.register_edge_type(EdgeTypeDecl("To", hints=Hint.STATELESS))
        spec = TransitionSpec(callable_types=("P", "Q"), write_types=("Q", "To"))
        qs = [int(aid) for aid in np.arange(4, dtype=np.uint64) + np.uint64(1 << 56)]

        def build():
            sim = Simulation(schema)
            sim.add_agents("P", 3)
            sim.add_agents("Q", 4, {"x": np.arange(4)})
            return sim

        def step(view, params, g):
            if view.agent_id < qs[0]:  # a P: an edge to every Q, dead or alive
                for q in qs:
                    view.add_edge("To", q)
                return None
            return None if view.step == 1 and view.field("x") == 2 else (view.field("x"),)

        def stored(sim, out):
            out.append((sim.state_checksum(), sim.edge_container("To").n_stored()))

        expected, sums = [], []
        with kept_nothing():
            run(build(), 3, [(step, spec)], on_step=lambda s: stored(s, expected))
        sim = build()
        run(sim, 3, [(step, spec)], workers=workers, on_step=lambda s: stored(s, sums))
        assert sums == expected
        assert [n for _sum, n in sums] == [12, 9, 12]
        assert reused(sim) == [0, 1, 1]

    def test_a_kept_merge_over_more_workers_is_not_reused_by_fewer(self):
        """A two-worker merge is kept; a one-worker call whose shard equals
        worker 0's kept shard, the other worker's agents now emitting
        nothing, merges anew."""
        rows = columns([0, 1, 2, 3], [1, 2, 3, 0], [0, 0, 0, 0], [0.5] * 4)
        half = tuple(c[:2] for c in rows)
        _pick, (fn, spec) = table_program([rows, half], [], True, True)
        sums = []
        for keeping in (kept_nothing, contextlib.nullcontext):
            sim = table_sim(EdgePlan.FULL_EDGE_LIST, 4)
            with keeping():
                for k, workers in ((0, 2), (1, 1)):
                    sim.set_global("k", k)
                    apply_transition(sim, fn, spec, workers=workers)
                    assert sim._staged.reused == 0
                    finalize_step(sim)
            assert sim.edge_container("E").n_stored() == 2
            sums.append(sim.state_checksum())
        assert sums[0] == sums[1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_keep_existing_existence_bit_and_single_full_edge_are_never_reused(self, workers):
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("P", (), immortal=True))
        schema.register_edge_type(EdgeTypeDecl(
            "Bit", hints=Hint.STATELESS | Hint.IGNORE_FROM | Hint.SINGLE_EDGE))
        schema.register_edge_type(EdgeTypeDecl("One", (("w", "float64"),),
                                               hints=Hint.SINGLE_EDGE))
        schema.register_edge_type(EdgeTypeDecl("Log", (("w", "float64"),)))
        sim = Simulation(schema, checks="warn")
        first = int(sim.add_agents("P", 6)[0])
        spec = TransitionSpec(callable_types=("P",), write_types=("Bit", "One", "Log"),
                              keep_existing=("Log",))

        def mark(view, params, g):
            for name in ("Bit", "One", "Log"):
                view.add_edge(name, first, (0.5,) if name != "Bit" else ())
            return None

        run(sim, 4, [(mark, spec)], workers=workers)
        assert reused(sim) == [0] * 4
        assert sim._kept == {}
        reports = [(v.step, v.edge_type) for v in sim.check_reports if v.kind == "single_edge"]
        assert reports == [(step, name) for step in range(4) for name in ("Bit", "One")
                           for _ in range(5)]
        assert sim.edge_container("Log").n_stored() == 24

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_shuffled_calls_one_off_pools_and_control_commits(self, workers, monkeypatch):
        """Program callables apply the Tie transition shuffled, on a one-off
        two-worker pool (another function, so not the run's) and on the
        control alone, between the run's own transitions."""
        def tie_again(batch, params, g):
            return tie(batch, params, g)

        def shuffled(sim):
            apply_transition(sim, tie, TIE, workers=workers,
                             shuffle=np.random.default_rng(sim.step))
            finalize_step(sim)

        def one_off(sim):
            apply_transition(sim, tie_again, TIE, workers=2)
            finalize_step(sim)

        def on_control(sim):
            apply_transition(sim, tie, TIE)
            finalize_step(sim)

        program = [(live, LIVE), (tie, TIE), shuffled, (tie, TIE), one_off, (tie, TIE),
                   on_control, (tie, TIE)]
        with kept_nothing():
            expected, _none, _sim = colony_run(program, 1)
        markers = []
        merge = engine._merge_and_stage

        def spy(sim, rt, payloads):
            if 1 in rt.written_edge and os.getpid() == CONTROL_PID:
                markers.append(tuple(p["edges"][1] is None for p in payloads))
            return merge(sim, rt, payloads)

        monkeypatch.setattr(engine, "_merge_and_stage", spy)
        sums, _counts, _sim = colony_run(program, workers)
        assert sums == expected
        # per step, Tie merges of (tie, TIE), shuffled, (tie, TIE), one_off, ...:
        # the one-off's two shards are the kept ones of a two-worker run
        one_offs = markers[3::7]
        assert len(one_offs) == 9
        assert one_offs == [(workers == 2,) * 2] * 9


# ---------------------------------------------------------------------------
# The epidemic's Visit edges, and a worker that dies mid-exchange
# ---------------------------------------------------------------------------


def small_epidemic():
    return build_epi(EpiConfig(persons=300, locations=30, theta=0.3, seed=4,
                               initial_infected=(0, 1, 2)))


class TestVisitExchange:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_visit_shards_cross_once_and_every_process_reuses_them(
            self, workers, tmp_path, monkeypatch):
        log = tmp_path / "merges.log"
        merge = engine._merge_and_stage

        def logged(sim, rt, payloads):
            merge(sim, rt, payloads)
            if 0 in rt.written_edge:
                reuse = sim._staged.edges[0] is sim._kept.get(0, (None, None))[1]
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()} {sim.step} {int(reuse)}\n")

        sent = []
        send_bytes = Connection.send_bytes

        def recording_send(conn, buf, *args):
            if os.getpid() == CONTROL_PID:
                message = pickle.loads(bytes(buf))
                if message[0] == "ok" and 0 in message[1]["edges"]:
                    sent.append(message[1]["edges"][0] is None)
            return send_bytes(conn, buf, *args)

        days = 4
        serial = small_epidemic()
        with kept_nothing():
            run(serial.sim, days, day_program(serial))
        monkeypatch.setattr(engine, "_merge_and_stage", logged)
        monkeypatch.setattr(Connection, "send_bytes", recording_send)
        model = small_epidemic()
        run(model.sim, days, day_program(model), workers=workers)
        assert model.sim.state_checksum() == serial.sim.state_checksum()

        rows = [line.split() for line in log.read_text().splitlines()]
        by_process = {}
        for pid, step, reuse in rows:
            by_process.setdefault(pid, []).append((int(step), int(reuse)))
        assert len(by_process) == workers
        # Visit is written at steps 0, 3, 6, 9: from day 2 on, the kept one
        visit = [(3 * d, int(d > 0)) for d in range(days)]
        assert all(sorted(merges) == visit for merges in by_process.values())
        # the control forwards W - 1 payloads to each of W - 1 workers: on
        # day 1 with Visit shards, then with markers
        forwards = (workers - 1) ** 2
        assert sent == [False] * forwards + [True] * forwards * (days - 1)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_per_agent_visits_are_reused_as_the_batch_ones_are(self, workers):
        """``view.add_edge`` states are cast when the shard is sealed, so a
        per-agent day's Visit shard matches the kept one as a batch day's
        does: equal ``merges_reused``, 1 a day from day 2, and equal
        checksums."""
        got = []
        for program in (day_program, day_program_agents):
            model = small_epidemic()
            run(model.sim, 4, program(model), workers=workers)
            got.append((reused(model.sim), model.sim.state_checksum()))
        assert got[0] == got[1]
        assert got[0][0] == [0, 1, 1, 1]

    def test_a_worker_killed_mid_exchange_is_named_with_its_exit_code(self, monkeypatch):
        """Worker 2 of 3 sends its day-2 payload, whose Visit shard is a
        marker, and dies before its merge."""
        ran = {}
        run_shard, merge = engine._run_shard, engine._merge_and_stage

        def noting(sim, fn, rt, partition, worker, nworkers, shuffle=None):
            ran["worker"] = worker
            return run_shard(sim, fn, rt, partition, worker, nworkers, shuffle=shuffle)

        def dying(sim, rt, payloads):
            if ran.get("worker") == 2 and sim.step == 3 and os.getpid() != CONTROL_PID:
                assert payloads[2]["edges"][0] is None
                os.kill(os.getpid(), signal.SIGKILL)
            return merge(sim, rt, payloads)

        monkeypatch.setattr(engine, "_run_shard", noting)
        monkeypatch.setattr(engine, "_merge_and_stage", dying)
        model = small_epidemic()
        with pytest.raises(WorkerError) as info:
            run(model.sim, 3, day_program(model), workers=3)
        assert (info.value.worker, info.value.exitcode) == (2, -signal.SIGKILL)
        assert model.sim._staged is None and model.sim._pool is None
        assert mp.active_children() == []


# ---------------------------------------------------------------------------
# The shard comparison and the carried source range
# ---------------------------------------------------------------------------


def shard_of(info, targets, sources, w, producers):
    shard = ListShard(info, True)
    shard.extend(np.asarray(targets, dtype=np.uint64), np.asarray(sources, dtype=np.uint64),
                 (np.asarray(w, dtype=np.float64),), producers)
    return shard


class TestSameEdges:
    def info(self):
        return table_sim(EdgePlan.FULL_EDGE_LIST, 4).schema.edge_type("E")

    def test_chunk_for_chunk(self):
        from graphabm.storage import same_edges

        info = self.info()
        a = shard_of(info, [1, 2], [0, 0], [0.5, 1.0], 0).seal()
        assert same_edges(a, shard_of(info, [1, 2], [0, 0], [0.5, 1.0], 0).seal())
        assert not same_edges(a, shard_of(info, [1, 2], [0, 0], [0.5, 1.0], 1).seal())
        assert not same_edges(a, shard_of(info, [1, 3], [0, 0], [0.5, 1.0], 0).seal())
        split = shard_of(info, [1], [0], [0.5], 0)
        split.extend(np.array([2], dtype=np.uint64), np.array([0], dtype=np.uint64),
                     (np.array([1.0]),), 0)
        assert not same_edges(a, split.seal())  # the same edges in other chunks
        tail = ListShard(info, True)
        for target, state in ((1, (0.5,)), (2, (1.0,))):
            tail.add(target, 0, state, 0)
        twin = ListShard(info, True)
        for target, state in ((1, (0.5,)), (2, (1.0,))):
            twin.add(target, 0, state, 0)
        assert same_edges(tail.seal(), twin.seal())  # per-edge states are cast when sealed
        assert same_edges(ListShard(info, True).seal(), ListShard(info, True).seal())

    def test_states_compare_byte_for_byte(self):
        """-0.0 differs from 0.0, and two NaN payloads differ while one
        NaN payload equals itself, although float compares say otherwise."""
        from graphabm.storage import same_edges

        info = self.info()
        zero, negative, nan, other_nan = np.array(
            [0x0, 0x8000000000000000, 0x7FF8000000000001, 0x7FF8000000000002],
            dtype=np.uint64).view(np.float64)

        def seal(w):
            return shard_of(info, [1], [0], np.array([w]), 0).seal()

        assert same_edges(seal(nan), seal(nan))
        assert not same_edges(seal(zero), seal(negative))
        assert not same_edges(seal(nan), seal(other_nan))

    def test_rewrite_replaces_newborn_sources_and_leaves_slots(self):
        """A newborn's provisional id needs more than 32 bits of slot, so
        a chunk of sources that holds one keeps ids, which the rewrite
        changes; slots of one type, which hold none, stay as they are."""
        info = self.info()
        born = provisional_id(0, 0, 0, 0)
        shard = shard_of(info, [1, 2, 3], [born, 0, 2], [0.5, 1.0, 2.0], 0)
        shard.extend(np.array([3], dtype=np.uint64), np.array([2], dtype=np.uint64),
                     (np.array([1.0]),), 0)
        chunks = shard.seal()
        validate_endpoints(info, [chunks], lambda ids: np.ones(ids.size, dtype=bool))
        rewrite_ids([chunks], np.array([born], dtype=np.uint64), np.array([1], dtype=np.uint64))
        assert [c.source_tag for c in chunks] == [None, 0]
        assert [c.sources.tolist() for c in chunks] == [[1, 0, 2], [2]]
        assert chunks[1].sources.dtype == np.uint32

    def test_the_carried_range_names_the_single_source_tag(self):
        schema = Schema()
        for name in ("A", "B"):
            schema.register_agent_type(AgentTypeDecl(name, (), immortal=True))
        schema.register_edge_type(EdgeTypeDecl("E", hints=Hint.STATELESS))
        for sources, tag in (("A", 0), ("B", 1), ("AB", None)):
            sim = Simulation(schema)
            a, b = sim.add_agents("A", 3), sim.add_agents("B", 3)
            pick = {"A": a, "B": b, "AB": np.concatenate([a[:2], b[:1]])}[sources]
            sim.add_edges("E", a, pick)
            sim.commit_initial()
            assert sim.edge_container("E").single_source_tag == tag

    def test_ordered_targets_take_no_min_or_max_scan(self):
        """The merge's SINGLE_TYPE check takes an indexed chunk's target
        tags from its index, with no min or max scan; an array of targets
        takes one of each."""
        from graphabm.checks import ViolationSink
        from graphabm.storage import check_single_type

        class Counted(np.ndarray):
            scans = 0

            def min(self, *args, **kwargs):
                Counted.scans += 1
                return super().min(*args, **kwargs)

            def max(self, *args, **kwargs):
                Counted.scans += 1
                return super().max(*args, **kwargs)

        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("A", (), immortal=True))
        schema.register_agent_type(AgentTypeDecl("B", (), immortal=True))
        schema.register_edge_type(EdgeTypeDecl(
            "E", hints=Hint.STATELESS | Hint.IGNORE_FROM | Hint.SINGLE_TYPE,
            single_type_target="A"))
        info = Simulation(schema).schema.edge_type("E")
        b0 = 1 << 56
        for targets, ordered, reports in (([0, 1, 5], True, 0), ([0, 1, b0], True, 1),
                                          ([b0, 1, 0], False, 1), ([5, 1, 0], False, 0)):
            shard = ListShard(info)
            shard.extend(np.array(targets, dtype=np.uint64))
            chunks = [c if c.targets is None else c._replace(targets=c.targets.view(Counted))
                      for c in shard.seal()]
            assert (chunks[0].index is not None) == ordered
            sink = ViolationSink("warn", 0)
            Counted.scans = 0
            check_single_type(info, [chunks], sink)
            assert Counted.scans == (0 if ordered else 2)
            assert [v.target for v in sink.reports] == [b0] * reports
