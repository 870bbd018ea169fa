from __future__ import annotations

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

import graphabm
from graphabm import (
    AgentTypeDecl,
    ContractViolation,
    EdgeTypeDecl,
    Hint,
    Schema,
    Simulation,
    TransitionSpec,
    UsageError,
    agent_id,
    apply_transition,
    finalize_step,
    local_index,
    partition_graph,
    run,
    type_tag,
)
from graphabm.ids import MAX_SLOT

from edge_reads import edge_read

SINGLE = Hint.STATELESS | Hint.IGNORE_FROM | Hint.SINGLE_EDGE


def checked_sim(checks, single_type=False):
    schema = Schema()
    schema.register_agent_type(AgentTypeDecl("A", (), immortal=True))
    schema.register_agent_type(AgentTypeDecl("B", (), immortal=True))
    hints = SINGLE | (Hint.SINGLE_TYPE if single_type else Hint.NONE)
    schema.register_edge_type(
        EdgeTypeDecl("E", hints=hints,
                     single_type_target="A" if single_type else None)
    )
    sim = Simulation(schema, checks=checks)
    a = sim.add_agents("A", 3, {})
    b = sim.add_agents("B", 2, {})
    return sim, a.tolist(), b.tolist()


class TestSingleEdge:
    def test_double_add_same_target_flagged(self):
        sim, a, b = checked_sim("on")
        sim.add_edge("E", a[0], a[1])
        sim.add_edge("E", a[0], a[2])
        with pytest.raises(ContractViolation):
            sim.commit_initial()

    def test_adds_to_distinct_targets_ok(self):
        sim, a, b = checked_sim("on")
        sim.add_edge("E", a[0], a[1])
        sim.add_edge("E", a[1], a[2])
        sim.commit_initial()

    def test_double_add_allowed_with_checks_off(self):
        sim, a, b = checked_sim("off")
        sim.add_edge("E", a[0], a[1])
        sim.add_edge("E", a[0], a[2])
        sim.commit_initial()
        assert edge_read(sim.edge_container("E"), "has", a[0])

    def test_warn_mode_records_and_continues(self):
        sim, a, b = checked_sim("warn")
        sim.add_edge("E", a[0], a[1])
        sim.add_edge("E", a[0], a[2])
        sim.commit_initial()
        kinds = [v.kind for v in sim.check_reports]
        assert "single_edge" in kinds
        report = sim.check_reports[0]
        assert report.edge_type == "E"
        assert report.target == a[0]

    def test_cross_worker_double_add_caught_at_merge(self):
        sim, a, b = checked_sim("warn")
        sim.commit_initial()

        def both_point_at_zero(view, params, g):
            view.add_edge("E", a[0])
            return None

        spec = TransitionSpec(callable_types=("A", "B"), write_types=("E",))
        apply_transition(sim, both_point_at_zero, spec, workers=2)
        finalize_step(sim)
        assert any(v.kind == "single_edge" for v in sim.check_reports)

    def test_last_write_wins_for_single_full_edge_checks_off(self):
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("A", (), immortal=True))
        schema.register_edge_type(
            EdgeTypeDecl("E", (("w", "float64"),), hints=Hint.SINGLE_EDGE)
        )
        sim = Simulation(schema, checks="off")
        ids = sim.add_agents("A", 2, {})
        sim.add_edge("E", int(ids[0]), int(ids[1]), (1.0,))
        sim.add_edge("E", int(ids[0]), int(ids[1]), (2.0,))
        sim.commit_initial()
        records = edge_read(sim.edge_container("E"), "records", int(ids[0]))
        assert records[0].state == (2.0,)


class TestSingleType:
    def test_correct_target_type_ok(self):
        sim, a, b = checked_sim("on", single_type=True)
        sim.add_edge("E", a[0], b[0])
        sim.commit_initial()

    def test_wrong_target_type_flagged(self):
        sim, a, b = checked_sim("on", single_type=True)
        sim.add_edge("E", b[0], a[0])
        with pytest.raises(ContractViolation):
            sim.commit_initial()

    def test_wrong_target_bulk_flagged(self):
        sim, a, b = checked_sim("on", single_type=True)
        sim.add_edges(
            "E",
            np.array([b[0]], dtype=np.uint64),
            np.array([a[0]], dtype=np.uint64),
        )
        with pytest.raises(ContractViolation):
            sim.commit_initial()

    def test_bulk_add_reports_each_edge_as_single_adds_do(self):
        """A bulk add reports every offending edge, as one add per edge,
        in the same order: SINGLE_TYPE in add order, then SINGLE_EDGE in
        target order."""
        found = []
        for bulk in (False, True):
            sim, a, b = checked_sim("warn", single_type=True)
            targets = [a[0], b[0], a[0], b[1], a[1], a[1]]
            sim.add_edge("E", a[1], a[2])
            if bulk:
                sim.add_edges("E", np.array(targets, dtype=np.uint64),
                              np.array(targets, dtype=np.uint64))
            else:
                for t in targets:
                    sim.add_edge("E", t, t)
            sim.commit_initial()
            found.append([(v.kind, v.target) for v in sim.check_reports])
        assert found[0] == found[1]
        assert found[1] == [
            ("single_type", b[0]), ("single_type", b[1]),
            ("single_edge", a[0]), ("single_edge", a[1]), ("single_edge", a[1]),
        ]

    def test_checks_off_wrong_type_target_agrees_with_full_records(self):
        # With checks off, a wrong-type target is accepted silently, and the
        # hinted store records it where a FullEdgeList oracle does: on the
        # target itself, not on the same-index agent of the declared type.
        sim, a, b = checked_sim("off", single_type=True)
        add = sim.edge_adder("E")
        add(b[1], a[0])
        sim.commit_initial()
        oracle = Schema()
        oracle.register_agent_type(AgentTypeDecl("A", (), immortal=True))
        oracle.register_agent_type(AgentTypeDecl("B", (), immortal=True))
        oracle.register_edge_type(EdgeTypeDecl("E"))
        osim = Simulation(oracle, checks="off")
        oa = osim.add_agents("A", 3, {})
        ob = osim.add_agents("B", 2, {})
        osim.add_edge("E", int(ob[1]), int(oa[0]))
        osim.commit_initial()
        assert edge_read(osim.edge_container("E"), "has", int(ob[1]))
        assert not edge_read(osim.edge_container("E"), "has", int(oa[1]))
        hinted = sim.edge_container("E")
        assert edge_read(hinted, "has", b[1])
        assert not edge_read(hinted, "has", a[1])
        assert sim.check_reports == []

    def test_violation_report_carries_context(self):
        sim, a, b = checked_sim("warn", single_type=True)
        sim.add_edge("E", b[0], a[0])
        report = sim.check_reports[0] if sim.check_reports else None
        sim.commit_initial()
        report = sim.check_reports[0]
        assert report.kind == "single_type"
        assert report.edge_type == "E"
        assert report.target == b[0]
        assert report.step == 0


class TestChecksNeutrality:
    def test_contract_respecting_model_identical_on_off(self):
        from graphabm.models.hk import HKConfig, hk_run

        cfg = HKConfig(n=80, epsilon=0.3, seed=4)
        on = hk_run(cfg, 6, checks="on", collect_metrics=False)
        off = hk_run(cfg, 6, checks="off", collect_metrics=False)
        warn = hk_run(cfg, 6, checks="warn", collect_metrics=False)
        assert on.checksum == off.checksum == warn.checksum

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_unknown_mode_raises(self, workers):
        """A misspelled mode is refused by the simulation, and by the next
        merge when it is set later, which leaves nothing staged."""
        with pytest.raises(UsageError, match="'on', 'off', 'warn'"):
            checked_sim("erorr")
        sim, _, _ = checked_sim("on")
        sim.commit_initial()
        sim.checks = "erorr"
        with pytest.raises(UsageError, match="unknown checks mode 'erorr'"):
            apply_transition(sim, lambda v, p, g: None,
                             TransitionSpec(callable_types=("A",), write_types=("E",)),
                             workers=workers)
        assert sim._staged is None


class TestCheckSites:
    """The edge contracts are checked in one place, the merge."""

    def test_reports_are_made_in_the_merge_alone(self):
        """No module of the package but the merge functions of storage
        calls ``ViolationSink.report``."""
        root = Path(graphabm.__file__).parent
        callers = set()
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            functions = [node for node in ast.walk(tree)
                         if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "report":
                    inside = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                    where = max(inside, key=lambda f: f.lineno).name if inside else None
                    callers.add((path.relative_to(root).as_posix(), where))
        assert sorted(callers) == [("storage.py", "_single_edge_order"),
                                   ("storage.py", "check_single_type")]

    def test_the_view_builds_and_holds_no_sink(self):
        """``view.py`` names no sink: it imports none, builds none and
        keeps none in an attribute, a parameter or a slot."""
        path = Path(graphabm.__file__).parent / "view.py"
        names = []
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.append(node.id)
            elif isinstance(node, ast.Attribute):
                names.append(node.attr)
            elif isinstance(node, ast.arg):
                names.append(node.arg)
            elif isinstance(node, ast.alias):
                names.append(node.name)
            elif isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            elif isinstance(node, ast.Assign) and "__slots__" in [
                    getattr(t, "id", None) for t in node.targets]:
                names += [c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)]
        assert not [n for n in names if "sink" in n.lower() or n in ("checks", "report")]


# ---------------------------------------------------------------------------
# One reports list for every worker count, partition, order and form
# ---------------------------------------------------------------------------

N_P, N_Q = 12, 6
WRONG = "edge targets an agent of the wrong type (expected tag 0)"
SECOND = "second edge added to a SINGLE_EDGE target"
RETAINED = "SINGLE_EDGE target already had a retained edge"
ORACLE_DECLS = {
    # EXISTENCE_BIT with both contracts, COUNT_ONLY and SINGLE_FULL_EDGE
    "Bit": EdgeTypeDecl("Bit", hints=SINGLE | Hint.SINGLE_TYPE, single_type_target="P"),
    "Cnt": EdgeTypeDecl("Cnt", hints=Hint.STATELESS | Hint.IGNORE_FROM | Hint.SINGLE_TYPE,
                        single_type_target="P"),
    "One": EdgeTypeDecl("One", (("w", "float64"),), hints=Hint.SINGLE_EDGE),
}


def emitted(aid: int, rnd: int) -> list:
    """The ``(edge type, target)`` pairs agent ``aid`` adds in round
    ``rnd``, in call order: edges to P agents that collide across agents,
    and wrong-type edges to Q agents."""
    s = local_index(aid)
    p = lambda k: agent_id(0, k % N_P)  # noqa: E731
    q = lambda k: agent_id(1, k % N_Q)  # noqa: E731
    out = [("Bit", p(3 * s + rnd)), ("Bit", p(s + 1))]
    if (s + rnd) % 3 == 0:
        out.append(("Bit", q(s)))
    if type_tag(aid) == 1:
        out.append(("Cnt", q(s + rnd)))
    out += [("Cnt", p(s)), ("One", p(s // 2 + rnd))]
    return out


def emit_forms(types):
    """The per-agent and the batch form of one transition that adds the
    agents' ``emitted`` edges of ``types``."""
    def agent_form(view, params, g):
        for name, target in emitted(view.agent_id, g["round"]):
            if name in types:
                view.add_edge(name, target, (float(local_index(view.agent_id)),))

    def batch_form(batch, params, g):
        ids = batch.ids.tolist()
        for name in types:
            pairs = [(i, t) for i, aid in enumerate(ids)
                     for n, t in emitted(aid, g["round"]) if n == name]
            if pairs:
                agents, targets = (np.array(c) for c in zip(*pairs))
                states = [local_index(batch.ids[agents]).astype(float)]
                batch.add_edges(name, targets.astype(np.uint64), agents=agents,
                                states=states if name == "One" else None)

    return [(fn, TransitionSpec(callable_types=("P", "Q"), write_types=types, batch=batch))
            for fn, batch in ((agent_form, False), (batch_form, True))]


def spawn(view, params, g):
    """Every fourth P agent creates a P and a Q agent and adds edges to
    both: wrong-type edges to the Q newborn and two to the P newborn, and
    one to P0, whose edge of the last round is retained."""
    if local_index(view.agent_id) % 4 == 1:
        q = view.add_agent("Q")
        p = view.add_agent("P", local_index(view.agent_id))
        for name, target in (("Bit", q), ("Bit", p), ("Cnt", q), ("Bit", p), ("Bit", 0)):
            view.add_edge(name, target)
    return view.state


SPAWN = TransitionSpec(callable_types=("P",), write_types=("P", "Q", "Bit", "Cnt"),
                       keep_existing=("Q", "Bit", "Cnt"))


def set_round(sim):
    sim.set_global("round", sim.step)


def oracle_sim(types, checks):
    schema = Schema()
    schema.register_agent_type(AgentTypeDecl("P", (("x", "int64"),)))
    schema.register_agent_type(AgentTypeDecl("Q", ()))
    for name in types:
        schema.register_edge_type(ORACLE_DECLS[name])
    sim = Simulation(schema, checks=checks)
    sim.add_agents("P", N_P, {"x": np.arange(N_P)})
    sim.add_agents("Q", N_Q)
    return sim


def drive(sim, program, steps, workers, strategy, shuffle):
    """``run`` the program, or with ``shuffle`` apply it transition by
    transition, each call shuffled, on one partition made at the start."""
    if not shuffle:
        run(sim, steps, program, workers=workers, strategy=strategy)
        return
    partition = partition_graph(sim, workers, strategy) if workers > 1 else None
    rng = np.random.default_rng(7)
    for _ in range(steps):
        for item in program:
            if callable(item):
                item(sim)
                continue
            apply_transition(sim, *item, workers=workers, partition=partition, shuffle=rng)
            finalize_step(sim)


RUNS = [(1, "contiguous")] + [(w, s) for w in (2, 4)
                              for s in ("contiguous", "round_robin", "greedy_edge_cut")]


def reports_of(types, births, checks="warn", steps=3):
    """Per run of the matrix, the reports as tuples, or the message the
    run raised."""
    out = {}
    for (workers, strategy), shuffle, form in itertools.product(RUNS, (False, True), (0, 1)):
        sim = oracle_sim(types, checks)
        program = [set_round, emit_forms(types)[form]] + ([(spawn, SPAWN)] if births else [])
        key = (workers, strategy, shuffle, form)
        try:
            drive(sim, program, steps, workers, strategy, shuffle)
        except ContractViolation as exc:
            assert sim._staged is None, key
            out[key] = str(exc)
            continue
        out[key] = [(v.kind, v.edge_type, v.target, v.producer, v.step, v.message)
                    for v in sim.check_reports]
    return out


def one_worker_reports(steps):
    """The reports of ``Bit`` alone, without births, as one worker running
    the per-agent form in id order makes them: per step, each wrong-type
    edge in producer order, each producer's in call order, then each edge
    beyond a target's first, in target order."""
    ids = [agent_id(0, s) for s in range(N_P)] + [agent_id(1, s) for s in range(N_Q)]
    out = []
    for step in range(steps):
        edges = [(aid, t) for aid in ids for name, t in emitted(aid, step) if name == "Bit"]
        out += [("single_type", "Bit", t, aid, step, WRONG)
                for aid, t in edges if type_tag(t) != 0]
        by_target = sorted(edges, key=lambda e: e[1])
        out += [("single_edge", "Bit", t, aid, step, SECOND)
                for (_, first), (aid, t) in zip(by_target, by_target[1:]) if t == first]
    return out


class TestReportsOracle:
    """Warn-mode reports are one list, in one order, at any worker count
    and partition, shuffled or not, in the per-agent and the batch form."""

    def test_one_edge_type_gives_the_one_worker_list(self):
        found = reports_of(("Bit",), births=False)
        expected = one_worker_reports(3)
        assert {"single_type", "single_edge"} <= {r[0] for r in expected}
        assert all(reports == expected for reports in found.values()), [
            key for key, reports in found.items() if reports != expected]

    def test_edge_types_and_newborns_give_one_list(self):
        found = reports_of(("Bit", "Cnt", "One"), births=True)
        first = found[(1, "contiguous", False, 0)]
        assert all(reports == first for reports in found.values()), [
            key for key, reports in found.items() if reports != first]
        kinds = {(r[0], r[1]) for r in first}
        assert kinds == {("single_type", "Bit"), ("single_edge", "Bit"),
                         ("single_type", "Cnt"), ("single_edge", "One")}
        assert RETAINED in {r[5] for r in first}
        # reports on edges to newborns name their final ids, not provisional ones
        assert any(type_tag(r[2]) == 1 and local_index(r[2]) >= N_Q for r in first)
        assert all(local_index(r[2]) < MAX_SLOT for r in first)

    def test_error_mode_raises_one_message(self):
        found = reports_of(("Bit", "Cnt", "One"), births=True, checks="on")
        messages = set(found.values())
        assert len(messages) == 1
        assert messages.pop().startswith(WRONG)


class TestKeptMergesHideNoBreach:
    """A re-emitted wrong-type edge is reported at every step, also when
    its list plan's merge could be reused, and after the checks are
    switched back on."""

    @staticmethod
    def emit(view, params, g):
        s = local_index(view.agent_id)
        view.add_edge("L", agent_id(1, s % 2))  # to a B agent: the wrong type
        view.add_edge("L", agent_id(0, (s + 1) % 3))

    SPEC = TransitionSpec(callable_types=("A",), write_types=("L",))

    def sim(self, checks):
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("A", (), immortal=True))
        schema.register_agent_type(AgentTypeDecl("B", (), immortal=True))
        schema.register_edge_type(EdgeTypeDecl("L", hints=Hint.STATELESS | Hint.SINGLE_TYPE,
                                               single_type_target="A"))
        sim = Simulation(schema, checks=checks)
        sim.add_agents("A", 3)
        sim.add_agents("B", 2)
        return sim

    def per_step(self, sim):
        steps = {}
        for v in sim.check_reports:
            steps.setdefault(v.step, []).append((v.kind, v.target, v.producer))
        return steps

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_step_reports_the_re_emitted_breaches(self, workers):
        once = [("single_type", agent_id(1, s % 2), s) for s in range(3)]
        sim = self.sim("warn")
        run(sim, 3, [(self.emit, self.SPEC)], workers=workers)
        assert self.per_step(sim) == {0: once, 1: once, 2: once}

        sim.checks = "off"
        run(sim, 2, [(self.emit, self.SPEC)], workers=workers)
        assert len(sim.check_reports) == 9
        assert sim.step_metrics[-1]["merges_reused"] == 1

        sim.checks = "warn"
        run(sim, 2, [(self.emit, self.SPEC)], workers=workers)
        assert self.per_step(sim) == {0: once, 1: once, 2: once, 5: once, 6: once}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_merge_kept_unchecked_is_checked_again(self, workers):
        sim = self.sim("off")
        run(sim, 2, [(self.emit, self.SPEC)], workers=workers)
        assert sim.step_metrics[-1]["merges_reused"] == 1
        sim.checks = "on"
        with pytest.raises(ContractViolation, match="wrong type"):
            run(sim, 1, [(self.emit, self.SPEC)], workers=workers)
        assert sim._staged is None and sim.step == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_reused_merge_reports_again(self, workers):
        """A warn-mode merge that reported is kept, and each step that
        reuses it reports the same breaches again."""
        once = [("single_type", agent_id(1, s % 2), s) for s in range(3)]
        sim = self.sim("warn")
        run(sim, 4, [(self.emit, self.SPEC)], workers=workers)
        assert [m["merges_reused"] for m in sim.step_metrics] == [0, 1, 1, 1]
        assert self.per_step(sim) == {step: once for step in range(4)}


class TestChecksSettingMidRun:
    """``sim.checks`` set by a program callable during a run reaches every
    worker: the reports, the checksum and the reused merges are those of
    one worker, at any worker count."""

    N_A = 5

    @staticmethod
    def emit(view, params, g):
        s = local_index(view.agent_id)
        for name in ("L", "C"):
            view.add_edge(name, agent_id(1, s % 2))  # to a B agent: the wrong type
            view.add_edge(name, agent_id(0, (s + 1) % TestChecksSettingMidRun.N_A))

    SPEC = TransitionSpec(callable_types=("A",), write_types=("L", "C"))

    def sim(self):
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("A", (), immortal=True))
        schema.register_agent_type(AgentTypeDecl("B", (), immortal=True))
        for name, hints in (("L", Hint.STATELESS),  # SOURCE_ONLY_LIST
                            ("C", Hint.STATELESS | Hint.IGNORE_FROM)):  # COUNT_ONLY
            schema.register_edge_type(EdgeTypeDecl(name, hints=hints | Hint.SINGLE_TYPE,
                                                   single_type_target="A"))
        sim = Simulation(schema, checks="off")
        sim.add_agents("A", self.N_A)
        sim.add_agents("B", 2)
        return sim

    def outcome(self, modes, workers):
        def switch(sim):
            sim.checks = modes[sim.step]

        sim = self.sim()
        run(sim, len(modes), [switch, (self.emit, self.SPEC)], workers=workers)
        return ([(v.kind, v.edge_type, v.target, v.producer, v.step, v.message)
                 for v in sim.check_reports],
                sim.state_checksum(), [m["merges_reused"] for m in sim.step_metrics])

    def test_off_warn_off_gives_one_outcome(self):
        modes = ["off", "off", "warn", "warn", "off", "off"]
        found = {w: self.outcome(modes, w) for w in (1, 2, 3)}
        assert found[2] == found[1] and found[3] == found[1]
        reports, _, reused = found[1]
        assert reports == [("single_type", name, agent_id(1, s % 2), agent_id(0, s), step, WRONG)
                           for step in (2, 3) for name in ("L", "C") for s in range(self.N_A)]
        # COUNT_ONLY records producers only with the checks on, so its
        # merge is rebuilt at each switch; the list plan's is reused
        assert reused == [0, 2, 1, 2, 1, 2]

    def test_a_switch_to_on_raises_one_message(self):
        messages = set()
        for workers in (1, 2, 3):
            sim = self.sim()
            with pytest.raises(ContractViolation) as caught:
                run(sim, 3, [lambda sim: setattr(sim, "checks", ("off", "on")[sim.step > 0]),
                             (self.emit, self.SPEC)], workers=workers)
            assert sim._staged is None and sim.step == 1
            messages.add(str(caught.value))
        assert len(messages) == 1 and messages.pop().startswith(WRONG)

    def test_a_commit_made_on_the_control_alone_carries_the_setting(self):
        """The run's workers merge a transition that a program callable
        applies alone under the setting it was applied with, not the one
        of their last run request."""
        def clean(view, params, g):
            pass

        def alone(sim):
            sim.checks = "warn"
            apply_transition(sim, self.emit, self.SPEC)
            finalize_step(sim)
            sim.checks = "on"

        found = []
        for workers in (1, 2):
            sim = self.sim()
            sim.checks = "on"
            run(sim, 2, [(clean, self.SPEC), alone], workers=workers)
            found.append(([(v.edge_type, v.target, v.producer, v.step) for v in sim.check_reports],
                          sim.state_checksum()))
        assert found[1] == found[0] and len(found[0][0]) == 4 * self.N_A
