from __future__ import annotations

import numpy as np
import pytest

from graphabm import (
    AgentTypeDecl,
    CheckConfig,
    ContractViolation,
    EdgeTypeDecl,
    Hint,
    Schema,
    Simulation,
    TransitionSpec,
    apply_transition,
    finalize_step,
)

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
        with pytest.raises(ContractViolation):
            sim.add_edge("E", a[0], a[2])

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
        with pytest.raises(ContractViolation):
            sim.add_edge("E", b[0], a[0])

    def test_wrong_target_bulk_flagged(self):
        sim, a, b = checked_sim("on", single_type=True)
        with pytest.raises(ContractViolation):
            sim.add_edges(
                "E",
                np.array([b[0]], dtype=np.uint64),
                np.array([a[0]], dtype=np.uint64),
            )

    def test_bulk_add_reports_each_edge_as_single_adds_do(self):
        """A bulk add reports every offending edge, as one add per edge."""
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
        assert sorted(found[0]) == sorted(found[1])
        assert sorted(found[1]) == sorted([
            ("single_type", b[0]), ("single_type", b[1]),
            ("single_edge", a[0]), ("single_edge", a[1]), ("single_edge", a[1]),
        ])

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

    def test_from_name(self):
        assert CheckConfig.from_name("on").enabled
        assert not CheckConfig.from_name("off").enabled
        assert CheckConfig.from_name("warn").mode == "warn"
        with pytest.raises(ValueError):
            CheckConfig.from_name("sometimes")
