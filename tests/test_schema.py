from __future__ import annotations

import ast
import itertools
from pathlib import Path

import pytest

import graphabm
from graphabm import (
    AgentTypeDecl,
    DuplicateName,
    EdgePlan,
    EdgeTypeDecl,
    Hint,
    IllegalHintCombination,
    Schema,
    TooManyTypes,
    UnknownName,
    storage_plan_for,
)

ALL_HINTS = (
    Hint.STATELESS,
    Hint.IGNORE_FROM,
    Hint.IGNORE_SOURCE_STATE,
    Hint.SINGLE_EDGE,
    Hint.SINGLE_TYPE,
)


def all_hint_sets():
    for bits in itertools.product((False, True), repeat=len(ALL_HINTS)):
        combo = Hint.NONE
        for on, h in zip(bits, ALL_HINTS):
            if on:
                combo |= h
        yield combo


def is_legal(hints: Hint) -> bool:
    if Hint.SINGLE_EDGE in hints and Hint.SINGLE_TYPE in hints:
        return Hint.STATELESS in hints and Hint.IGNORE_FROM in hints
    return True


class TestRegistration:
    def test_sequential_agent_tags(self):
        schema = Schema()
        assert schema.register_agent_type(
            AgentTypeDecl("Person", (("opinion", "float64"),))
        ) == 0
        assert schema.register_agent_type(AgentTypeDecl("Location")) == 1

    def test_duplicate_agent_name(self):
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("Person"))
        with pytest.raises(DuplicateName):
            schema.register_agent_type(AgentTypeDecl("Person"))

    def test_duplicate_edge_name(self):
        schema = Schema()
        schema.register_edge_type(EdgeTypeDecl("Knows"))
        with pytest.raises(DuplicateName):
            schema.register_edge_type(EdgeTypeDecl("Knows"))

    def test_names_shared_across_kinds_rejected(self):
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("Thing"))
        with pytest.raises(DuplicateName):
            schema.register_edge_type(EdgeTypeDecl("Thing"))

    def test_type_cap(self):
        schema = Schema()
        for i in range(255):
            schema.register_agent_type(AgentTypeDecl(f"T{i}"))
        with pytest.raises(TooManyTypes):
            schema.register_agent_type(AgentTypeDecl("overflow"))

    def test_replay_gives_identical_tags(self):
        def build():
            schema = Schema()
            a = schema.register_agent_type(AgentTypeDecl("A"))
            b = schema.register_agent_type(AgentTypeDecl("B"))
            e = schema.register_edge_type(EdgeTypeDecl("E"))
            return a, b, e

        assert build() == build()

    def test_unknown_lookup(self):
        schema = Schema()
        with pytest.raises(UnknownName):
            schema.agent_type("nope")

    def test_single_type_target_must_exist(self):
        schema = Schema()
        with pytest.raises(UnknownName):
            schema.register_edge_type(
                EdgeTypeDecl(
                    "E",
                    hints=Hint.STATELESS | Hint.SINGLE_TYPE,
                    single_type_target="Ghost",
                )
            )

    def test_single_type_requires_target_name(self):
        with pytest.raises(IllegalHintCombination):
            EdgeTypeDecl("E", hints=Hint.SINGLE_TYPE)
        with pytest.raises(IllegalHintCombination):
            EdgeTypeDecl("E", single_type_target="A")


class TestStoragePlan:
    def test_plan_table(self):
        assert storage_plan_for(Hint.NONE) is EdgePlan.FULL_EDGE_LIST
        assert storage_plan_for(Hint.STATELESS) is EdgePlan.SOURCE_ONLY_LIST
        assert storage_plan_for(Hint.IGNORE_FROM) is EdgePlan.STATE_ONLY_LIST
        assert storage_plan_for(Hint.STATELESS | Hint.IGNORE_FROM) is EdgePlan.COUNT_ONLY
        assert (
            storage_plan_for(Hint.STATELESS | Hint.IGNORE_FROM | Hint.SINGLE_EDGE)
            is EdgePlan.EXISTENCE_BIT
        )
        assert storage_plan_for(Hint.SINGLE_EDGE) is EdgePlan.SINGLE_FULL_EDGE
        assert (
            storage_plan_for(Hint.SINGLE_EDGE | Hint.STATELESS)
            is EdgePlan.SINGLE_FULL_EDGE
        )

    def test_all_hints_like_masked_write(self):
        combo = (
            Hint.STATELESS | Hint.IGNORE_FROM | Hint.SINGLE_EDGE | Hint.SINGLE_TYPE
        )
        assert storage_plan_for(combo) is EdgePlan.EXISTENCE_BIT

    def test_orthogonal_hints_do_not_change_shape(self):
        for hints in all_hint_sets():
            if not is_legal(hints):
                continue
            with_iss = hints | Hint.IGNORE_SOURCE_STATE
            assert storage_plan_for(hints) is storage_plan_for(with_iss)

    def test_every_legal_set_has_unique_plan(self):
        for hints in all_hint_sets():
            if is_legal(hints):
                plan = storage_plan_for(hints)
                assert isinstance(plan, EdgePlan)
            else:
                with pytest.raises(IllegalHintCombination):
                    storage_plan_for(hints)

    def test_illegal_combination_fails_registration(self):
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("A"))
        with pytest.raises(IllegalHintCombination):
            schema.register_edge_type(
                EdgeTypeDecl(
                    "E",
                    hints=Hint.SINGLE_EDGE | Hint.SINGLE_TYPE,
                    single_type_target="A",
                )
            )
        # nothing was registered
        assert len(schema.edge_types) == 0

    def test_plan_recorded_on_registration(self):
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("A"))
        schema.register_edge_type(EdgeTypeDecl("Plain"))
        schema.register_edge_type(
            EdgeTypeDecl(
                "Packed",
                hints=Hint.STATELESS
                | Hint.IGNORE_FROM
                | Hint.SINGLE_EDGE
                | Hint.SINGLE_TYPE,
                single_type_target="A",
            )
        )
        assert schema.edge_type("Plain").plan is EdgePlan.FULL_EDGE_LIST
        assert schema.edge_type("Packed").plan is EdgePlan.EXISTENCE_BIT

    def test_stateless_drops_declared_layout(self):
        schema = Schema()
        schema.register_edge_type(
            EdgeTypeDecl("E", (("w", "float64"),), hints=Hint.STATELESS)
        )
        info = schema.edge_type("E")
        assert not info.has_state
        assert info.stateless


class TestReadGate:
    def test_hint_violation_is_raised_by_the_gate_alone(self):
        """Which reads a plan refuses is decided in one place: no module
        of the package but the gate raises HintViolation."""
        root = Path(graphabm.__file__).parent
        raisers = []
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            functions = [node for node in ast.walk(tree)
                         if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
            for node in ast.walk(tree):
                if isinstance(node, ast.Raise) and _names_hint_violation(node.exc):
                    inside = [f for f in functions
                              if f.lineno <= node.lineno <= f.end_lineno]
                    where = max(inside, key=lambda f: f.lineno).name if inside else None
                    raisers.append((path.relative_to(root).as_posix(), where))
        assert raisers == [("schema.py", "check_read")]


def _names_hint_violation(exc) -> bool:
    target = exc.func if isinstance(exc, ast.Call) else exc
    return getattr(target, "id", getattr(target, "attr", None)) == "HintViolation"
