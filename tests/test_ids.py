from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import graphabm
from graphabm import AgentTypeDecl, IndexOverflow, UsageError, agent_id, local_index, type_tag
from graphabm.ids import (
    COUNT_BITS,
    MAX_SLOT,
    SLOT_MASK,
    STEP_BITS,
    TAG_SHIFT,
    TYPE_MASK,
    WORKER_BITS,
    as_ids,
    provisional_id,
    slot_ids,
    split_by_tag,
)
from graphabm.schema import Schema
from graphabm.storage import AgentSegment


@given(tag=st.integers(0, TYPE_MASK), slot=st.integers(0, SLOT_MASK))
def test_roundtrip(tag, slot):
    aid = agent_id(tag, slot)
    assert type_tag(aid) == tag
    assert local_index(aid) == slot
    ids = np.array([aid], dtype=np.uint64)
    assert type_tag(ids).tolist() == [tag]
    assert local_index(ids).tolist() == [slot]
    assert slot_ids(tag, np.array([slot], dtype=np.uint64)).tolist() == [aid]


def test_packing_layout():
    assert agent_id(3, 7) == (3 << 56) | 7


def test_fits_64_bits():
    assert agent_id(TYPE_MASK, SLOT_MASK) == 2**64 - 1


@pytest.mark.parametrize(
    "tag,slot",
    [(0, SLOT_MASK + 1), (256, 0), (0, -1), (-1, 0)],
)
def test_out_of_range_rejected(tag, slot):
    with pytest.raises(IndexOverflow):
        agent_id(tag, slot)


class TestProvisionalIds:
    def test_fields_fill_the_slot_below_its_top_bit(self):
        assert STEP_BITS + WORKER_BITS + COUNT_BITS + 1 == TAG_SHIFT
        last = provisional_id(TYPE_MASK, 2**STEP_BITS - 1, 2**WORKER_BITS - 1,
                              2**COUNT_BITS - 1)
        assert last == 2**64 - 1

    @pytest.mark.parametrize(
        "worker,count",
        [(0, 1 << COUNT_BITS), (1 << WORKER_BITS, 0), (0, -1), (-1, 0)],
    )
    def test_overflowing_fields_rejected(self, worker, count):
        with pytest.raises(IndexOverflow):
            provisional_id(1, 0, worker, count)

    def test_step_worker_and_count_each_give_another_id(self):
        ids = {provisional_id(1, step, worker, count)
               for step in (0, 1) for worker in (0, 1) for count in (0, 1)}
        assert len(ids) == 8

    def test_step_wraps(self):
        assert provisional_id(1, 2**STEP_BITS + 3, 2, 5) == provisional_id(1, 3, 2, 5)

    @given(step=st.integers(0, 2**20), worker=st.integers(0, 2**WORKER_BITS - 1),
           count=st.integers(0, 2**COUNT_BITS - 1))
    def test_slot_lies_past_every_segment(self, step, worker, count):
        aid = provisional_id(2, step, worker, count)
        ids = np.array([agent_id(2, 5), aid], dtype=np.uint64)
        ((tag, _, slots),) = split_by_tag(ids)
        assert tag == 2 == type_tag(aid)
        assert slots[0] == 5
        assert slots[1] >= MAX_SLOT


def test_place_stops_below_the_provisional_slots():
    schema = Schema()
    schema.register_agent_type(AgentTypeDecl("P", (("x", "float64"),)))
    seg = AgentSegment(schema.agent_types[0])
    seg.count = MAX_SLOT
    with pytest.raises(IndexOverflow):
        seg.place(1)
    assert seg.count == MAX_SLOT
    assert seg.fields["x"].size == 0 and seg.alive.size == 0


class TestSplitByTag:
    def test_empty_array(self):
        assert split_by_tag(np.empty(0, dtype=np.uint64)) == []

    def test_one_type_takes_no_mask(self):
        ids = np.array([agent_id(3, i) for i in (7, 0, 5)], dtype=np.uint64)
        ((tag, sel, slots),) = split_by_tag(ids)
        assert tag == 3
        assert sel == slice(None)
        assert slots.tolist() == [7, 0, 5]

    def test_two_types(self):
        pairs = [(1, 4), (0, 2), (1, 9), (0, 3), (0, 6), (1, 4)]
        ids = np.array([agent_id(tag, i) for tag, i in pairs], dtype=np.uint64)
        groups = split_by_tag(ids)
        assert [tag for tag, _, _ in groups] == [0, 1]
        for tag, sel, slots in groups:
            expected = [i for t, i in pairs if t == tag]
            assert slots.tolist() == expected
            assert (ids[sel] >> np.uint64(TAG_SHIFT)).tolist() == [tag] * len(expected)


class TestAsIds:
    def test_uint32_and_uint64_arrays_are_not_copied(self):
        for dtype in (np.uint32, np.uint64):
            ids = np.arange(4, dtype=dtype)
            assert as_ids(ids) is ids

    @pytest.mark.parametrize("values", [[3, 1], np.array([3, 1], dtype=np.int32),
                                        np.array([3, 1], dtype=np.int64)])
    def test_other_integers_become_uint64(self, values):
        got = as_ids(values)
        assert got.dtype == np.uint64 and got.tolist() == [3, 1]

    @pytest.mark.parametrize("values", [[0.5, 1.0], np.array([1.0]), np.array([True]),
                                        ["1"], [1, "a"], [1 << 64]])
    def test_other_dtypes_are_refused_naming_the_column(self, values):
        with pytest.raises(UsageError, match="targets must be integer ids"):
            as_ids(values, "targets")

    @pytest.mark.parametrize("values", [[-1, 0], np.array([3, -2], dtype=np.int32),
                                        np.array([0, -(1 << 63)], dtype=np.int64),
                                        np.array([-1], dtype=np.int8)])
    def test_negative_ids_are_refused_naming_the_column(self, values):
        with pytest.raises(UsageError, match="targets must be non-negative ids"):
            as_ids(values, "targets")

    def test_unsigned_ids_are_taken_whatever_their_values(self):
        ids = np.array([0, 1 << 63, (1 << 64) - 1], dtype=np.uint64)
        assert as_ids(ids, "targets") is ids
        assert as_ids(np.array([7, 0], dtype=np.uint8)).tolist() == [7, 0]

    @pytest.mark.parametrize("values", [[], np.empty(0), np.empty(0, dtype=bool)])
    def test_no_ids_of_any_dtype_are_none(self, values):
        got = as_ids(values)
        assert got.dtype == np.uint64 and got.size == 0


LAYOUT_NAMES = {"TAG_SHIFT", "SLOT_MASK", "PROVISIONAL"}


def test_only_ids_imports_the_layout():
    """Every other module packs and unpacks ids through ``graphabm.ids``'
    functions, so that the id layout is written down in one place."""
    root = Path(graphabm.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "ids.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                star = "*" in names and (node.module or "").endswith("ids")
                if names & LAYOUT_NAMES or star:
                    offenders.append(f"{path.relative_to(root)}:{node.lineno}")
            elif isinstance(node, ast.Attribute) and node.attr in LAYOUT_NAMES:
                offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert offenders == []
