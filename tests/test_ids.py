from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphabm import IndexOverflow, agent_id, local_index, partition_of, split_id, type_tag
from graphabm.ids import (
    COMP_SHIFT,
    MAX_INDEX,
    MAX_PARTITIONS,
    PART_BITS,
    TYPE_MASK,
    group_by_comp,
)


@given(
    tag=st.integers(0, TYPE_MASK),
    part=st.integers(0, MAX_PARTITIONS - 1),
    index=st.integers(0, MAX_INDEX - 1),
)
def test_roundtrip(tag, part, index):
    aid = agent_id(tag, part, index)
    assert split_id(aid) == (tag, part, index)
    assert type_tag(aid) == tag
    assert partition_of(aid) == part
    assert local_index(aid) == index


def test_packing_layout():
    aid = agent_id(3, 5, 7)
    assert aid == (3 << 56) | (5 << 36) | 7


def test_fits_64_bits():
    aid = agent_id(TYPE_MASK, MAX_PARTITIONS - 1, MAX_INDEX - 1)
    assert aid < 2**64


@pytest.mark.parametrize(
    "tag,part,index",
    [
        (0, 0, MAX_INDEX),
        (0, MAX_PARTITIONS, 0),
        (256, 0, 0),
        (0, 0, -1),
        (-1, 0, 0),
    ],
)
def test_out_of_range_rejected(tag, part, index):
    with pytest.raises(IndexOverflow):
        agent_id(tag, part, index)


class TestGroupByComp:
    def test_empty_array(self):
        assert group_by_comp(np.empty(0, dtype=np.uint64)) == []

    def test_one_composite_takes_no_mask(self):
        ids = np.array([agent_id(3, 2, i) for i in (7, 0, 5)], dtype=np.uint64)
        ((comp, sel, slots),) = group_by_comp(ids)
        assert comp == (3 << PART_BITS) | 2
        assert sel == slice(None)
        assert slots.tolist() == [7, 0, 5]

    def test_two_types_and_two_partitions(self):
        triples = [(1, 0, 4), (0, 1, 2), (1, 0, 9), (0, 0, 3), (0, 1, 6), (1, 0, 4)]
        ids = np.array([agent_id(*t) for t in triples], dtype=np.uint64)
        groups = group_by_comp(ids)
        assert [comp for comp, _, _ in groups] == [0, 1, 1 << PART_BITS]
        for comp, sel, slots in groups:
            expected = [i for tag, part, i in triples if (tag << PART_BITS) | part == comp]
            assert slots.tolist() == expected
            assert (ids[sel] >> np.uint64(COMP_SHIFT)).tolist() == [comp] * len(expected)
