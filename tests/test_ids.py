from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphabm import IndexOverflow, agent_id, local_index, partition_of, split_id, type_tag
from graphabm.ids import (
    MAX_INDEX,
    MAX_PARTITIONS,
    SLOT_MASK,
    TAG_SHIFT,
    TYPE_MASK,
    split_by_tag,
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


class TestSplitByTag:
    def test_empty_array(self):
        assert split_by_tag(np.empty(0, dtype=np.uint64)) == []

    def test_one_type_takes_no_mask(self):
        ids = np.array([agent_id(3, 0, i) for i in (7, 0, 5)], dtype=np.uint64)
        ((tag, sel, slots),) = split_by_tag(ids)
        assert tag == 3
        assert sel == slice(None)
        assert slots.tolist() == [7, 0, 5]

    def test_two_types(self):
        pairs = [(1, 4), (0, 2), (1, 9), (0, 3), (0, 6), (1, 4)]
        ids = np.array([agent_id(tag, 0, i) for tag, i in pairs], dtype=np.uint64)
        groups = split_by_tag(ids)
        assert [tag for tag, _, _ in groups] == [0, 1]
        for tag, sel, slots in groups:
            expected = [i for t, i in pairs if t == tag]
            assert slots.tolist() == expected
            assert (ids[sel] >> np.uint64(TAG_SHIFT)).tolist() == [tag] * len(expected)

    def test_a_partition_other_than_zero_leaves_a_slot_past_every_index(self):
        ids = np.array([agent_id(2, 0, 5), agent_id(2, 1, 5), agent_id(2, 3, 0)],
                       dtype=np.uint64)
        ((tag, _, slots),) = split_by_tag(ids)
        assert tag == 2
        assert slots[0] == 5
        assert (slots[1:] >= MAX_INDEX).all()
        assert slots.tolist() == [int(i) & SLOT_MASK for i in ids]
