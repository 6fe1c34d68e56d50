"""Unit tests for the shared model primitives."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.model import (
    ObjSetCodec,
    State,
    Window,
    iter_frames,
    merge_sorted_unique,
)


# ----------------------------------------------------------------------
# ObjSetCodec
# ----------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=40))
def test_codec_roundtrip(oids):
    codec = ObjSetCodec()
    mask = codec.encode_iter(oids)
    assert codec.decode(mask) == tuple(sorted(set(oids)))


def test_codec_bits_stable_across_calls():
    codec = ObjSetCodec()
    m1 = codec.encode_iter([7, 9])
    m2 = codec.encode_iter([9, 7])
    assert m1 == m2
    assert codec.encode_one(7) | codec.encode_one(9) == m1
    assert len(codec) == 2


def test_codec_intersection_semantics():
    codec = ObjSetCodec()
    a = codec.encode_iter([1, 2, 3])
    b = codec.encode_iter([2, 3, 4])
    assert codec.decode(a & b) == (2, 3)
    assert codec.decode(a | b) == (1, 2, 3, 4)
    assert codec.decode(0) == ()


# ----------------------------------------------------------------------
# State
# ----------------------------------------------------------------------
def test_state_expiry_and_validity():
    s = State(0b1, [3, 5, 8, 9], 8)
    assert s.n_live_frames(6) == 2
    assert s.live_frames(6) == [8, 9]
    s.expire(6)
    assert s.frames == [8, 9]


def test_state_append_frame_dedups_tail():
    s = State(0b1)
    s.append_frame(4)
    s.append_frame(4)
    s.append_frame(6)
    assert s.frames == [4, 6]


# ----------------------------------------------------------------------
# Window / frame iteration / merging
# ----------------------------------------------------------------------
def test_window_bounds():
    w = Window(4, 3)
    assert w.lo(10) == 7  # [7..10] is 4 frames
    with pytest.raises(ValueError):
        Window(0, 0)
    with pytest.raises(ValueError):
        Window(4, 5)
    with pytest.raises(ValueError):
        Window(4, -1)


def test_iter_frames_enforces_order():
    assert list(iter_frames([(0, [1]), (2, [2])])) == [(0, [1]), (2, [2])]
    with pytest.raises(ValueError, match="increasing"):
        list(iter_frames([(3, []), (3, [])]))


@given(
    st.lists(st.lists(st.integers(0, 50), max_size=10).map(sorted), max_size=5),
    st.integers(0, 55),
)
def test_merge_sorted_unique(lists, lo):
    lists = [sorted(set(li)) for li in lists] or [[]]
    union = sorted(set().union(*map(set, lists)))
    assert merge_sorted_unique(lists, 0) == union
    assert merge_sorted_unique(lists, lo) == [f for f in union if f >= lo]


def test_merge_single_list_copies():
    src = [1, 2, 3]
    out = merge_sorted_unique([src], 0)
    assert out == src and out is not src
    out = merge_sorted_unique([src], 2)
    assert out == [2, 3] and src == [1, 2, 3]
