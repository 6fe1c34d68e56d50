"""Unit tests for the shared model primitives."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.evaluate import METHODS, make_generator
from repro.core.model import ObjSetCodec, State, merge_sorted_unique
from tests.core.util import live_frames, mcos_stream


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
    assert codec.encode_iter((7,)) | codec.encode_iter((9,)) == m1
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
    assert live_frames(s, 6) == [8, 9]
    assert s.frames == [3, 5, 8, 9]


def test_advance_appends_each_frame_once():
    """The frame's own object set {A, B} is also the group key of the
    stored {A, B, C}: at fid 1 the group creates it with fid 1, at fid 2
    (a repeated frame) the group appends fid 2, and each time the
    principal step must not append the fid again."""
    a, b, c = 1, 2, 4
    for method in METHODS:
        gen = make_generator(method, w=4, d=1)
        for fid, mask in enumerate((a | b | c, a | b, a | b)):
            gen.advance(fid, mask)
        assert gen.states[a | b].frames == [0, 1, 2], method
        assert gen.states[a | b].mark == 2, method
        assert gen.stats["repeated"] == 1, method


# ----------------------------------------------------------------------
# Window bounds / frame order / merging
# ----------------------------------------------------------------------
def test_window_bounds():
    """Every method takes 0 <= d <= w with w positive and rejects the rest."""
    for method in METHODS:
        for w, d in ((1, 0), (1, 1), (4, 0), (4, 4)):
            assert make_generator(method, w, d).results() == {}, method
        for w, d in ((0, 0), (-1, 0), (4, 5), (4, -1)):
            with pytest.raises(ValueError):
                make_generator(method, w, d)


def test_mcos_stream_enforces_order():
    assert [fid for fid, _ in mcos_stream([(0, [1]), (2, [2])], w=4, d=1)] == [0, 2]
    for frames in ([(3, []), (3, [])], [(3, [1]), (2, [1])]):
        with pytest.raises(ValueError, match="increasing"):
            list(mcos_stream(frames, w=4, d=1))


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
