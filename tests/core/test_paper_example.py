"""The worked example of paper Section 2 / Tables 1-2, end to end.

Video segment <{B},{ABC},{ABDF},{ABCF},{ABD}>, window w=4, duration
d=3.  Expected satisfied MCOS per frame (Table 1 EXP column):
frame 2 -> {B}; frame 3 -> {B},{AB}; frame 4 -> {AB} only.
"""
from __future__ import annotations

import pytest

from repro.core.mfs import MFSGenerator
from repro.core.model import ObjSetCodec
from tests.core.util import encode_stream, letters_stream, mcos_stream

SEGMENT = ["B", "ABC", "ABDF", "ABCF", "ABD"]


def oset(s: str) -> tuple[int, ...]:
    return tuple(sorted(ord(c) for c in s))


EXPECTED = {
    0: {},
    1: {},
    2: {oset("B"): [0, 1, 2]},
    3: {oset("B"): [0, 1, 2, 3], oset("AB"): [1, 2, 3]},
    4: {oset("AB"): [1, 2, 3, 4]},
}


@pytest.mark.parametrize("method", ["naive", "mfs", "ssg"])
def test_table1_expected_column(method):
    got = dict(mcos_stream(letters_stream(SEGMENT), w=4, d=3, method=method))
    assert got == EXPECTED


@pytest.mark.parametrize("method", ["naive", "mfs", "ssg"])
def test_intro_example_duration_relaxed(method):
    """Section 2 intro: with d=3/w=5 the answers are {B} and {AB}; with
    d=2 the sets {ABC},{ABD},{ABF} are also selected (at the frames
    where their support reaches 2)."""
    stream = letters_stream(SEGMENT)
    final_d3 = dict(mcos_stream(stream, w=5, d=3, method=method))[4]
    assert set(final_d3) == {oset("B"), oset("AB")}
    assert final_d3[oset("B")] == [0, 1, 2, 3, 4]
    assert final_d3[oset("AB")] == [1, 2, 3, 4]
    final_d2 = dict(mcos_stream(stream, w=5, d=2, method=method))[4]
    assert set(final_d2) == {
        oset("B"),
        oset("AB"),
        oset("ABC"),
        oset("ABD"),
        oset("ABF"),
    }
    assert final_d2[oset("ABC")] == [1, 3]
    assert final_d2[oset("ABD")] == [2, 4]
    assert final_d2[oset("ABF")] == [2, 3]


def test_table2_marked_frame_sets():
    """MFS marked frame sets after each frame match Table 2.

    We materialise only the *newest* mark of each Marked Frame Set
    (frames expire oldest-first, so it alone decides validity —
    DESIGN.md §5); the expected values below are the newest starred
    frame of each state in the paper's Table 2.
    """
    codec = ObjSetCodec()
    _, enc = encode_stream(letters_stream(SEGMENT), codec)
    gen = MFSGenerator(4, 3)

    def snapshot():
        return {
            codec.decode(mask): (list(st.frames), st.mark)
            for mask, st in gen.states.items()
        }

    gen.advance(*enc[0])
    assert snapshot() == {oset("B"): ([0], 0)}
    gen.advance(*enc[1])
    assert snapshot() == {
        oset("B"): ([0, 1], 0),
        oset("ABC"): ([1], 1),
    }
    gen.advance(*enc[2])
    assert snapshot() == {
        oset("B"): ([0, 1, 2], 0),
        oset("ABC"): ([1], 1),
        oset("AB"): ([1, 2], 1),
        oset("ABDF"): ([2], 2),
    }
    gen.advance(*enc[3])
    assert snapshot() == {
        oset("B"): ([0, 1, 2, 3], 0),
        oset("ABC"): ([1, 3], 1),
        oset("AB"): ([1, 2, 3], 1),
        oset("ABDF"): ([2], 2),
        oset("ABF"): ([2, 3], 2),
        oset("ABCF"): ([3], 3),
    }
    gen.advance(*enc[4])
    snap = snapshot()
    # Frame 0 expired: {B} lost its only mark and is pruned (Example 2).
    assert oset("B") not in snap
    # {AB} gains mark 3 (Table 2 shows {*1,2,*3,4}), propagated from
    # states intersecting to {AB} with the arriving {ABD}.
    assert snap[oset("AB")] == ([1, 2, 3, 4], 3)
    assert snap[oset("ABD")] == ([2, 4], 4)
    assert snap[oset("ABC")] == ([1, 3], 1)
    assert snap[oset("ABCF")] == ([3], 3)
    assert snap[oset("ABF")] == ([2, 3], 2)
    assert snap[oset("ABDF")] == ([2], 2)
