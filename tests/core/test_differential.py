"""Differential tests: NAIVE / MFS / SSG vs the from-definition oracle.

Every generator must produce, after every frame, exactly the oracle's
satisfied valid states (object set -> full supporting frame set).
Streams cover i.i.d. presence, bursty dwell with occlusions, empty
frames, gaps in the fids, and a hypothesis-driven fuzz.  After every
frame each generator's expiry filing is checked too.
"""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import brute
from repro.core.evaluate import make_generator
from repro.core.model import ObjSetCodec
from tests.core.util import bursty_stream, encode_stream, random_stream

METHODS = ["naive", "mfs", "ssg"]


def run_differential(stream, w, d, method):
    codec, enc = encode_stream(stream)
    gen = make_generator(method, w, d)
    window: list[tuple[int, int]] = []
    for fid, mask in enc:
        window.append((fid, mask))
        lo = fid - w + 1
        while window and window[0][0] < lo:
            window.pop(0)
        gen.advance(fid, mask)
        gen.check_invariants()
        got = gen.results()
        want = brute.satisfied_states(window, d)
        assert got == want, (
            f"method={method} fid={fid} w={w} d={d}\n"
            f"got : {{ {', '.join(f'{codec.decode(m)}:{fr}' for m, fr in sorted(got.items()))} }}\n"
            f"want: {{ {', '.join(f'{codec.decode(m)}:{fr}' for m, fr in sorted(want.items()))} }}"
        )
        if method == "mfs":
            store = {m: st_.live_frames(lo) for m, st_ in gen.states.items()}
            assert store == brute.closed_states(window), f"MFS store differs at fid={fid}"


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("w,d", [(5, 3), (8, 4), (12, 9), (6, 6), (4, 1)])
def test_random_streams(method, seed, w, d):
    run_differential(
        random_stream(40, n_objects=7, p_present=0.5, seed=seed), w, d, method
    )


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("w,d", [(10, 6), (15, 12)])
def test_bursty_streams(method, seed, w, d):
    run_differential(
        bursty_stream(60, n_objects=9, dwell=8, occl=0.2, seed=seed), w, d, method
    )


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("seed", range(4))
def test_streams_with_empty_frames(method, seed):
    run_differential(
        random_stream(30, n_objects=6, p_present=0.4, p_gap=0.25, seed=seed),
        6,
        3,
        method,
    )


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("w,d", [(5, 2), (8, 4), (10, 7)])
def test_streams_with_fid_gaps(method, seed, w, d):
    """Fids skip by 1, 2, 3, w+1 or 2w+5: several frames, or the whole
    window, expire at once, so expiry meets death keys out of step."""
    rng = random.Random(seed)
    fid = 0
    stream = []
    for _, objs in bursty_stream(60, n_objects=8, dwell=6, occl=0.2, seed=seed):
        stream.append((fid, objs))
        fid += rng.choice((1, 1, 2, 3, w + 1, 2 * w + 5))
    run_differential(stream, w, d, method)


@pytest.mark.parametrize("method", METHODS)
def test_duration_zero_and_full_window(method):
    stream = bursty_stream(30, n_objects=6, dwell=10, occl=0.1, seed=3)
    run_differential(stream, 6, 0, method)
    run_differential(stream, 6, 6, method)


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=40, deadline=None)
@given(
    frames=st.lists(
        st.sets(st.integers(min_value=0, max_value=5), max_size=6),
        min_size=1,
        max_size=25,
    ),
    w=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_hypothesis_fuzz(method, frames, w, data):
    d = data.draw(st.integers(min_value=0, max_value=w))
    stream = [(i, sorted(objs)) for i, objs in enumerate(frames)]
    run_differential(stream, w, d, method)


@pytest.mark.parametrize("seed", range(4))
def test_mark_exactness_vs_validity_threshold(seed):
    """The *newest* mark of every state must sit exactly on the
    oracle's validity threshold f* — the frame whose expiry kills the
    state (DESIGN.md: marks exactness, paper Theorems 1/4).

    The three methods differ only in pruning: MFS drops a state the
    frame its newest mark expires, NAIVE and SSG may keep it longer.
    So MFS's whole store, and NAIVE's and SSG's states with a mark in
    the window, must be exactly the oracle's closed states."""
    for method in METHODS:
        check_marks(method, seed)


def check_marks(method, seed):
    w, d = 8, 3
    stream = bursty_stream(50, n_objects=8, dwell=6, occl=0.25, seed=seed)
    codec, enc = encode_stream(stream)
    gen = make_generator(method, w, d)
    window: list[tuple[int, int]] = []
    for fid, mask in enc:
        window.append((fid, mask))
        lo = fid - w + 1
        while window and window[0][0] < lo:
            window.pop(0)
        gen.advance(fid, mask)
        kept = {
            smask: st_
            for smask, st_ in gen.states.items()
            if method == "mfs" or st_.mark >= lo
        }
        got = {smask: st_.live_frames(lo) for smask, st_ in kept.items()}
        assert got == brute.closed_states(window), f"method={method} fid={fid}"
        for smask, st_ in kept.items():
            fstar = brute.validity_threshold(window, smask)
            assert fstar is not None, (
                f"method={method} fid={fid}: invalid state {codec.decode(smask)} survived"
            )
            assert st_.mark == fstar, (
                f"method={method} fid={fid} state={codec.decode(smask)}: newest mark "
                f"{st_.mark} != validity threshold {fstar}"
            )
