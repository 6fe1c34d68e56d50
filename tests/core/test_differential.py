"""Differential tests: NAIVE / MFS / SSG vs the from-definition oracle.

Every generator must produce, after every frame, exactly the oracle's
satisfied valid states (object set -> full supporting frame set).
Streams cover i.i.d. presence, bursty dwell with occlusions, empty
frames, gaps in the fids, runs of equal frames, and a hypothesis-driven
fuzz.  After every frame each generator's expiry filing is checked too.
"""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import object_stream
from repro.core import brute
from repro.core.evaluate import MatchRow, QueryPipeline, make_generator, mcos_stream
from repro.core.model import ObjSetCodec
from repro.core.queries import Condition, Query
from tests.core.util import (
    bursty_stream,
    churn_stream,
    encode_stream,
    held_stream,
    letters_stream,
    most_objects_in,
    random_stream,
)

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
        assert gen.result_sizes() == {m: len(fr) for m, fr in got.items()}, f"fid={fid}"
        want = brute.satisfied_states(window, d)
        assert got == want, (
            f"method={method} fid={fid} w={w} d={d}\n"
            f"got : {{ {', '.join(f'{codec.decode(m)}:{fr}' for m, fr in sorted(got.items()))} }}\n"
            f"want: {{ {', '.join(f'{codec.decode(m)}:{fr}' for m, fr in sorted(want.items()))} }}"
        )
        if method == "mfs":
            store = {m: st_.live_frames(lo) for m, st_ in gen.states.items()}
            assert store == brute.closed_states(window), f"MFS store differs at fid={fid}"
    return gen


@pytest.mark.parametrize("method", METHODS)
def test_new_state_from_untrimmed_generators(method):
    """Frames are trimmed where they are read, not where enumeration
    meets a state.  At frame 5 (w=4, lo=2) {AC} is made from {ABC}
    alone, which still holds fids 0 and 1, and {A} from {AB} (holding
    fid 1), {ABD} and {ABE}.  The new states hold only live fids, equal
    to the oracle's, and their counts decide SR membership: {AC} has 2
    frames, below d=3, where its generator's whole list would give 4."""
    w, d = 4, 3
    codec, enc = encode_stream(letters_stream(["ABC", "ABC", "ABC", "ABD", "ABE", "AC"]))
    gen = make_generator(method, w, d)
    for fid, mask in enc[:5]:
        gen.advance(fid, mask)
    lo = 5 - w + 1
    abc, ab, ac, a = (codec.encode_iter(map(ord, s)) for s in ("ABC", "AB", "AC", "A"))
    assert gen.states[abc].frames[0] < lo and gen.states[ab].frames[0] < lo
    assert ac not in gen.states and a not in gen.states
    gen.advance(*enc[5])
    gen.check_invariants()
    want = brute.closed_states(enc[lo:])
    assert gen.states[ac].frames == want[ac] == [2, 5]
    assert gen.states[a].frames == want[a] == [2, 3, 4, 5]
    results = gen.results()
    assert ac not in results and results[a] == [2, 3, 4, 5]
    assert results == brute.satisfied_states(enc[lo:], d)


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


# ----------------------------------------------------------------------
# NAIVE's result selection: buckets keyed by (live count, oldest, newest)
# ----------------------------------------------------------------------
def naive_after(frames: list[str], w: int, d: int):
    """A NAIVE generator fed a letters stream, the window's frames, and
    the mask of a letters string."""
    codec, enc = encode_stream(letters_stream(frames))
    gen = make_generator("naive", w, d)
    for fid, mask in enc:
        gen.advance(fid, mask)
    return gen, enc[-w:], lambda letters: codec.encode_iter(map(ord, letters))


def test_naive_keeps_incomparable_states_of_one_key():
    """{A} holds fids 0, 1, 3 and {B} fids 0, 2, 3: one key (3, 0, 3),
    two frame sets, and neither contains the other, so both are kept."""
    gen, window, enc = naive_after(["AB", "A", "B", "AB"], 4, 2)
    a, b = enc("A"), enc("B")
    assert gen.result_sizes() == {a: 3, b: 3, a | b: 2}
    assert gen.results() == brute.satisfied_states(window, 2)


@pytest.mark.parametrize("w", [2, 3])
def test_naive_keeps_largest_of_a_chain(w):
    """{A} ⊂ {A, B} ⊂ {A, B, C} were made at fids 0, 1 and 2; once the
    window holds only fids with all three objects, the three states share
    one frame set and only {A, B, C} is valid.  The bucket's count is 2
    with w=2 and 3 with w=3."""
    gen, window, enc = naive_after(["AX", "ABY", "ABC", "ABC", "ABC"], w, 1)
    abc = enc("ABC")
    lo = 5 - w
    chain = {m: st_.live_frames(lo) for m, st_ in gen._sr.items() if m & abc == m}
    assert len(chain) == 3 and len(set(map(tuple, chain.values()))) == 1
    assert gen.results() == brute.satisfied_states(window, 1) == {abc: list(range(lo, 5))}


@pytest.mark.parametrize("d", [1, 2, 5])
def test_naive_selection_on_m1(d):
    """200 frames of the M1 profile (moving camera, high churn) at w=30:
    the Result State Set holds invalid states on most frames, and the
    selection returns the oracle's states on every frame."""
    stream = list(object_stream("M1", 0, 300)[100:])
    gen = run_differential(stream, 30, d, "naive")
    assert len(gen._sr) > len(gen.result_sizes()), "no invalid state in SR: weak test"


# ----------------------------------------------------------------------
# Repeated frames: an object set equal to the previous non-empty frame's
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("w,d", [(6, 3), (12, 9), (5, 5)])
def test_held_streams(method, seed, w, d):
    """Long runs of equal frames, served without enumeration: appends to
    the previous frame's groups and the principal's mark."""
    stream = held_stream(bursty_stream(40, n_objects=8, dwell=6, occl=0.2, seed=seed), seed=seed)
    gen = run_differential(stream, w, d, method)
    assert gen.stats["repeated"] > 0, "no repeated frame: weak test"


W, D = 5, 2


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize(
    "gap,empties,fires",
    [(1, 0, True), (3, 0, True), (3, 2, True), (W - 1, 0, True), (W - 1, W - 2, True),
     (W, 0, False), (W, W - 1, False), (W + 3, 0, False)],
)
def test_equal_frames_split(method, gap, empties, fires):
    """Two equal frames ``gap`` fids apart, with ``empties`` empty frames
    between them.  While the first is in the window the second repeats
    it.  Once the gap reaches w the whole store has expired: the second
    must not count as repeated, and its principal state is made anew."""
    head = letters_stream(["ABC", "ABD", "ABD"])
    last = head[-1][0]
    stream = head + [(last + 1 + i, []) for i in range(empties)]
    stream.append((last + gap, [ord(c) for c in "ABD"]))
    _, enc = encode_stream(stream)
    gen = make_generator(method, W, D)
    for fid, mask in enc[:-1]:
        gen.advance(fid, mask)
    fid, abd = enc[-1]
    before, repeated = gen.states.get(abd), gen.stats["repeated"]
    gen.advance(fid, abd)
    gen.check_invariants()
    window = [(f, m) for f, m in enc if f > fid - W]
    assert gen.results() == brute.satisfied_states(window, D)
    assert gen.stats["repeated"] - repeated == fires
    st_ = gen.states[abd]
    assert st_.mark == fid
    if fires:
        assert st_ is before
        assert st_.live_frames(fid - W + 1) == brute.closed_states(window)[abd]
    else:
        assert st_ is not before and st_.frames == [fid]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("seed", range(4))
def test_repeated_frame_counters(method, seed):
    """A non-empty frame repeats when its object set equals the previous
    non-empty frame's and that frame is still in the window.  A repeated
    frame adds 1 to ``repeated`` and 0 to ``visits``, and creates no
    state: the only SSG edges it adds re-hang the children of expired
    nodes, each counted in ``reparented`` too.  Any other frame adds 0
    to ``repeated``.  Gaps and empty frames split some of the runs."""
    w, d = 5, 2
    rng = random.Random(seed)
    fid, stream = 0, []
    base = bursty_stream(40, n_objects=6, dwell=8, occl=0.1, seed=seed)
    for _, objs in held_stream(base, seed=seed):
        if rng.random() < 0.15:
            stream.append((fid, []))
            fid += 1
        stream.append((fid, objs))
        fid += rng.choice((1, 1, 1, 2, w - 1, w, w + 2))
    _, enc = encode_stream(stream)
    gen = make_generator(method, w, d)
    last = None  # previous non-empty frame
    n_repeated = 0
    for fid, mask in enc:
        before, stored = dict(gen.stats), dict(gen.states)
        gen.advance(fid, mask)
        gen.check_invariants()
        delta = {k: v - before[k] for k, v in gen.stats.items()}
        repeats = bool(mask) and last is not None and last[1] == mask and last[0] > fid - w
        assert delta["repeated"] == repeats, f"fid={fid}"
        if repeats:
            assert delta["visits"] == 0, f"fid={fid}"
            assert all(stored.get(m) is s for m, s in gen.states.items()), f"fid={fid}"
            assert delta.get("edges", 0) == delta.get("reparented", 0), f"fid={fid}"
        if mask:
            last = (fid, mask)
        n_repeated += repeats
    assert n_repeated > 0, "no repeated frame: weak test"
    run_differential(stream, w, d, method)


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
    the window, must be exactly the oracle's closed states.  The second
    stream holds its frames in runs of equal frames, on which only the
    principal state's mark moves."""
    bursty = bursty_stream(50, n_objects=8, dwell=6, occl=0.25, seed=seed)
    held = held_stream(bursty[:25], seed=seed)
    for method in METHODS:
        check_marks(method, bursty)
        assert check_marks(method, held).stats["repeated"] > 0


def check_marks(method, stream):
    w, d = 8, 3
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
    return gen


# ----------------------------------------------------------------------
# Bit recycling: the codec frees the bits of objects that left the window
# ----------------------------------------------------------------------
# Odd oids are cars, even ones people.  ANY matches every non-empty
# object set; PAIRS is >=-only, so it also runs with §5.3 pruning, whose
# admission answers depend on the classes behind the bits.
ANY = [Query(0, ((Condition("car", ">=", 1), Condition("person", ">=", 1)),))]
PAIRS = [Query(0, ((Condition("car", ">=", 2),),)), Query(1, ((Condition("person", ">=", 3),),))]


def pairs_qids(objset) -> list[int]:
    cars = sum(o % 2 for o in objset)
    return [qid for qid, ok in ((0, cars >= 2), (1, len(objset) - cars >= 3)) if ok]


def run_recycling(stream, w, d):
    """Drive ``mcos_stream`` and ``QueryPipeline``s (unpruned, and pruned)
    of every method over a stream whose objects come and go, checking
    every frame against the oracle (on masks of a codec that never
    releases a bit).  The pipelines' codec width must stay within the
    most distinct objects of any 2w consecutive frames, and below the
    stream's object count."""
    ref, enc = encode_stream(stream)
    gens = {m: mcos_stream(stream, w=w, d=d, method=m) for m in METHODS}
    pipes = {
        (m, prune): QueryPipeline(PAIRS if prune else ANY, w=w, d=d, method=m, prune=prune)
        for m in METHODS
        for prune in (False, True)
    }
    bound = most_objects_in(stream, 2 * w)
    window: list[tuple[int, int]] = []
    for (fid, oids), (_, mask) in zip(stream, enc):
        window.append((fid, mask))
        while window[0][0] < fid - w + 1:
            window.pop(0)
        objs = [(o, "car" if o % 2 else "person") for o in oids]
        want = {ref.decode(m): fr for m, fr in brute.satisfied_states(window, d).items()}
        for method in METHODS:
            assert next(gens[method]) == (fid, want), f"mcos_stream {method} fid={fid}"
        for (method, prune), pipe in pipes.items():
            rows = pipe.feed(fid, objs)
            pipe.gen.check_invariants()
            results = pipe.gen.results()
            assert pipe.gen.result_sizes() == {m: len(fr) for m, fr in results.items()}, (
                f"pipeline {method} prune={prune} fid={fid}"
            )
            got = {pipe.codec.decode(m): fr for m, fr in results.items()}
            qids = pairs_qids if prune else (lambda x: [0])
            assert got == {x: fr for x, fr in want.items() if qids(x) or not prune}, (
                f"pipeline {method} prune={prune} fid={fid}"
            )
            assert sorted(rows) == sorted(
                MatchRow(fid, q, x, len(fr)) for x, fr in got.items() for q in qids(x)
            ), f"pipeline {method} prune={prune} fid={fid}"
            assert len(pipe.codec) <= bound, f"{method} fid={fid}: width {len(pipe.codec)}"
    n_objects = len({o for _, oids in stream for o in oids})
    assert {len(p.codec) for p in pipes.values()} == {len(pipes["mfs", False].codec)} and (
        len(pipes["mfs", False].codec) < n_objects
    ), "no bit was recycled: weak test"


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("w,d", [(4, 2), (6, 3), (10, 1)])
def test_recycling_short_lived_objects(seed, w, d):
    run_recycling(churn_stream(120, arrivals=1.3, dwell=4, seed=seed), w, d)


@pytest.mark.parametrize("seed", range(4))
def test_recycling_with_empty_frames(seed):
    run_recycling(churn_stream(120, dwell=5, p_empty=0.3, seed=seed), 5, 2)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("w,d", [(4, 2), (7, 3)])
def test_recycling_with_fid_gaps(seed, w, d):
    """Fids skip by 1, 2, 3, w+1 or 2w+5, so a release can come long
    after the frames whose objects it keeps."""
    rng = random.Random(seed)
    fid = 0
    stream = []
    for _, objs in churn_stream(120, arrivals=1.3, dwell=4, seed=seed):
        stream.append((fid, objs))
        fid += rng.choice((1, 1, 1, 2, 3, w + 1, 2 * w + 5))
    run_recycling(stream, w, d)


@pytest.mark.parametrize("seed", range(4))
def test_recycling_with_held_frames(seed):
    """Runs of equal frames, some pipelines pruned: a repeated frame
    appends to the admitted groups of the previous frame only."""
    run_recycling(held_stream(churn_stream(60, dwell=5, seed=seed), seed=seed), 6, 3)


@pytest.mark.parametrize("method", METHODS)
def test_repeated_frame_with_terminated_group(method):
    """§5.3 pruning.  At frame 1 the group {1, 2, 4} (one car, two
    people) fails both PAIRS queries and is terminated.  Frame 2 repeats
    frame 1: its rows and results equal the oracle's over the admitted
    object sets, and it evaluates and terminates nothing."""
    stream = [(0, [1, 2, 3, 4, 6]), (1, [1, 2, 4, 5]), (2, [1, 2, 4, 5])]
    ref, enc = encode_stream(stream)
    pipe = QueryPipeline(PAIRS, w=4, d=1, method=method, prune=True)
    for i, (fid, oids) in enumerate(stream):
        before = (pipe.stats.terminated, pipe.stats.evaluations, pipe.gen.stats["repeated"])
        rows = pipe.feed(fid, [(o, "car" if o % 2 else "person") for o in oids])
        want = {ref.decode(m): fr for m, fr in brute.satisfied_states(enc[: i + 1], 1).items()}
        want = {x: fr for x, fr in want.items() if pairs_qids(x)}
        assert {pipe.codec.decode(m): fr for m, fr in pipe.gen.results().items()} == want
        assert sorted(rows) == sorted(
            MatchRow(fid, q, x, len(fr)) for x, fr in want.items() for q in pairs_qids(x)
        ), f"fid={fid}"
    assert (1, 2, 4) not in {pipe.codec.decode(m) for m in pipe.gen.states}
    assert before[0] == 1, "the group was not terminated: weak test"
    assert (pipe.stats.terminated, pipe.stats.evaluations) == before[:2]
    assert pipe.gen.stats["repeated"] == before[2] + 1
