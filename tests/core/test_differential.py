"""Differential tests: NAIVE / MFS / SSG vs the from-definition oracle.

Every generator must produce, after every frame, exactly the oracle's
satisfied valid states (object set -> full supporting frame set).
Streams cover i.i.d. presence, bursty dwell with occlusions, empty
frames, gaps in the fids, runs of equal frames, objects that leave
and come back within the window, and a hypothesis-driven fuzz.  After
every frame each generator's expiry filing (and SSG's forest) is
checked too, and so is its whole store: complete frame sets, closed
under intersection.
"""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import brute
from repro.core.evaluate import MatchRow, QueryPipeline, make_generator
from repro.core.model import ObjSetCodec
from repro.core.queries import Condition, Query
from tests.core.util import (
    bursty_stream,
    check_invariants,
    churn_stream,
    encode_stream,
    held_stream,
    letters_stream,
    live_frames,
    mcos_stream,
    most_objects_in,
    profile_objects,
    random_stream,
    satisfied_states,
    validity_threshold,
)

METHODS = ["naive", "mfs", "ssg"]


def check_store(gen, window, admit=None):
    """After a frame: every stored state's live frames are exactly the
    window frames that hold its object set, and the intersection of two
    stored states is stored whenever it is not empty (and ``admit``
    accepts it).  A new state takes its frames from its smallest
    generator, which these two make the group's intersection, holding
    every frame of the others (DESIGN.md §5)."""
    lo = gen._lo
    for mask, st_ in gen.states.items():
        assert live_frames(st_, lo) == [f for f, m in window if m & mask == mask], (
            f"frames of {mask:#x} at lo={lo}"
        )
    masks = list(gen.states)
    meets = {a & b for i, a in enumerate(masks) for b in masks[i + 1 :]}
    missing = [x for x in meets if x and x not in gen.states and (admit is None or admit(x))]
    assert not missing, f"intersections not stored: {[hex(x) for x in missing]}"


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
        check_invariants(gen)
        got = gen.results()
        assert gen.result_sizes() == {m: len(fr) for m, fr in got.items()}, f"fid={fid}"
        assert all(st_.n_live_frames(lo) >= d for st_ in gen._sr.values()), f"fid={fid}"
        want = satisfied_states(window, d)
        assert got == want, (
            f"method={method} fid={fid} w={w} d={d}\n"
            f"got : {{ {', '.join(f'{codec.decode(m)}:{fr}' for m, fr in sorted(got.items()))} }}\n"
            f"want: {{ {', '.join(f'{codec.decode(m)}:{fr}' for m, fr in sorted(want.items()))} }}"
        )
        check_store(gen, window)
        if method == "mfs":
            store = {m: live_frames(st_, lo) for m, st_ in gen.states.items()}
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
    check_invariants(gen)
    want = brute.closed_states(enc[lo:])
    assert gen.states[ac].frames == want[ac] == [2, 5]
    assert gen.states[a].frames == want[a] == [2, 3, 4, 5]
    results = gen.results()
    assert ac not in results and results[a] == [2, 3, 4, 5]
    assert results == satisfied_states(enc[lo:], d)


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
    """Fids skip by 1, 2, 3, w+1, 2w+5 or 10**12: several frames, or the
    whole window, expire at once, so expiry meets death keys out of
    step.  A skip of 10**12 ends only because expiry probes at most
    the ``w`` fids of the previous window."""
    rng = random.Random(seed)
    fid = 0
    stream = []
    for _, objs in bursty_stream(60, n_objects=8, dwell=6, occl=0.2, seed=seed):
        stream.append((fid, objs))
        fid += rng.choice((1, 1, 2, 3, w + 1, 2 * w + 5, 10**12))
    run_differential(stream, w, d, method)


@pytest.mark.parametrize("method", METHODS)
def test_duration_zero_and_full_window(method):
    stream = bursty_stream(30, n_objects=6, dwell=10, occl=0.1, seed=3)
    run_differential(stream, 6, 0, method)
    run_differential(stream, 6, 6, method)


@pytest.mark.parametrize("method", METHODS)
def test_result_state_that_lost_frames_is_filtered(method):
    """{A, B} reaches d=2 live frames at fid 1 and joins the Result State
    Set.  Later frames hold only A, so it is never appended to again; by
    fid 4 (w=4) only fid 1 is live.  It is still stored, but no longer
    a result, and ``result_sizes`` has taken it out of the set."""
    stream = letters_stream(["AB", "AB", "A", "A", "A"])
    ab = encode_stream(stream)[1][0][1]
    assert ab in run_differential(stream[:2], 4, 2, method).result_sizes()
    gen = run_differential(stream, 4, 2, method)
    assert ab in gen.states and ab not in gen._sr
    assert ab not in gen.result_sizes() and ab not in gen.results()


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name,d", [("V1", 20), ("M1", 5)])
def test_result_state_set_holds_only_results(method, name, d):
    """200 frames of a profile at w=30: after every frame's
    ``result_sizes`` no member of the Result State Set holds fewer than
    ``d`` live frames, and for MFS/SSG the set is exactly the results
    (NAIVE's also holds the non-closed states it filters).  Members do
    leave the set, and results equal the oracle's throughout."""
    w = 30
    stream = profile_objects(name, 300)[100:]
    _, enc = encode_stream(stream)
    gen = make_generator(method, w, d)
    window: list[tuple[int, int]] = []
    left = 0
    for fid, mask in enc:
        lo = fid - w + 1
        window = [(f, m) for f, m in window if f >= lo] + [(fid, mask)]
        gen.advance(fid, mask)
        check_invariants(gen)
        before = len(gen._sr)
        sizes = gen.result_sizes()
        left += before - len(gen._sr)
        assert all(st_.n_live_frames(lo) >= d for st_ in gen._sr.values()), f"fid={fid}"
        if method != "naive":
            assert len(gen._sr) == len(sizes), f"fid={fid}"
        assert gen.results() == satisfied_states(window, d), f"fid={fid}"
    assert left, "no member left the Result State Set: weak test"


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
    assert gen.results() == satisfied_states(window, 2)


@pytest.mark.parametrize("w", [2, 3])
def test_naive_keeps_largest_of_a_chain(w):
    """{A} ⊂ {A, B} ⊂ {A, B, C} were made at fids 0, 1 and 2; once the
    window holds only fids with all three objects, the three states share
    one frame set and only {A, B, C} is valid.  The bucket's count is 2
    with w=2 and 3 with w=3."""
    gen, window, enc = naive_after(["AX", "ABY", "ABC", "ABC", "ABC"], w, 1)
    abc = enc("ABC")
    lo = 5 - w
    chain = {m: live_frames(st_, lo) for m, st_ in gen._sr.items() if m & abc == m}
    assert len(chain) == 3 and len(set(map(tuple, chain.values()))) == 1
    assert gen.results() == satisfied_states(window, 1) == {abc: list(range(lo, 5))}


@pytest.mark.parametrize("d", [1, 2, 5])
def test_naive_selection_on_m1(d):
    """200 frames of the M1 profile (moving camera, high churn) at w=30:
    the Result State Set holds invalid states on most frames, and the
    selection returns the oracle's states on every frame."""
    stream = profile_objects("M1", 300)[100:]
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
    check_invariants(gen)
    window = [(f, m) for f, m in enc if f > fid - W]
    assert gen.results() == satisfied_states(window, D)
    assert gen.stats["repeated"] - repeated == fires
    st_ = gen.states[abd]
    assert st_.mark == fid
    if fires:
        assert st_ is before
        assert live_frames(st_, fid - W + 1) == brute.closed_states(window)[abd]
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
        check_invariants(gen)
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

    The methods differ in pruning: MFS and SSG drop a state the frame
    its newest mark expires, NAIVE may keep it longer.  So MFS's and
    SSG's whole store, and NAIVE's states with a mark in the window,
    must be exactly the oracle's closed states.  The second
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
            if method != "naive" or st_.mark >= lo
        }
        got = {smask: live_frames(st_, lo) for smask, st_ in kept.items()}
        assert got == brute.closed_states(window), f"method={method} fid={fid}"
        for smask, st_ in kept.items():
            fstar = validity_threshold(window, smask)
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
    stream's object count.  Returns how often a pipeline met a derived
    frame with a new object on a recycled bit."""
    ref, enc = encode_stream(stream)
    recycled = 0
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
        want = {ref.decode(m): fr for m, fr in satisfied_states(window, d).items()}
        for method in METHODS:
            assert next(gens[method]) == (fid, want), f"mcos_stream {method} fid={fid}"
        for (method, prune), pipe in pipes.items():
            width, derived = len(pipe.codec), pipe.gen.stats["derived"]
            fresh = [o for o in oids if o not in pipe.codec]
            rows = pipe.feed(fid, objs)
            check_invariants(pipe.gen)
            recycled += pipe.gen.stats["derived"] > derived and any(
                pipe.codec._bit_of[o] < width for o in fresh
            )
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
                MatchRow(q, x, len(fr)) for x, fr in got.items() for q in qids(x)
            ), f"pipeline {method} prune={prune} fid={fid}"
            assert len(pipe.codec) <= bound, f"{method} fid={fid}: width {len(pipe.codec)}"
    n_objects = len({o for _, oids in stream for o in oids})
    assert {len(p.codec) for p in pipes.values()} == {len(pipes["mfs", False].codec)} and (
        len(pipes["mfs", False].codec) < n_objects
    ), "no bit was recycled: weak test"
    return recycled


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
        want = {ref.decode(m): fr for m, fr in satisfied_states(enc[: i + 1], 1).items()}
        want = {x: fr for x, fr in want.items() if pairs_qids(x)}
        assert {pipe.codec.decode(m): fr for m, fr in pipe.gen.results().items()} == want
        assert sorted(rows) == sorted(
            MatchRow(q, x, len(fr)) for x, fr in want.items() for q in pairs_qids(x)
        ), f"fid={fid}"
    assert (1, 2, 4) not in {pipe.codec.decode(m) for m in pipe.gen.states}
    assert before[0] == 1, "the group was not terminated: weak test"
    assert (pipe.stats.terminated, pipe.stats.evaluations) == before[:2]
    assert pipe.gen.stats["repeated"] == before[2] + 1


# ----------------------------------------------------------------------
# Derived frames: the previous frame's keys stand in for every state
# that holds no re-entering object
# ----------------------------------------------------------------------
def derived_stream(w: int, seed: int) -> list[tuple[int, list[int]]]:
    """Short-lived objects, some returning, held for runs of equal
    frames, with empty frames and fid gaps of 1, 2, ``w - 1``, ``w`` and
    ``w + 3`` between non-empty frames."""
    rng = random.Random(seed)
    gaps = [g for g in (1, 1, 1, 2, w - 1, w, w + 3) if g > 0]
    base = churn_stream(50, arrivals=0.8, dwell=5, p_return=0.4, seed=seed)
    fid, stream = 0, []
    for _, objs in held_stream(base, hold=3, seed=seed):
        if rng.random() < 0.15:
            stream.append((fid, []))
            fid += 1
        stream.append((fid, objs))
        fid += rng.choice(gaps)
    return stream


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("w,d", [(1, 1), (2, 1), (2, 2), (5, 2), (8, 3)])
def test_derived_frame_counters(method, seed, w, d):
    """Every frame is updated from the group keys of the previous
    non-empty frame ``p``.  A non-empty frame counts as derived iff
    ``p`` is in the window and it has no re-entering object: every
    object entering at it (absent from ``p``) is absent from the
    window's earlier frames too, so nothing is enumerated.  A derived
    frame adds 1 to ``derived``, 0 to ``visits``, and 1 to ``repeated``
    iff it repeats ``p``'s object set; any other frame adds 0 to both.
    With w=1 ``p`` has always left the window, so no frame is derived.
    Results equal the oracle's after every frame."""
    stream = derived_stream(w, seed)
    _, enc = encode_stream(stream)
    gen = make_generator(method, w, d)
    window: list[tuple[int, int]] = []
    last = None  # previous non-empty frame
    counts = {"derived": 0, "cut": 0, "enumerated": 0}
    for fid, mask in enc:
        lo = fid - w + 1
        window = [(f, m) for f, m in window if f >= lo]
        held = 0
        for _, m in window:
            held |= m
        derived = bool(mask) and last is not None and last[0] >= lo and not (
            mask & ~last[1] & held
        )
        before = dict(gen.stats)
        gen.advance(fid, mask)
        check_invariants(gen)
        window.append((fid, mask))
        delta = {k: v - before[k] for k, v in gen.stats.items()}
        assert delta["derived"] == derived, f"fid={fid}"
        assert delta["repeated"] == (derived and mask == last[1]), f"fid={fid}"
        if derived:
            assert delta["visits"] == 0, f"fid={fid}"
            counts["derived"] += 1
            counts["cut"] += mask != last[1]
        elif mask:
            counts["enumerated"] += 1
        assert gen.results() == satisfied_states(window, d), f"fid={fid}"
        if mask:
            last = (fid, mask)
    assert counts["enumerated"] > 0 and (counts["cut"] > 0 or w == 1), f"weak test: {counts}"


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("w,derived", [(2, True), (3, False), (4, False)])
def test_reentering_object_forces_enumeration(method, w, derived):
    """B leaves at frame 1 and comes back at frame 2.  With w=2 its
    only earlier frame, 0, has left the window, so no stored state holds
    B and frame 2 is derived; with w=3 or 4 frame 0 is still in the
    window and {A, B} is stored, so B re-enters and frame 2 enumerates
    the states that hold it."""
    _, enc = encode_stream(letters_stream(["AB", "A", "AB"]))
    gen = make_generator(method, w, 1)
    for fid, mask in enc[:2]:
        gen.advance(fid, mask)
    before = dict(gen.stats)
    gen.advance(*enc[2])
    check_invariants(gen)
    assert gen.stats["derived"] - before["derived"] == derived
    assert (gen.stats["visits"] == before["visits"]) == derived
    assert gen.results() == satisfied_states(enc[max(0, 3 - w) :], 1)


def flicker_stream(w: int, seed: int, n_frames: int = 100) -> list[tuple[int, list[int]]]:
    """Objects that flicker: each stays for 1 to 3 frames, then is gone
    for 1 to ``w`` frames, so most come back inside the window; one in
    four leaves for good and a new object takes its turn."""
    rng = random.Random(seed)
    due = {oid: rng.randrange(3) for oid in range(9)}  # oid -> fid of its next change
    present: set[int] = set()
    next_oid = len(due)
    stream = []
    for fid in range(n_frames):
        for oid, at in list(due.items()):
            if at > fid:
                continue
            if oid in present:
                present.discard(oid)
                if rng.random() < 0.25:
                    del due[oid]
                    oid, next_oid = next_oid, next_oid + 1
                due[oid] = fid + rng.randint(1, w)
            else:
                present.add(oid)
                due[oid] = fid + rng.randint(1, 3)
        stream.append((fid, sorted(present)))
    return stream


def st_walk(gen, probe: int) -> int:
    """The forest nodes an ST traversal pruning on ``probe`` meets: those
    whose every ancestor holds a bit of ``probe`` (the roots among them)."""

    def reached(node) -> bool:
        up = node.parent
        while up is not None:
            if not up.objset & probe:
                return False
            up = up.parent
        return True

    return sum(map(reached, gen.states.values()))


@pytest.mark.parametrize("prune", [False, True], ids=["unpruned", "pruned"])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("w,d", [(4, 1), (5, 2), (8, 3), (12, 4)])
def test_flicker_enumerates_only_reentering_states(method, prune, seed, w, d):
    """Objects leave and come back within ``w`` frames.  A frame's
    re-entering objects ``R`` are those absent from the previous
    non-empty frame ``p`` and present in an earlier frame of the window.
    After every frame the invariants hold, the store's frame sets are
    complete and it holds every intersection of two stored states
    (every admitted one when pruned: ``admit`` is monotone), and the
    results equal the oracle's (over the admitted object sets when
    pruned).  The enumeration runs iff ``R`` is not empty; it adds to
    ``visits`` the stored state count (NAIVE, MFS) or exactly the roots
    plus the nodes reached through nodes that hold a bit of ``R``
    (SSG), counted by a brute walk when the enumeration starts, after
    expiry."""
    stream = flicker_stream(w, seed)
    codec, enc = encode_stream(stream)
    admit = (lambda mask: bool(pairs_qids(codec.decode(mask)))) if prune else None
    gen = make_generator(method, w, d, admit)
    enumerate_states = gen._generators
    expected: list[int] = []
    n_reentering = n_pruned = 0

    def watched(objs_mask: int, probe: int):
        nonlocal n_pruned
        if method == "ssg":
            expected.append(st_walk(gen, reentering))
            n_pruned += expected[-1] < st_walk(gen, objs_mask)
        else:
            expected.append(gen.n_states())
        return enumerate_states(objs_mask, probe)

    gen._generators = watched
    window: list[tuple[int, int]] = []
    last = 0  # the previous non-empty frame's mask
    for fid, mask in enc:
        window = [(f, m) for f, m in window if f > fid - w]
        held = 0
        for _, m in window:
            held |= m
        reentering = mask & ~last & held
        before, n_enumerated = gen.stats["visits"], len(expected)
        gen.advance(fid, mask)
        check_invariants(gen)
        window.append((fid, mask))
        check_store(gen, window, admit)
        assert len(expected) - n_enumerated == bool(reentering), f"fid={fid}"
        assert gen.stats["visits"] - before == (expected[-1] if reentering else 0), f"fid={fid}"
        want = satisfied_states(window, d)
        if prune:
            want = {x: fr for x, fr in want.items() if admit(x)}
        assert gen.results() == want, f"fid={fid}"
        n_reentering += bool(reentering)
        if mask:
            last = mask
    assert n_reentering and gen.stats["derived"], "weak test"
    assert method != "ssg" or n_pruned, "weak test: the probe on R prunes no more than on O_i"


@pytest.mark.parametrize("method", METHODS)
def test_derived_frames_keep_marks_exact(method):
    """Objects come and go, so most frames are derived without being
    repeats; the newest mark of every state stays on the oracle's
    validity threshold (see the test above)."""
    gen = check_marks(method, derived_stream(8, 0))
    assert gen.stats["derived"] > gen.stats["repeated"] > 0


def test_recycled_bits_enter_derived_frames():
    """A new object that takes a bit the codec released enters a frame
    that may still be derived: the bit's old object left the window, so
    no stored state holds it.  ``run_recycling`` checks every pipeline
    against the oracle after every frame; here it must meet such
    frames, on short-lived objects and on held frames."""
    n = run_recycling(churn_stream(120, arrivals=1.3, dwell=4, seed=0), 4, 2)
    n += run_recycling(held_stream(churn_stream(60, dwell=5, seed=1), seed=1), 6, 3)
    assert n > 0, "no recycled bit entered a derived frame: weak test"


@pytest.mark.parametrize("method", METHODS)
def test_derived_frame_with_terminated_cut_group(method):
    """§5.3 pruning.  Frame 1 keeps 1, 2 and 4 of frame 0 and brings
    person 8, new to the stream, so it is derived: its cut group
    {1, 2, 4} (one car, two people) fails both PAIRS queries and is
    terminated, while its own object set (three people) is admitted.
    Rows and results equal the oracle's over the admitted object sets."""
    stream = [(0, [1, 2, 3, 4, 6]), (1, [1, 2, 4, 8])]
    ref, enc = encode_stream(stream)
    pipe = QueryPipeline(PAIRS, w=4, d=1, method=method, prune=True)
    for i, (fid, oids) in enumerate(stream):
        before = (pipe.stats.terminated, pipe.gen.stats["derived"], pipe.gen.stats["visits"])
        rows = pipe.feed(fid, [(o, "car" if o % 2 else "person") for o in oids])
        check_invariants(pipe.gen)
        want = {ref.decode(m): fr for m, fr in satisfied_states(enc[: i + 1], 1).items()}
        want = {x: fr for x, fr in want.items() if pairs_qids(x)}
        assert {pipe.codec.decode(m): fr for m, fr in pipe.gen.results().items()} == want
        assert sorted(rows) == sorted(
            MatchRow(q, x, len(fr)) for x, fr in want.items() for q in pairs_qids(x)
        ), f"fid={fid}"
    assert pipe.gen.stats["derived"] == before[1] + 1 and pipe.gen.stats["visits"] == before[2]
    assert pipe.stats.terminated == before[0] + 1
    assert (1, 2, 4) not in {pipe.codec.decode(m) for m in pipe.gen.states}
    assert (1, 2, 4, 8) in {pipe.codec.decode(m) for m in pipe.gen.states}


# ----------------------------------------------------------------------
# The previous frame's keys are held as states; ``_drop`` marks a
# dropped one with object set 0
# ----------------------------------------------------------------------
@pytest.mark.parametrize("prune", [False, True], ids=["unpruned", "pruned"])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("seed", range(2))
def test_negative_fids_match_shifted_stream(method, prune, seed):
    """A stream whose fids start below ``-w`` (so frames ``-w`` to ``-1``
    come and go, and marks take those values) gives every frame the
    rows, and ends with the ``gen.stats`` and pipeline stats, of the same
    stream from fid 0: no fid, however negative, can pass for the marker
    of a dropped state."""
    w, d = 6, 2
    stream = flicker_stream(w, seed, n_frames=80)
    shift = -3 * w - 1
    assert stream[0][0] + shift < -w and any(fid + shift == -1 for fid, _ in stream)
    pipes = [
        QueryPipeline(PAIRS if prune else ANY, w=w, d=d, method=method, prune=prune)
        for _ in range(2)
    ]
    for fid, oids in stream:
        objs = [(o, "car" if o % 2 else "person") for o in oids]
        rows = [sorted(pipe.feed(f, objs)) for pipe, f in zip(pipes, (fid, fid + shift))]
        assert rows[0] == rows[1], f"fid={fid}"
        check_invariants(pipes[1].gen)
    assert pipes[0].gen.stats == pipes[1].gen.stats
    assert pipes[0].stats == pipes[1].stats
    assert pipes[0].gen.stats["expired"] and pipes[0].stats.matches, "weak test"


@pytest.mark.parametrize("method", ["mfs", "ssg"])
def test_dropped_key_skipped_when_recreated(method):
    """w=2.  {A} is made at frame 0 and is a key of frame 1 ({A, B}),
    still marked at 0.  At frame 2 ({A}) that mark expires and {A} is
    dropped, while frame 2 makes {A} again from {A, B}.  The key loop
    skips the dropped state instead of appending to it, the new state is
    listed once, and results equal the oracle's after every frame."""
    w, d = 2, 1
    codec, enc = encode_stream(letters_stream(["A", "AB", "A", "AB", "A"]))
    a = codec.encode_iter([ord("A")])
    gen = make_generator(method, w, d)
    for i, (fid, mask) in enumerate(enc):
        before = gen.states.get(a)
        gen.advance(fid, mask)
        check_invariants(gen)
        assert gen.results() == satisfied_states(enc[max(0, i + 1 - w) : i + 1], d), f"fid={fid}"
        if fid == 2:
            keys = gen._last[2]
            assert before is not None and before.mark == 0 and gen.states[a] is not before
            assert all(st_ is not before for st_ in keys), "the dropped state is listed"
            assert [st_ for st_ in keys if st_.objset == a] == [gen.states[a]]
            assert gen.states[a].frames == [1, 2]
