"""Pipeline tests: MCOS generation × CNFEvalE coupling and §5.3 pruning."""
from __future__ import annotations

import random

import pytest

from repro.core.evaluate import MatchRow, QueryPipeline, make_generator
from repro.core.queries import (
    Condition,
    Query,
    geq_only_queries,
    random_cnf_queries,
)
from tests.core.util import evaluate_stream


def labeled_stream(n_frames, *, n_objects=10, seed=0, labels=("person", "car", "truck")):
    """(fid, [(oid,label),...]) stream with bursty dwell."""
    rng = random.Random(seed)
    label_of = {o: rng.choice(labels) for o in range(n_objects)}
    spans = {}
    for o in range(n_objects):
        a = rng.randrange(0, max(1, n_frames - 2))
        spans[o] = (a, a + max(2, int(rng.expovariate(1 / 8))))
    out = []
    for fid in range(n_frames):
        objs = [
            (o, label_of[o])
            for o, (a, b) in spans.items()
            if a <= fid <= b and rng.random() > 0.15
        ]
        out.append((fid, objs))
    return out


@pytest.mark.parametrize("seed", range(5))
def test_methods_agree_on_matches(seed):
    """NAIVE_E, MFS_E and SSG_E must produce identical match rows."""
    stream = labeled_stream(50, seed=seed)
    queries = random_cnf_queries(15, seed=seed, labels=("person", "car", "truck"))
    ref = evaluate_stream(stream, queries, w=8, d=4, method="naive")
    for method in ("mfs", "ssg"):
        got = evaluate_stream(stream, queries, w=8, d=4, method=method)
        assert sorted(got, key=str) == sorted(ref, key=str), method


@pytest.mark.parametrize("method", ["mfs", "ssg"])
@pytest.mark.parametrize("seed", range(5))
def test_pruned_variants_match_unpruned(method, seed):
    """MFS_O / SSG_O (§5.3) must return exactly the unpruned results
    for >=-only workloads (Proposition 1)."""
    stream = labeled_stream(60, seed=seed)
    queries = geq_only_queries(30, n_min=1, seed=seed, labels=("person", "car", "truck"))
    plain = evaluate_stream(stream, queries, w=10, d=5, method=method, prune=False)
    pruned = evaluate_stream(stream, queries, w=10, d=5, method=method, prune=True)
    assert sorted(plain, key=str) == sorted(pruned, key=str)


@pytest.mark.parametrize("method", ["naive", "mfs", "ssg"])
def test_pruning_reduces_states(method):
    """With a high n_min nearly everything is terminated: the pruned
    pipeline must maintain far fewer states (the Figure 9 effect)."""
    stream = labeled_stream(80, n_objects=8, seed=1)
    queries = geq_only_queries(20, n_min=9, seed=2, labels=("person", "car", "truck"))
    plain = QueryPipeline(queries, w=12, d=6, method=method, prune=False)
    pruned = QueryPipeline(queries, w=12, d=6, method=method, prune=True)
    peak_plain = peak_pruned = 0
    for fid, objs in stream:
        plain.feed(fid, objs)
        pruned.feed(fid, objs)
        peak_plain = max(peak_plain, plain.gen.n_states())
        peak_pruned = max(peak_pruned, pruned.gen.n_states())
    assert peak_pruned < peak_plain
    assert pruned.stats.terminated > 0
    assert pruned.stats.matches == plain.stats.matches == 0  # n_min=9 unreachable


def test_prune_requires_geq_only():
    queries = random_cnf_queries(5, seed=0)
    assert not all(q.is_geq_only() for q in queries)
    with pytest.raises(ValueError, match=">=-only"):
        QueryPipeline(queries, w=5, d=2, method="ssg", prune=True)


def test_irrelevant_classes_dropped():
    """Objects of classes no query mentions never enter MCOS generation."""
    queries = [Query(0, ((Condition("car", ">=", 1),),))]
    pipe = QueryPipeline(queries, w=4, d=2, method="mfs")
    pipe.feed(0, [(1, "car"), (2, "bicycle"), (3, "dog")])
    pipe.feed(1, [(1, "car"), (2, "bicycle")])
    assert len(pipe.codec) == 1  # only the car was encoded
    rows = pipe.feed(2, [(1, "car")])
    assert rows == [MatchRow(0, (1,), 3)]


def test_min_duration_gates_matches():
    queries = [Query(0, ((Condition("car", ">=", 2),),))]
    pipe = QueryPipeline(queries, w=5, d=3, method="ssg")
    assert pipe.feed(0, [(1, "car"), (2, "car")]) == []
    assert pipe.feed(1, [(1, "car"), (2, "car")]) == []
    rows = pipe.feed(2, [(1, "car"), (2, "car")])
    assert rows == [MatchRow(0, (1, 2), 3)]


def test_conflicting_class_rejected():
    queries = [Query(0, ((Condition("car", ">=", 1), Condition("person", ">=", 1)),),)]
    pipe = QueryPipeline(queries, w=4, d=1, method="mfs")
    pipe.feed(0, [(1, "car")])
    with pytest.raises(ValueError, match="classes"):
        pipe.feed(1, [(1, "person")])


@pytest.mark.parametrize("method", ["naive", "mfs", "ssg"])
def test_recycled_bit_takes_the_new_objects_class(method):
    """A car's bit is released once the car has left the window and is
    reused by a person, who counts as a person and not as a car; the
    car then returns under the same oid, gets another bit, and counts
    as a car again.  Its class stays known throughout."""
    cars = Query(0, ((Condition("car", ">=", 1),),))
    people = Query(1, ((Condition("person", ">=", 1),),))
    pipe = QueryPipeline([cars, people], w=3, d=1, method=method)
    assert pipe.feed(0, [(1, "car")]) == [MatchRow(0, (1,), 1)]
    (car_bit,) = pipe.gen.results()
    for fid in (1, 2, 3):  # frame 0 leaves the window at 3
        pipe.feed(fid, [])
    assert 1 not in pipe.codec and len(pipe.codec) == 1
    assert pipe.feed(4, [(2, "person")]) == [MatchRow(1, (2,), 1)]
    assert list(pipe.gen.results()) == [car_bit]
    rows = pipe.feed(5, [(1, "car")])
    assert sorted(rows) == [MatchRow(0, (1,), 1), MatchRow(1, (2,), 1)]
    assert car_bit in pipe.gen.results() and len(pipe.codec) == 2
    with pytest.raises(ValueError, match="classes"):
        pipe.feed(6, [(2, "car")])


def test_out_of_order_frames_rejected():
    queries = [Query(0, ((Condition("car", ">=", 1),),))]
    pipe = QueryPipeline(queries, w=4, d=1, method="ssg")
    pipe.feed(5, [(1, "car")])
    with pytest.raises(ValueError, match="increasing"):
        pipe.feed(5, [(1, "car")])


def test_make_generator_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        make_generator("fancy", 5, 2)


@pytest.mark.parametrize("n_queries", [10, 30, 50])
def test_match_rows_reference_check(n_queries):
    """Every emitted match must satisfy its query on the true per-class
    counts of the reported object set, and the reported support must
    meet d — checked from raw definitions, not via the pipeline."""
    stream = labeled_stream(40, seed=7)
    label_of = {}
    for _, objs in stream:
        for oid, lab in objs:
            label_of[oid] = lab
    queries = random_cnf_queries(n_queries, seed=3, labels=("person", "car", "truck"))
    by_qid = {q.qid: q for q in queries}
    rows = evaluate_stream(stream, queries, w=9, d=4, method="ssg")
    assert rows, "workload produced no matches — weak test"
    for row in rows:
        counts = {"person": 0, "car": 0, "truck": 0}
        for oid in row.objset:
            counts[label_of[oid]] += 1
        assert by_qid[row.qid].holds(counts), row
        assert row.n_frames >= 4


@pytest.mark.parametrize("method", ["naive", "mfs", "ssg"])
@pytest.mark.parametrize(
    "bad",
    [
        [(3, "car"), (1, "person")],  # new object, then a class conflict
        [(1, "car"), (7, "truck"), (7, "car")],  # conflict inside the frame
    ],
)
def test_rejected_frame_leaves_pipeline_unchanged(method, bad):
    """A frame refused for a class conflict changes nothing: the
    corrected frame with the same fid is accepted, and every row after
    it equals a pipeline that never saw the refused frame."""
    queries = random_cnf_queries(12, seed=5, labels=("person", "car", "truck"))
    # Object 1 is a car in two frames of three; 3 and 7 are first seen
    # in the refused frame.
    clean = [
        (fid, [(o, lab) for o, lab in objs if o not in (1, 3, 7)] + [(1, "car")] * (fid % 3 != 0))
        for fid, objs in labeled_stream(30, seed=4)
    ]
    pipe = QueryPipeline(queries, w=8, d=3, method=method)
    ref = QueryPipeline(queries, w=8, d=3, method=method)
    for fid, objs in clean[:10]:
        assert sorted(pipe.feed(fid, objs)) == sorted(ref.feed(fid, objs))
    with pytest.raises(ValueError, match="classes"):
        pipe.feed(10, bad)
    assert len(pipe.codec) == len(ref.codec) and pipe.label_of == ref.label_of
    n_rows = 0
    for fid, objs in clean[10:]:
        rows = pipe.feed(fid, objs)
        assert sorted(rows) == sorted(ref.feed(fid, objs))
        n_rows += len(rows)
    assert n_rows and pipe.stats == ref.stats


def record_evaluations(pipe) -> list[tuple]:
    """Wrap ``pipe.engine.evaluate``; returns the list it appends each
    call's counts to, as sorted ``(label, count)`` tuples."""
    calls = []
    engine = pipe.engine
    evaluate = engine.evaluate

    def recording(counts):
        calls.append(tuple(zip(engine.labels, counts, strict=True)))
        return evaluate(counts)

    pipe.engine.evaluate = recording
    return calls


LABEL_SETS = [
    ("person", "car", "truck"),
    ("car",),
    ("person", "bus"),  # "bus" never appears in the stream
    ("person", "car", "truck", "bus"),
]


@pytest.mark.parametrize("method", ["naive", "mfs", "ssg"])
@pytest.mark.parametrize("labels", LABEL_SETS)
@pytest.mark.parametrize("seed", range(3))
def test_match_rows_complete(method, labels, seed):
    """On every frame the rows are exactly the (result state, query)
    pairs whose query holds on the state's decoded class counts — none
    missing, none extra — and CNFEvalE runs once per count vector."""
    stream = labeled_stream(45, n_objects=12, seed=seed)
    label_of = {oid: lab for _, objs in stream for oid, lab in objs}
    queries = random_cnf_queries(20, seed=seed, labels=labels, n_lo=0, n_hi=3)
    assert {c.op for q in queries for disj in q.cnf for c in disj} == {">=", "<=", "=="}
    query_labels = {c.label for q in queries for disj in q.cnf for c in disj}
    pipe = QueryPipeline(queries, w=9, d=3, method=method)
    calls = record_evaluations(pipe)
    vectors = set()
    n_rows = 0
    for fid, objs in stream:
        rows = pipe.feed(fid, objs)
        want = set()
        for mask, frames in pipe.gen.results().items():
            objset = pipe.codec.decode(mask)
            counts = {lab: 0 for lab in query_labels}
            for oid in objset:
                counts[label_of[oid]] += 1
            vectors.add(tuple(sorted(counts.items())))
            want |= {(q.qid, objset, len(frames)) for q in queries if q.holds(counts)}
        assert len(rows) == len(set(rows))
        assert set(rows) == want, fid
        n_rows += len(rows)
    assert n_rows, "workload produced no matches — weak test"
    assert len(calls) == len(vectors) == pipe.stats.evaluations == len(pipe._counts_cache)
    assert set(calls) == vectors


@pytest.mark.parametrize("method", ["naive", "mfs", "ssg"])
def test_pruned_evaluations_once_per_count_vector(method):
    """Admission (§5.3) and matching share the count-vector memo."""
    stream = labeled_stream(60, seed=2)
    queries = geq_only_queries(30, n_min=2, seed=2, labels=("person", "car", "truck"))
    pipe = QueryPipeline(queries, w=10, d=4, method=method, prune=True)
    calls = record_evaluations(pipe)
    # The object sets offered for admission, decoded when offered: the
    # codec recycles bits, so neither a mask nor the admission cache
    # (pruned when bits are released) counts them over the stream.
    offered = set()
    admit = pipe.gen.admit

    def recording_admit(mask):
        offered.add(pipe.codec.decode(mask))
        return admit(mask)

    pipe.gen.admit = recording_admit
    for fid, objs in stream:
        pipe.feed(fid, objs)
    assert pipe.stats.terminated > 0
    assert len(calls) == len(set(calls)) == pipe.stats.evaluations
    assert pipe.stats.evaluations < len(offered)


@pytest.mark.parametrize("method", ["naive", "mfs", "ssg"])
def test_row_cache_follows_the_live_count(method):
    """Car 1 is in frames 0-3, 6-7, 10-11, ... and person 2 in every
    frame, so the live count of {1, 2} at w=4 rises from 1 to 4, falls
    to 2, then stays at 2.  Every frame emits the rows of the decoded
    results at their live counts, and while a count holds the frame
    reuses the previous frame's row objects."""
    queries = [Query(0, ((Condition("car", ">=", 1),),)), Query(1, ((Condition("person", ">=", 1),),))]
    pipe = QueryPipeline(queries, w=4, d=1, method=method)
    counts = []
    prev = {}
    for fid in range(16):
        car = fid < 4 or fid % 4 in (2, 3)
        rows = pipe.feed(fid, [(2, "person")] + [(1, "car")] * car)
        want = {
            MatchRow(q.qid, objset, len(frames))
            for mask, frames in pipe.gen.results().items()
            for objset in [pipe.codec.decode(mask)]
            for q in queries
            if q.qid == 0 and 1 in objset or q.qid == 1
        }
        assert len(rows) == len(want) and set(rows) == want, fid
        both = {r.qid: r for r in rows if r.objset == (1, 2)}
        counts.append(both[0].n_frames)
        if prev and prev[0].n_frames == both[0].n_frames:
            assert prev[0] is both[0] and prev[1] is both[1], fid
        prev = both
    assert counts == [1, 2, 3, 4, 3, 2] + [2] * 10


@pytest.mark.parametrize("method", ["naive", "mfs", "ssg"])
def test_row_cache_drops_rows_of_released_bits(method):
    """Cars 1 and 3 hold bits 0 and 1 for two frames, then leave; their
    bits are released (at frame 6) and taken by people 2 and 4, who
    dwell as long, so the mask and live counts repeat.  The rows name the people and
    the person query, as a fresh pipeline fed only the people's frames
    emits them, not the cars' cached rows."""
    queries = [Query(0, ((Condition("car", ">=", 2),),)), Query(1, ((Condition("person", ">=", 2),),))]
    pipe = QueryPipeline(queries, w=3, d=1, method=method)
    cars = [(1, "car"), (3, "car")]
    people = [(2, "person"), (4, "person")]
    stream = [(0, cars), (1, cars)] + [(fid, []) for fid in range(2, 7)] + [(7, people), (8, people)]
    car_rows = [pipe.feed(fid, objs) for fid, objs in stream[:2]]
    assert car_rows == [[MatchRow(0, (1, 3), 1)], [MatchRow(0, (1, 3), 2)]]
    (car_mask,) = pipe.gen.result_sizes()
    fresh = QueryPipeline(queries, w=3, d=1, method=method)
    for fid, objs in stream[2:]:
        got = pipe.feed(fid, objs)
        if fid >= 7:
            assert got == fresh.feed(fid, objs), fid
    assert got == [MatchRow(1, (2, 4), 2)]
    assert list(pipe.gen.result_sizes()) == [car_mask] and car_mask in pipe._match_cache
