"""Structured Streaming pipeline: stream output must equal batch output.

The VR stream is fed through the file source in ordered chunks (one
micro-batch per file via ``maxFilesPerTrigger=1``; file modification
times are spaced so the source picks them oldest-first), exercising
state carry-over across micro-batches in ``applyInPandasWithState``.
The update function also runs in process, through a stub
``GroupState``, on paper-scale streams and on late frames.
"""
from __future__ import annotations

import os
import time

import pandas as pd
import pytest

from repro.core.evaluate import QueryPipeline
from repro.core.queries import Condition, Query, geq_only_queries, random_cnf_queries
from repro.detect_track.tracker import EMPTY_FRAME_OID, frames_by_fid
from repro.spark.batch import RESULT_COLUMNS, _frames_of_group, evaluate_queries_batch, match_rows
from repro.spark.relation import VR_SCHEMA, vr_to_spark
from repro.spark.streaming import (
    _make_update_fn,
    evaluate_queries_stream,
    with_empty_frame_markers,
)
from repro.videogen.datasets import build_vr
from tests.spark.util import synthetic_vr

N_FRAMES = 48


def _write_chunks(spark, vr, tmpdir: str, n_chunks: int = 4) -> str:
    """Write the VR relation as ordered parquet chunk files."""
    indir = os.path.join(tmpdir, "vr_in")
    os.makedirs(indir, exist_ok=True)
    per = (N_FRAMES + n_chunks - 1) // n_chunks
    t0 = time.time() - 1000
    for i in range(n_chunks):
        chunk = vr[(vr.fid >= i * per) & (vr.fid < (i + 1) * per)]
        path = os.path.join(indir, f"chunk-{i:04d}.parquet")
        chunk.to_parquet(path, index=False)
        os.utime(path, (t0 + i * 30, t0 + i * 30))
    return indir


def _run_stream(spark, indir, queries, *, w, d, method, prune=False, tmpdir):
    stream = (
        spark.readStream.schema(VR_SCHEMA)
        .option("maxFilesPerTrigger", 1)
        .parquet(indir)
    )
    out = evaluate_queries_stream(
        stream, queries, w=w, d=d, method=method, prune=prune
    )
    name = f"stream_out_{abs(hash((indir, method, prune, w, d))) % 10**9}"
    q = (
        out.writeStream.format("memory")
        .queryName(name)
        .outputMode("append")
        .option("checkpointLocation", os.path.join(tmpdir, f"ckpt_{name}"))
        .start()
    )
    try:
        q.processAllAvailable()
    finally:
        q.stop()
    return sorted(tuple(r) for r in spark.sql(f"SELECT * FROM {name}").collect())


@pytest.mark.parametrize("method", ["mfs", "ssg"])
def test_stream_equals_batch(spark, tmp_path, method):
    vr = with_empty_frame_markers(synthetic_vr(n_frames=N_FRAMES, seed=9), N_FRAMES)
    queries = random_cnf_queries(10, seed=4, labels=("person", "car", "truck"))
    indir = _write_chunks(spark, vr, str(tmp_path))
    got = _run_stream(
        spark, indir, queries, w=10, d=5, method=method, tmpdir=str(tmp_path)
    )
    want = sorted(
        tuple(r)
        for r in evaluate_queries_batch(
            vr_to_spark(spark, vr), queries, w=10, d=5, method=method
        ).collect()
    )
    assert got == want
    assert got, "workload produced no matches — weak test"


def test_stream_with_termination_pruning(spark, tmp_path):
    vr = with_empty_frame_markers(synthetic_vr(n_frames=N_FRAMES, seed=10), N_FRAMES)
    queries = geq_only_queries(12, n_min=1, seed=5, labels=("person", "car", "truck"))
    indir = _write_chunks(spark, vr, str(tmp_path))
    got = _run_stream(
        spark, indir, queries, w=10, d=4, method="ssg", prune=True,
        tmpdir=str(tmp_path),
    )
    want = sorted(
        tuple(r)
        for r in evaluate_queries_batch(
            vr_to_spark(spark, vr), queries, w=10, d=4, method="ssg"
        ).collect()
    )
    assert got == want


def test_empty_frame_markers_cover_all_frames():
    vr = synthetic_vr(n_frames=30, p_gap=0.4, seed=12)
    marked = with_empty_frame_markers(vr, 30)
    for camera, grp in marked.groupby("camera"):
        assert set(grp["fid"]) == set(range(30))
    # marker rows only where no detection exists
    markers = marked[marked.oid == -1]
    real = marked[marked.oid != -1]
    overlap = set(map(tuple, markers[["camera", "fid"]].values)) & set(
        map(tuple, real[["camera", "fid"]].values)
    )
    assert not overlap


class StubGroupState:
    """In-process stand-in for Spark's ``GroupState``: hands the tuple
    that ``update`` stored back on its next call."""

    def __init__(self) -> None:
        self.value = None
        self.updates = 0

    @property
    def exists(self) -> bool:
        return self.value is not None

    @property
    def get(self) -> tuple:
        return self.value

    def update(self, value: tuple) -> None:
        self.value = value
        self.updates += 1


def run_update(batches, queries, *, w: int, d: int, method: str, camera: str = "cam0") -> list[tuple]:
    """Feed micro-batches to the streaming update function through a
    stub ``GroupState`` (no Spark); return its rows.  After each batch
    the state must hold only fids of the window ``[last - w + 1, last]``,
    ``last`` among them."""
    update = _make_update_fn(queries, w, d, method, False)
    state = StubGroupState()
    rows: list[tuple] = []
    last = None
    for b in batches:
        rows += [row for out in update((camera,), [b], state)
                 for row in out.itertuples(index=False, name=None)]
        last = max(int(b.fid.max()), last if last is not None else -1)
        fids = state.value[0]
        assert max(fids) == last and min(fids) > last - w, f"state fids after fid {last}"
    return rows


def pipeline_rows(vr: pd.DataFrame, queries, *, w: int, d: int, method: str, camera: str = "cam0") -> list[tuple]:
    """The rows of one uninterrupted pipeline over every frame of ``vr``."""
    by_fid = frames_by_fid([vr])
    pipe = QueryPipeline(queries, w=w, d=d, method=method)
    out = match_rows(camera, pipe, [(fid, by_fid[fid]) for fid in sorted(by_fid)])
    return list(out.itertuples(index=False, name=None))


def per_frame(rows: list[tuple]) -> list[tuple[int, list[tuple]]]:
    """Rows as ``(fid, sorted rows of that frame)``; fids must strictly
    increase from one frame to the next."""
    frames: list[tuple[int, list[tuple]]] = []
    for row in rows:
        fid = row[1]
        if frames and frames[-1][0] == fid:
            frames[-1][1].append(row)
        else:
            assert not frames or fid > frames[-1][0], f"fid {fid} after {frames[-1][0]}"
            frames.append((fid, [row]))
    return [(fid, sorted(frame)) for fid, frame in frames]


def vr_rows(*rows: tuple[int, int, str]) -> pd.DataFrame:
    return pd.DataFrame([("cam0", *r) for r in rows], columns=["camera", "fid", "oid", "cls"])


@pytest.mark.parametrize("name,d,method", [("M1", 60, "ssg"), ("V1", 240, "mfs")])
def test_update_fn_over_micro_batches_equals_pipeline(name, d, method):
    """4,000 frames at w=300 in 100-frame micro-batches with empty-frame
    markers, one batch replayed whole: each micro-batch rebuilds the
    pipeline from the stored window.  Every frame's rows equal an
    uninterrupted pipeline's as a sorted list (a rebuilt pipeline fills
    its Result State Set in another order).  M1 reaches no d=240 state,
    so it runs at d=60."""
    n, w = 4000, 300
    queries = random_cnf_queries(50, seed=0)
    vr = with_empty_frame_markers(build_vr(name, n_frames=n), n)
    batches = [vr[(vr.fid >= lo) & (vr.fid < lo + 100)] for lo in range(0, n, 100)]
    batches.insert(21, batches[20])
    got = run_update(batches, queries, w=w, d=d, method=method, camera=name)
    want = pipeline_rows(vr, queries, w=w, d=d, method=method, camera=name)
    assert per_frame(got) == per_frame(want)
    assert got, "no match rows: weak test"


def test_update_fn_with_fid_gaps():
    """Frames left out of the stream, without markers, one gap across a
    micro-batch boundary and one wider than the window: the rows equal
    an uninterrupted pipeline's over the same frames."""
    w, d = 300, 60
    queries = random_cnf_queries(50, seed=0)
    vr = build_vr("M1", n_frames=2000)
    vr = vr[(vr.fid % 7 != 3) & ~vr.fid.between(550, 620) & ~vr.fid.between(900, 1250)]
    batches = [vr[(vr.fid >= lo) & (vr.fid < lo + 100)] for lo in range(0, 2000, 100)]
    got = run_update([b for b in batches if len(b)], queries, w=w, d=d, method="ssg")
    want = pipeline_rows(vr, queries, w=w, d=d, method="ssg")
    assert per_frame(got) == per_frame(want)
    assert max(r[1] for r in got) > 1250, "no rows after the wide gap: weak test"


@pytest.mark.parametrize("method", ["naive", "mfs", "ssg"])
def test_unmarked_gap_emits_batch_rows_only(method):
    """At a fid left out without a marker the two paths part: the batch
    path feeds it as an empty frame and emits its rows, the stream feeds
    nothing and emits none for it.  VR rows at fids 0, 1 and 3, w=4, d=1."""
    queries = [Query(0, ((Condition("car", ">=", 1),),))]
    vr = vr_rows((0, 1, "car"), (1, 1, "car"), (3, 1, "car"))
    pipe = QueryPipeline(queries, w=4, d=1, method=method)
    batch = match_rows("cam0", pipe, _frames_of_group(vr))
    assert list(batch.fid) == [0, 1, 2, 3]
    stream = run_update([vr], queries, w=4, d=1, method=method)
    assert [r[1] for r in stream] == [0, 1, 3]


def test_update_fn_late_frames():
    """A fid at or below the last one processed is skipped if it repeats
    its stored frame's rows, in any order; it raises, naming the camera
    and the fid, if its rows differ, if it was a gap, or if it lies below
    the window."""
    queries = [Query(0, ((Condition("car", ">=", 1),),))]
    update = _make_update_fn(queries, 4, 2, "mfs", False)
    state = StubGroupState()

    def feed(*rows):
        return [tuple(r) for out in update(("cam0",), [vr_rows(*rows)], state)
                for r in out.itertuples(index=False, name=None)]

    first = [(0, 1, "car"), (1, 1, "car"), (2, EMPTY_FRAME_OID, "none"), (3, 1, "car"),
             (4, 1, "car"), (4, 2, "person"), (5, 1, "car"), (7, 1, "car")]
    assert [r[1] for r in feed(*first)] == [1, 2, 3, 4, 5, 7]
    stored = state.value
    # fids 4, 5 and 7 replayed (4 with its rows swapped) next to a new fid 8
    assert [r[1] for r in feed((4, 2, "person"), (4, 1, "car"), (5, 1, "car"),
                               (7, 1, "car"), (8, 1, "car"))] == [8]
    assert feed((5, 1, "car")) == []
    window = state.value
    assert window[0] == [5, 7, 8] and stored[0] == [4, 4, 5, 7]
    for rows, fid in [([(7, 1, "car"), (7, 3, "car")], 7), ([(7, EMPTY_FRAME_OID, "none")], 7),
                      ([(6, EMPTY_FRAME_OID, "none")], 6), ([(4, 1, "car")], 4),
                      ([(9, 1, "car"), (1, 1, "car")], 1)]:
        with pytest.raises(ValueError, match=rf"'cam0': fid {fid}\b"):
            feed(*rows)
        assert state.value is window


def test_update_fn_replay_only_batch():
    """A micro-batch of replayed frames alone emits an empty frame of
    ``RESULT_SCHEMA``'s columns and neither rebuilds nor rewrites the
    state; the next batch's rows equal an uninterrupted pipeline's."""
    n, w, d = 800, 300, 60
    queries = random_cnf_queries(50, seed=0)
    vr = with_empty_frame_markers(build_vr("M1", n_frames=n), n)
    batches = [vr[(vr.fid >= lo) & (vr.fid < lo + 100)] for lo in range(0, n, 100)]
    update = _make_update_fn(queries, w, d, "ssg", False)
    state = StubGroupState()
    outs = []
    for i, b in enumerate(batches):
        outs += list(update(("cam0",), [b], state))
        if i == 4:
            stored, updates = state.value, state.updates
            # fids 350-499, in reverse row order
            replay = pd.concat([batches[3][batches[3].fid >= 350], b]).iloc[::-1]
            (out,) = update(("cam0",), [replay], state)
            assert list(out.columns) == RESULT_COLUMNS and out.empty
            assert state.value is stored and state.updates == updates
    got = [row for out in outs for row in out.itertuples(index=False, name=None)]
    want = pipeline_rows(vr, queries, w=w, d=d, method="ssg")
    assert per_frame(got) == per_frame(want)
    assert max(r[1] for r in got) >= 500, "no rows after the replay: weak test"


def test_update_fn_class_conflict_across_windows():
    """An object seen as a car and, more than ``w`` frames and several
    micro-batches later, as a person still raises: the state keeps the
    class of every object, not only the window's."""
    queries = [Query(0, ((Condition("car", ">=", 1),),)), Query(1, ((Condition("person", ">=", 1),),))]
    update = _make_update_fn(queries, 4, 2, "ssg", False)
    state = StubGroupState()
    batches = [vr_rows((0, 5, "car"), (1, 5, "car"))]
    batches += [vr_rows((fid, 6, "person")) for fid in range(2, 20)]
    for b in batches:
        list(update(("cam0",), [b], state))
    assert 0 not in state.value[0] and 5 in state.value[3]
    with pytest.raises(ValueError, match=r"object 5 seen with classes 'car' and 'person'"):
        list(update(("cam0",), [vr_rows((20, 5, "person"))], state))
