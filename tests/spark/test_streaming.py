"""Structured Streaming pipeline: stream output must equal batch output.

The VR stream is fed through the file source in ordered chunks (one
micro-batch per file via ``maxFilesPerTrigger=1``; file modification
times are spaced so the source picks them oldest-first), exercising
state carry-over across micro-batches in ``applyInPandasWithState``.
"""
from __future__ import annotations

import os
import time

import pytest

from repro.core.evaluate import QueryPipeline
from repro.core.queries import geq_only_queries, random_cnf_queries
from repro.spark.batch import evaluate_queries_batch, frames_by_fid, match_rows
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
            vr_to_spark(spark, vr), queries, w=10, d=5, method=method,
            n_frames=N_FRAMES,
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
            vr_to_spark(spark, vr), queries, w=10, d=4, method="ssg",
            n_frames=N_FRAMES,
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

    @property
    def exists(self) -> bool:
        return self.value is not None

    @property
    def get(self) -> tuple:
        return self.value

    def update(self, value: tuple) -> None:
        self.value = value


@pytest.mark.parametrize("name,d,method", [("M1", 60, "ssg"), ("V1", 240, "mfs")])
def test_update_fn_over_micro_batches_equals_pipeline(name, d, method):
    """4,000 frames at w=300 in 100-frame micro-batches with empty-frame
    markers, fed to the streaming update function through a stub
    ``GroupState`` (no Spark): the state is pickled between batches, and
    one batch is replayed whole.  The rows equal an uninterrupted
    pipeline's, in order.  M1 reaches no d=240 state, so it runs at d=60."""
    n, w = 4000, 300
    queries = random_cnf_queries(50, seed=0)
    vr = with_empty_frame_markers(build_vr(name, n_frames=n), n)
    batches = [vr[(vr.fid >= lo) & (vr.fid < lo + 100)] for lo in range(0, n, 100)]
    batches.insert(21, batches[20])
    update = _make_update_fn(queries, w, d, method, False)
    state = StubGroupState()
    got = [row for b in batches for out in update((name,), [b], state)
           for row in out.itertuples(index=False, name=None)]
    by_fid = frames_by_fid([vr])
    pipe = QueryPipeline(queries, w=w, d=d, method=method)
    want = match_rows(name, pipe, [(fid, by_fid[fid]) for fid in sorted(by_fid)])
    assert got == list(want.itertuples(index=False, name=None))
    assert got, "no match rows: weak test"
