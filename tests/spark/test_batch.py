"""Batch Spark pipeline vs the pure-Python reference and SQL oracles."""
from __future__ import annotations

import pandas as pd
import pytest

from repro.core.queries import Condition, Query, geq_only_queries, random_cnf_queries
from repro.detect_track.tracker import EMPTY_FRAME_OID, frames_by_fid
from repro.spark.batch import _frames_of_group, evaluate_queries_batch
from repro.spark.relation import vr_to_spark
from repro.spark.streaming import with_empty_frame_markers
from tests.core.util import evaluate_stream, mcos_stream
from tests.oracle import assert_equivalent
from tests.spark.util import synthetic_vr

N_FRAMES = 60


@pytest.fixture(scope="module")
def vr_pdf():
    return synthetic_vr(n_frames=N_FRAMES, seed=7)


def marked(spark, vr_pdf, n_frames=N_FRAMES):
    """``vr_pdf`` with empty-frame markers up to ``n_frames``, in Spark:
    the batch path runs each camera to its largest fid."""
    return vr_to_spark(spark, with_empty_frame_markers(vr_pdf, n_frames))


def _reference_rows(vr_pdf, queries, w, d, method="naive", prune=False):
    """Drive the pure-Python pipeline per camera (no Spark)."""
    rows = []
    for camera, grp in vr_pdf.groupby("camera"):
        by_fid = {
            fid: list(zip(g["oid"].astype(int), g["cls"]))
            for fid, g in grp.groupby("fid")
        }
        stream = [(fid, by_fid.get(fid, [])) for fid in range(N_FRAMES)]
        for m in evaluate_stream(stream, queries, w=w, d=d, method=method, prune=prune):
            rows.append(
                (camera, m.fid, m.qid, ",".join(map(str, m.objset)), m.n_frames)
            )
    return sorted(rows)


@pytest.mark.parametrize("method", ["naive", "mfs", "ssg"])
def test_batch_matches_pure_python(spark, vr_pdf, method):
    queries = random_cnf_queries(12, seed=1, labels=("person", "car", "truck"))
    got = evaluate_queries_batch(
        marked(spark, vr_pdf), queries, w=10, d=5, method=method
    )
    got_rows = sorted(tuple(r) for r in got.collect())
    assert got_rows == _reference_rows(vr_pdf, queries, 10, 5, method)
    assert got_rows, "workload produced no matches — weak test"


def test_batch_methods_agree(spark, vr_pdf):
    queries = random_cnf_queries(15, seed=2, labels=("person", "car", "truck"))
    outs = [
        sorted(
            tuple(r)
            for r in evaluate_queries_batch(
                marked(spark, vr_pdf), queries, w=12, d=6, method=m
            ).collect()
        )
        for m in ("naive", "mfs", "ssg")
    ]
    assert outs[0] == outs[1] == outs[2]


def test_batch_pruned_matches_unpruned(spark, vr_pdf):
    queries = geq_only_queries(20, n_min=1, seed=3, labels=("person", "car", "truck"))
    a = sorted(
        tuple(r)
        for r in evaluate_queries_batch(
            marked(spark, vr_pdf), queries, w=10, d=4, method="ssg",
            prune=False,
        ).collect()
    )
    b = sorted(
        tuple(r)
        for r in evaluate_queries_batch(
            marked(spark, vr_pdf), queries, w=10, d=4, method="ssg",
            prune=True,
        ).collect()
    )
    assert a == b


@pytest.mark.parametrize("method", ["naive", "mfs", "ssg"])
def test_mcos_stream_d_equals_w_sql_oracle(method):
    """For ``d = w`` the satisfied MCOS per window is exactly the set
    of objects present in all ``w`` frames — checked in pure SQL via
    the DuckDB oracle (gap-free stream so windows are well-defined)."""
    n, w = 40, 6
    vr_pdf = synthetic_vr(n_frames=n, p_gap=0.0, seed=11)
    rows = []
    for camera, grp in vr_pdf.groupby("camera"):
        by_fid = grp.groupby("fid")["oid"].apply(list).to_dict()
        frames = ((fid, by_fid.get(fid, [])) for fid in range(n))
        for fid, result in mcos_stream(frames, w=w, d=w, method=method):
            rows.extend((camera, fid, int(oid)) for objset in result for oid in objset)
    assert rows, "no object spans a whole window — weak test"
    assert_equivalent(
        pd.DataFrame(rows, columns=["camera", "win_end", "oid"]),
        f"""
        SELECT a.camera AS camera, a.fid AS win_end, b.oid AS oid
        FROM (SELECT DISTINCT camera, fid FROM vr) a
        JOIN vr b ON a.camera = b.camera
                 AND b.fid BETWEEN a.fid - {w - 1} AND a.fid
        WHERE a.fid >= {w - 1}
        GROUP BY a.camera, a.fid, b.oid
        HAVING COUNT(DISTINCT b.fid) = {w}
        """,
        vr=vr_pdf,
    )


def test_frames_of_group_rejects_fid_out_of_range():
    """Frames run from 0 to the largest fid, a marker row included; a
    negative fid fails the camera's batch, as the streaming path would
    feed it rather than drop it."""
    def vr(*fids):
        return pd.DataFrame(
            [("cam0", fid, 1, "car") for fid in fids],
            columns=["camera", "fid", "oid", "cls"],
        )

    assert [f for f, _ in _frames_of_group(vr(0, 2))] == [0, 1, 2]
    end = pd.DataFrame([("cam0", 4, EMPTY_FRAME_OID, "none")], columns=["camera", "fid", "oid", "cls"])
    assert list(_frames_of_group(pd.concat([vr(0, 2), end]))) == [
        (0, [(1, "car")]), (1, []), (2, [(1, "car")]), (3, []), (4, [])
    ]
    with pytest.raises(ValueError, match=r"'cam0'.*fid -1\b"):
        list(_frames_of_group(vr(0, 2, -1)))


def test_frames_by_fid_groups_rows_and_markers():
    """Rows group by fid across frames in arrival order; a marker row
    gives its frame an empty list; keys and oids are Python ints."""
    cols = ["camera", "fid", "oid", "cls"]
    a = pd.DataFrame([("c", 0, 3, "car"), ("c", 2, EMPTY_FRAME_OID, ""), ("c", 0, 1, "bus")], columns=cols)
    b = pd.DataFrame([("c", 5, 7, "person"), ("c", 0, 4, "car")], columns=cols)
    got = frames_by_fid([a, b, a.iloc[:0]])
    assert got == {0: [(3, "car"), (1, "bus"), (4, "car")], 2: [], 5: [(7, "person")]}
    assert all(type(fid) is int for fid in got)
    assert all(type(oid) is int for objs in got.values() for oid, _ in objs)


def test_batch_multi_camera_isolation(spark):
    """Cameras must not share object or window state: evaluating two
    cameras together equals evaluating each alone."""
    vr_pdf = with_empty_frame_markers(synthetic_vr(cameras=("a", "b"), n_frames=40, seed=5), 40)
    queries = [Query(0, ((Condition("car", ">=", 1),),))]
    both = sorted(
        tuple(r)
        for r in evaluate_queries_batch(
            vr_to_spark(spark, vr_pdf), queries, w=8, d=3
        ).collect()
    )
    solo = []
    for cam in ("a", "b"):
        solo.extend(
            tuple(r)
            for r in evaluate_queries_batch(
                vr_to_spark(spark, vr_pdf[vr_pdf.camera == cam]),
                queries, w=8, d=3,
            ).collect()
        )
    assert both == sorted(solo)
