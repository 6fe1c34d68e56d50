"""Bounded (batch) query evaluation over VR with Spark.

Each camera's object stream is an independent sequential state
machine, so the natural Spark decomposition is
``groupBy("camera").applyInPandas(...)``: Catalyst plans the shuffle
that routes each camera's rows to one task, and the task runs the
paper's MCOS generation + CNFEvalE pipeline over the frames in order.
Scale-out is across cameras (and across query groups, which the
driver can submit concurrently).

Frames run from fid 0 to a camera's largest fid; a fid without rows
is fed to the generator as an empty frame.  Rows with ``oid = -1`` are
explicit empty-frame markers (the streaming protocol's), so a camera
whose video ends in empty frames marks its last fid.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.evaluate import QueryPipeline
from repro.core.queries import Query
from repro.detect_track.tracker import frames_by_fid

RESULT_SCHEMA = (
    "camera string, fid long, qid long, objset string, n_frames long"
)
RESULT_COLUMNS = [field.split()[0] for field in RESULT_SCHEMA.split(", ")]

def match_rows(
    camera: str, pipe: QueryPipeline, frames: Iterable[tuple[int, list[tuple[int, str]]]]
) -> pd.DataFrame:
    """Feed ``frames`` to ``pipe`` in order; its match rows, in the order
    ``feed`` returns them, as a frame of ``RESULT_SCHEMA``.  The frame is
    built from columns: each ``fid`` repeated by its frame's row count,
    and ``objset`` as the MCOS's comma-joined oid string, joined once per
    distinct object set."""
    rows = []
    fids = []
    counts = []
    for fid, objs in frames:
        got = pipe.feed(fid, objs)
        rows += got
        fids.append(fid)
        counts.append(len(got))
    if not rows:
        return pd.DataFrame(columns=RESULT_COLUMNS)
    objsets = [r.objset for r in rows]
    joined = {objset: ",".join(map(str, objset)) for objset in set(objsets)}
    columns = (
        camera,
        np.repeat(np.array(fids, dtype=np.int64), counts),
        np.array([r.qid for r in rows], dtype=np.int64),
        np.array([joined[objset] for objset in objsets], dtype=object),
        np.array([r.n_frames for r in rows], dtype=np.int64),
    )
    return pd.DataFrame(dict(zip(RESULT_COLUMNS, columns)))


def _frames_of_group(pdf: pd.DataFrame) -> Iterable[tuple[int, list[tuple[int, str]]]]:
    """Yield ``(fid, [(oid, cls), ...])`` for every fid from 0 to the
    largest, in order, a fid without rows as an empty frame.

    A negative fid raises ``ValueError`` rather than being dropped: the
    streaming path would process it."""
    by_fid = frames_by_fid([pdf])
    first = min(by_fid)
    if first < 0:
        raise ValueError(f"camera {pdf['camera'].iloc[0]!r}: fid {first} is negative")
    for fid in range(max(by_fid) + 1):
        yield fid, by_fid.get(fid, [])


def evaluate_queries_batch(
    vr_df: DataFrame,
    queries: list[Query],
    *,
    w: int,
    d: int,
    method: str = "ssg",
    prune: bool = False,
) -> DataFrame:
    """Match rows ``(camera, fid, qid, objset, n_frames)`` per §5.2.

    ``objset`` is the MCOS as a comma-joined oid string (kept scalar so
    result rows stay orderable and comparable)."""

    def run(pdf: pd.DataFrame) -> pd.DataFrame:
        pipe = QueryPipeline(queries, w=w, d=d, method=method, prune=prune)
        return match_rows(str(pdf["camera"].iloc[0]), pipe, _frames_of_group(pdf))

    return vr_df.groupBy("camera").applyInPandas(run, RESULT_SCHEMA)

