"""Bounded (batch) query evaluation over VR with Spark.

Each camera's object stream is an independent sequential state
machine, so the natural Spark decomposition is
``groupBy("camera").applyInPandas(...)``: Catalyst plans the shuffle
that routes each camera's rows to one task, and the task runs the
paper's MCOS generation + CNFEvalE pipeline over the frames in order.
Scale-out is across cameras (and across query groups, which the
driver can submit concurrently).

Frames with no detections still advance the window; the per-camera
video length is threaded through ``n_frames`` so gaps in the fid
sequence are fed to the generator as empty frames.  Rows with
``oid = -1`` are treated as explicit empty-frame markers (used by the
streaming path, which cannot know the video length up front).
"""
from __future__ import annotations

from typing import Iterable

import pandas as pd
from pyspark.sql import DataFrame

from repro.core.evaluate import QueryPipeline
from repro.core.queries import Query

RESULT_SCHEMA = (
    "camera string, fid long, qid long, objset string, n_frames long"
)

EMPTY_FRAME_OID = -1


def frames_by_fid(pdfs: Iterable[pd.DataFrame]) -> dict[int, list[tuple[int, str]]]:
    """Group VR rows as ``fid -> [(oid, cls), ...]``; an
    ``EMPTY_FRAME_OID`` marker row gives its frame an empty list."""
    by_fid: dict[int, list[tuple[int, str]]] = {}
    for pdf in pdfs:
        for row in pdf.itertuples(index=False):
            objs = by_fid.setdefault(int(row.fid), [])
            if int(row.oid) != EMPTY_FRAME_OID:
                objs.append((int(row.oid), row.cls))
    return by_fid


def match_rows(
    camera: str, pipe: QueryPipeline, frames: Iterable[tuple[int, list[tuple[int, str]]]]
) -> pd.DataFrame:
    """Feed ``frames`` to ``pipe`` in order; its match rows as a frame
    of ``RESULT_SCHEMA``.  ``objset`` is the MCOS as a comma-joined oid
    string, joined once per distinct object set."""
    joined: dict[tuple[int, ...], str] = {}
    rows = []
    for fid, objs in frames:
        for m in pipe.feed(fid, objs):
            objset = joined.get(m.objset)
            if objset is None:
                objset = joined[m.objset] = ",".join(map(str, m.objset))
            rows.append((camera, m.fid, m.qid, objset, m.n_frames))
    return pd.DataFrame(rows, columns=["camera", "fid", "qid", "objset", "n_frames"])


def _frames_of_group(pdf: pd.DataFrame, n_frames: int | None) -> Iterable[tuple[int, list[tuple[int, str]]]]:
    """Yield ``(fid, [(oid, cls), ...])`` for every frame, in order,
    including empty frames up to ``n_frames`` (or max fid seen).

    A row whose fid lies outside ``[0, n_frames)`` raises ``ValueError``
    rather than being dropped: the streaming path would process it."""
    by_fid = frames_by_fid([pdf])
    end = n_frames if n_frames is not None else max(by_fid, default=-1) + 1
    bad = sorted(fid for fid in by_fid if not 0 <= fid < end)
    if bad:
        raise ValueError(
            f"camera {pdf['camera'].iloc[0]!r}: fid {bad[0]} outside [0, {end})"
        )
    for fid in range(end):
        yield fid, by_fid.get(fid, [])


def evaluate_queries_batch(
    vr_df: DataFrame,
    queries: list[Query],
    *,
    w: int,
    d: int,
    method: str = "ssg",
    prune: bool = False,
    n_frames: int | None = None,
) -> DataFrame:
    """Match rows ``(camera, fid, qid, objset, n_frames)`` per §5.2.

    ``objset`` is the MCOS as a comma-joined oid string (kept scalar so
    result rows stay orderable and comparable)."""

    def run(pdf: pd.DataFrame) -> pd.DataFrame:
        pipe = QueryPipeline(queries, w=w, d=d, method=method, prune=prune)
        return match_rows(str(pdf["camera"].iloc[0]), pipe, _frames_of_group(pdf, n_frames))

    return vr_df.groupBy("camera").applyInPandas(run, RESULT_SCHEMA)

