"""Structured Streaming query evaluation over a live VR feed.

Models the paper's online setting: the object-tracking layer appends
``(camera, fid, oid, cls)`` rows as frames are processed; queries run
continuously over a sliding window of ``w`` frames per camera.  The
stream is keyed by camera and evaluated with
``applyInPandasWithState`` — the ``GroupState`` carries the pickled
:class:`~repro.core.evaluate.QueryPipeline` (generator state machine,
codec, CNFEvalE index), so MFS/SSG pruning state survives across
micro-batches exactly as the paper's incremental maintenance requires.

Protocol requirements (asserted by the tests):

- every frame of a camera appears in the stream — a frame with no
  detections is represented by a single marker row with
  ``oid = -1`` (:data:`repro.spark.batch.EMPTY_FRAME_OID`) so the
  window can advance;
- fids arrive in non-decreasing order across micro-batches for a
  given camera.  ``update`` drops every frame whose fid is at or below
  the last one it processed, without a trace: a replayed frame is
  skipped, and so is a late frame with new content.
"""
from __future__ import annotations

import pickle
from typing import Iterable, Iterator

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.streaming.state import GroupState, GroupStateTimeout

from repro.core.evaluate import QueryPipeline
from repro.core.queries import Query
from repro.spark.batch import EMPTY_FRAME_OID, RESULT_SCHEMA, frames_by_fid, match_rows

STATE_SCHEMA = "blob binary"


def _make_update_fn(queries: list[Query], w: int, d: int, method: str, prune: bool):
    def update(
        key: tuple,
        pdfs: Iterable[pd.DataFrame],
        state: GroupState,
    ) -> Iterator[pd.DataFrame]:
        camera = str(key[0])
        if state.exists:
            pipe: QueryPipeline = pickle.loads(bytes(state.get[0]))
        else:
            pipe = QueryPipeline(queries, w=w, d=d, method=method, prune=prune)
        by_fid = frames_by_fid(pdfs)
        last = pipe._last_fid
        # A replayed frame (fid <= last) is already folded into the state.
        frames = [(fid, by_fid[fid]) for fid in sorted(by_fid) if last is None or fid > last]
        out = match_rows(camera, pipe, frames)
        state.update((pickle.dumps(pipe),))
        yield out

    return update


def evaluate_queries_stream(
    vr_stream: DataFrame,
    queries: list[Query],
    *,
    w: int,
    d: int,
    method: str = "ssg",
    prune: bool = False,
) -> DataFrame:
    """Streaming match rows; same schema/semantics as the batch path.

    ``vr_stream`` must be a *streaming* DataFrame with the VR schema.
    Returns an append-mode streaming DataFrame to hand to
    ``.writeStream``.
    """
    return vr_stream.groupBy("camera").applyInPandasWithState(
        _make_update_fn(queries, w, d, method, prune),
        RESULT_SCHEMA,
        STATE_SCHEMA,
        "append",
        GroupStateTimeout.NoTimeout,
    )


def with_empty_frame_markers(vr: pd.DataFrame, n_frames: int) -> pd.DataFrame:
    """Add ``oid = -1`` marker rows for frames with no detections, per
    camera — the producer-side half of the streaming protocol."""
    out = [vr]
    for camera, grp in vr.groupby("camera"):
        present = set(grp["fid"])
        missing = [f for f in range(n_frames) if f not in present]
        if missing:
            out.append(
                pd.DataFrame(
                    {
                        "camera": camera,
                        "fid": missing,
                        "oid": EMPTY_FRAME_OID,
                        "cls": "none",
                    }
                )
            )
    return (
        pd.concat(out, ignore_index=True)
        .sort_values(["camera", "fid", "oid"])
        .reset_index(drop=True)
    )
