"""Structured Streaming query evaluation over a live VR feed.

Models the paper's online setting: the object-tracking layer appends
``(camera, fid, oid, cls)`` rows as frames are processed; queries run
continuously over a sliding window of ``w`` frames per camera.  The
stream is keyed by camera and evaluated with
``applyInPandasWithState``.  The ``GroupState`` holds the columns of
``STATE_SCHEMA``: the camera's VR rows of fids ``[last - w + 1, last]``,
and the ``(oid, cls)`` pair of every object of a queried class it has
shown, so a class conflict is caught against the whole stream.  Each
micro-batch feeds the stored frames to a fresh pipeline, dropping their
rows, then the new frames, and stores the last ``w`` fids: a frame's
results depend only on its window (DESIGN.md §5).

Protocol requirements (asserted by the tests):

- every frame of a camera appears in the stream, all its rows in one
  micro-batch; a frame with no detections is one marker row with
  ``oid = -1`` (:data:`repro.detect_track.tracker.EMPTY_FRAME_OID`).
  A fid left out is a gap: it gets no rows, and it cannot be sent
  later;
- fids arrive in increasing order across micro-batches for a given
  camera.  A fid at or below the last one processed is a replay, and
  skipped, if its rows equal those stored for it as a multiset;
  otherwise ``update`` raises ``ValueError``.  A micro-batch of replays
  alone emits no rows and leaves the state untouched.
"""
from __future__ import annotations

from typing import Iterable, Iterator

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.streaming.state import GroupState, GroupStateTimeout

from repro.core.evaluate import QueryPipeline
from repro.core.queries import Query
from repro.detect_track.tracker import EMPTY_FRAME_OID, frames_by_fid
from repro.spark.batch import RESULT_COLUMNS, RESULT_SCHEMA, match_rows

STATE_SCHEMA = (
    "fid array<long>, oid array<long>, cls array<string>, "
    "label_oid array<long>, label_cls array<string>"
)


def _make_update_fn(queries: list[Query], w: int, d: int, method: str, prune: bool):
    def update(
        key: tuple,
        pdfs: Iterable[pd.DataFrame],
        state: GroupState,
    ) -> Iterator[pd.DataFrame]:
        camera = str(key[0])
        fids, oids, clss, label_oids, label_clss = state.get if state.exists else ([],) * 5
        window = frames_by_fid([pd.DataFrame({"fid": fids, "oid": oids, "cls": clss})])
        last = max(window, default=None)
        by_fid = frames_by_fid(pdfs)
        frames = []
        for fid in sorted(by_fid):
            if last is None or fid > last:
                frames.append((fid, by_fid[fid]))
            elif fid not in window or sorted(by_fid[fid]) != sorted(window[fid]):
                raise ValueError(
                    f"camera {camera!r}: fid {fid} arrived after fid {last} and is not "
                    f"a replay of a stored frame in [{last - w + 1}, {last}]"
                )
        if not frames:
            # Only replays: no rows, and the state stays as it is.
            yield pd.DataFrame(columns=RESULT_COLUMNS)
            return
        pipe = QueryPipeline(queries, w=w, d=d, method=method, prune=prune)
        pipe.label_of.update(zip(label_oids, label_clss))
        for fid, objs in window.items():
            pipe.feed(fid, objs)
        out = match_rows(camera, pipe, frames)
        window.update(frames)
        lo = max(window) - w + 1
        rows = [
            (fid, oid, cls)
            for fid, objs in window.items() if fid >= lo
            for oid, cls in objs or [(EMPTY_FRAME_OID, "none")]
        ]
        state.update((*map(list, zip(*rows)), list(pipe.label_of), list(pipe.label_of.values())))
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
    """Streaming match rows, in the batch path's schema.

    The rows equal the batch path's when every frame of a camera is in
    the stream, a frame with no detections as a marker row.  At an
    unmarked gap they differ: the batch path feeds the missing fid as an
    empty frame and emits its rows, and the stream emits nothing for it.
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
        missing = sorted(set(range(n_frames)) - set(grp["fid"]))
        if missing:
            markers = {"camera": camera, "fid": missing, "oid": EMPTY_FRAME_OID, "cls": "none"}
            out.append(pd.DataFrame(markers))
    marked = pd.concat(out, ignore_index=True)
    return marked.sort_values(["camera", "fid", "oid"]).reset_index(drop=True)
