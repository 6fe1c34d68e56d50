"""Greedy-IoU multi-object tracker ("Deep-SORT-lite").

Associates per-frame detections to persistent track ids with the same
mechanics Deep SORT uses at a high level: motion-predicted boxes,
class-gated IoU association (greedy, highest IoU first), new tracks
for unmatched detections, and deletion after ``max_age`` frames
unseen.  Short occlusions therefore keep the id (a *gap* in the
track's frame set — the paper's occlusion count), while long ones
produce id churn, exactly the imperfections the duration parameter
``d`` exists to tolerate.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import pandas as pd

from repro.detect_track.detector import Detection, Detector, iou

if TYPE_CHECKING:  # repro.videogen imports this package
    from repro.videogen.scene import GTObject, Scene


@dataclass(frozen=True)
class TrackerConfig:
    iou_min: float = 0.2  # association gate
    max_age: int = 25  # frames a track survives unseen
    vel_smooth: float = 0.6  # EMA factor for velocity updates

    def __post_init__(self) -> None:
        # A positive gate is what lets the tracker skip pairs whose boxes
        # do not overlap: they score 0.0, so they never pass it.
        if not self.iou_min > 0:
            raise ValueError(f"iou_min must be > 0, got {self.iou_min}")


@dataclass
class _Track:
    tid: int
    label: str
    x: float
    y: float
    w: float
    h: float
    vx: float
    vy: float
    last_seen: int


class Tracker:
    """Feed detections frame by frame; collects ``(fid, tid, label)``."""

    def __init__(self, cfg: TrackerConfig = TrackerConfig()) -> None:
        self.cfg = cfg
        self._tracks: list[_Track] = []
        self._next_tid = 0

    def update(self, fid: int, detections: list[Detection]) -> list[tuple[int, int, str]]:
        cfg = self.cfg
        gate = cfg.iou_min
        # predict, and bucket the live tracks by class (with their indexes)
        by_label: dict[str, list[tuple[int, _Track]]] = {}
        for ti, t in enumerate(self._tracks):
            t.x += t.vx
            t.y += t.vy
            by_label.setdefault(t.label, []).append((ti, t))
        # class-gated greedy IoU association; a pair whose boxes do not
        # overlap scores 0.0, below the gate, so it is not scored at all
        pairs: list[tuple[float, int, int]] = []
        for di, det in enumerate(detections):
            box = det.box
            x, y, w, h = box
            right, bottom = x + w, y + h
            for ti, t in by_label.get(det.label, ()):
                tx, ty = t.x, t.y
                if tx < right and ty < bottom and tx + t.w > x and ty + t.h > y:
                    score = iou(box, (tx, ty, t.w, t.h))
                    if score >= gate:
                        pairs.append((score, di, ti))
        pairs.sort(reverse=True)
        used_d: set[int] = set()
        used_t: set[int] = set()
        out: list[tuple[int, int, str]] = []
        for score, di, ti in pairs:
            if di in used_d or ti in used_t:
                continue
            used_d.add(di)
            used_t.add(ti)
            t = self._tracks[ti]
            x, y, w, h = detections[di].box
            a = cfg.vel_smooth
            t.vx = a * t.vx + (1 - a) * (x - t.x)
            t.vy = a * t.vy + (1 - a) * (y - t.y)
            t.x, t.y, t.w, t.h = x, y, w, h
            t.last_seen = fid
            out.append((fid, t.tid, t.label))
        for di, det in enumerate(detections):
            if di in used_d:
                continue
            x, y, w, h = det.box
            t = _Track(self._next_tid, det.label, x, y, w, h, 0.0, 0.0, fid)
            self._next_tid += 1
            self._tracks.append(t)
            out.append((fid, t.tid, t.label))
        self._tracks = [t for t in self._tracks if fid - t.last_seen <= cfg.max_age]
        return out


def run_pipeline(
    scene: Scene | Iterable[tuple[int, list[GTObject]]],
    *,
    detector: Detector,
    tracker: Tracker,
    camera: str,
) -> pd.DataFrame:
    """Scene -> detector -> tracker -> VR relation.

    Returns the structured relation of the paper's first layer with
    schema ``(camera, fid, oid, cls)``.  Every frame is represented; a
    frame with no surviving detections simply contributes no rows.
    """
    rows: list[tuple[str, int, int, str]] = []
    for fid, objects in scene:
        for _, tid, label in tracker.update(fid, detector.detect(objects)):
            rows.append((camera, fid, tid, label))
    return pd.DataFrame(rows, columns=["camera", "fid", "oid", "cls"])


# The ``oid`` of a VR row that only marks its frame as present and
# empty (the streaming protocol's marker).
EMPTY_FRAME_OID = -1


def frames_by_fid(pdfs: Iterable[pd.DataFrame]) -> dict[int, list[tuple[int, str]]]:
    """Group VR rows as ``fid -> [(oid, cls), ...]``; an
    ``EMPTY_FRAME_OID`` marker row gives its frame an empty list."""
    by_fid: dict[int, list[tuple[int, str]]] = {}
    for pdf in pdfs:
        # Column lists hold Python ints, so no per-row conversion is needed.
        for fid, oid, cls in zip(pdf["fid"].tolist(), pdf["oid"].tolist(), pdf["cls"].tolist()):
            objs = by_fid.setdefault(fid, [])
            if oid != EMPTY_FRAME_OID:
                objs.append((oid, cls))
    return by_fid
