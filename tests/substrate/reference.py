"""All-pairs reference copies of the substrate's scoring loops.

``Detector.detect`` and ``Tracker.update`` skip box pairs that cannot
overlap before calling ``cover_fraction`` / ``iou``, and ``reuse_ids``
drops an id from its pool once it has been used ``p_o`` times.  These
are the loops as they were before those changes: every pair is scored
and every pool entry is scanned.  The shipped code must give the same
detections, track ids, RNG state and VR rows (``test_reference.py``).
"""
from __future__ import annotations

import pandas as pd

from repro.detect_track.detector import Detection, Detector, cover_fraction, iou
from repro.detect_track.tracker import Tracker, _Track
from repro.videogen.scene import GTObject


class ReferenceDetector(Detector):
    def detect(self, objects: list[GTObject]) -> list[Detection]:
        cfg, rng = self.cfg, self._rng
        out: list[Detection] = []
        for o in objects:
            if not o.visible:
                continue
            covered = 0.0
            for other in objects:
                if other.oid == o.oid or not other.visible:
                    continue
                if other.y + other.h > o.y + o.h:  # other is nearer
                    covered = max(covered, cover_fraction(o.box, other.box))
            if covered >= cfg.occ_cover:
                continue
            if rng.random() < cfg.p_miss:
                continue
            j = cfg.jitter
            out.append(
                Detection(
                    o.label,
                    (
                        o.x + rng.gauss(0, j),
                        o.y + rng.gauss(0, j),
                        max(4.0, o.w + rng.gauss(0, j)),
                        max(4.0, o.h + rng.gauss(0, j)),
                    ),
                )
            )
        return out


class ReferenceTracker(Tracker):
    def update(self, fid: int, detections: list[Detection]) -> list[tuple[int, int, str]]:
        cfg = self.cfg
        for t in self._tracks:
            t.x += t.vx
            t.y += t.vy
        pairs: list[tuple[float, int, int]] = []
        for di, det in enumerate(detections):
            for ti, t in enumerate(self._tracks):
                if t.label != det.label:
                    continue
                score = iou(det.box, (t.x, t.y, t.w, t.h))
                if score >= cfg.iou_min:
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


def reuse_ids(vr: pd.DataFrame, p_o: int) -> pd.DataFrame:
    """``repro.videogen.datasets.reuse_ids`` scanning used-up ids too."""
    if p_o == 0 or vr.empty:
        return vr.copy()
    spans = (
        vr.groupby("oid")
        .agg(first=("fid", "min"), last=("fid", "max"), cls=("cls", "first"))
        .reset_index()
        .sort_values(["first", "oid"])
    )
    remap: dict[int, int] = {}
    pools: dict[str, list[list[int]]] = {}
    for row in spans.itertuples(index=False):
        pool = pools.setdefault(row.cls, [])
        target = None
        for entry in pool:
            if entry[0] < row.first and entry[2] < p_o:
                target = entry
                break
        if target is not None:
            remap[row.oid] = target[1]
            target[0] = row.last
            target[2] += 1
        else:
            remap[row.oid] = row.oid
            pool.append([row.last, row.oid, 0])
    out = vr.copy()
    out["oid"] = out["oid"].map(remap)
    return out
