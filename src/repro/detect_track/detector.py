"""Synthetic object detector over simulated ground truth.

Mimics a Faster-R-CNN-style per-frame detector: it emits a (jittered)
box and class per object, *missing* objects that are invisible in
ground truth, geometrically occluded by a nearer box, or dropped by
random detector noise.  No object identity is emitted — identity is
the tracker's job, as in the paper's architecture.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # repro.videogen imports this package
    from repro.videogen.scene import GTObject

Box = tuple[float, float, float, float]


def iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two ``(x, y, w, h)`` boxes."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    if inter <= 0:
        return 0.0
    return inter / (aw * ah + bw * bh - inter)


def cover_fraction(a: Box, b: Box) -> float:
    """Fraction of box ``a`` covered by box ``b``."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    return (ix * iy) / (aw * ah) if aw * ah > 0 else 0.0


@dataclass(frozen=True)
class Detection:
    label: str
    box: Box


@dataclass(frozen=True)
class DetectorConfig:
    p_miss: float = 0.02  # random detector dropout
    occ_cover: float = 0.65  # covered fraction that hides an object
    jitter: float = 2.0  # px noise on box coordinates
    seed: int = 0


class Detector:
    """Stateless per-frame detector (state is only the noise RNG)."""

    def __init__(self, cfg: DetectorConfig = DetectorConfig()) -> None:
        self.cfg = cfg
        self._rng = random.Random(cfg.seed * 104729 + 7)

    def detect(self, objects: list[GTObject]) -> list[Detection]:
        cfg, rng = self.cfg, self._rng
        occ_cover, j = cfg.occ_cover, cfg.jitter
        out: list[Detection] = []
        visible = [o for o in objects if o.visible]
        for o in visible:
            box = o.box
            x, y, w, h = box
            right, bottom = x + w, y + h
            # Depth ordering: larger bottom edge = nearer to the camera.
            # A nearer box that does not overlap this one covers none of
            # it, so only overlapping pairs are scored (being nearer puts
            # the other's bottom below this top); one cover at or above
            # the threshold hides the object.  With no pair scored the
            # cover is 0.0, which hides it only when occ_cover <= 0.
            cover = 0.0
            for other in visible:
                oy = other.y
                if (
                    oy + other.h > bottom
                    and oy < bottom
                    and other.x < right
                    and other.x + other.w > x
                    and other.oid != o.oid
                ):
                    cover = cover_fraction(box, other.box)
                    if cover >= occ_cover:
                        break
            if cover >= occ_cover:
                continue
            if rng.random() < cfg.p_miss:
                continue
            out.append(
                Detection(
                    o.label,
                    (
                        x + rng.gauss(0, j),
                        y + rng.gauss(0, j),
                        max(4.0, w + rng.gauss(0, j)),
                        max(4.0, h + rng.gauss(0, j)),
                    ),
                )
            )
        return out
