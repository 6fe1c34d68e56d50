"""Scene simulator: ground-truth object streams with bounding boxes.

Objects arrive by a Poisson process and dwell either a short
exponential time (passing traffic / pedestrians) or — with probability
``p_long`` — a large fraction of the whole video (parked or stopped
vehicles, the long-dwelling tail real traffic cameras see; these are
what make duration thresholds like the paper's d=240-of-w=300
satisfiable at all).  While on scene, each
object starts occlusion dropouts (intervals of invisibility) at a
per-frame rate, so expected dropouts grow with dwell — which is what
the paper's Table 6 shows (Occ/Obj roughly 0.1 x F/Obj on every
dataset).  Motion is
linear with border bounce; a non-zero ``camera_speed`` adds a global
drift (moving-camera profiles) under which objects churn out of the
trailing screen edge.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class SceneConfig:
    """Parameters of one simulated video.

    ``arrival_rate``: expected new objects per frame.
    ``dwell_mean``: mean dwell (frames) of *short-lived* objects.
    ``n_long``: number of deterministic long-dwelling objects (parked
    vehicles); their entries spread over the first 30% of the video
    and spans are uniform in ``[long_lo, long_hi]`` fractions of
    ``n_frames`` (clipped to the video end).  ``p_long`` additionally
    makes a random arrival long-dwelling with that probability (used
    by moving-camera profiles where the screen edge cuts spans).
    ``occl_rate``: per-frame probability that a visible object starts
    an occlusion dropout (so expected dropouts per object scale with
    its dwell, matching Table 6's Occ/Obj ≈ rate × F/Obj relation).
    Long-dwelling objects use ``occl_rate * long_occl_factor`` —
    parked vehicles sit stably in view, so occlusion concentrates on
    the transients (this is what lets long-dwellers meet duration
    thresholds like d=240-of-300 while the average Occ/Obj matches
    Table 6).
    ``occl_len_mean``: mean dropout length in frames.
    ``camera_speed``: global horizontal drift in px/frame.
    """

    name: str
    n_frames: int
    arrival_rate: float
    dwell_mean: float
    class_mix: tuple[tuple[str, float], ...]
    p_long: float = 0.0
    n_long: int = 0
    long_lo: float = 0.5
    long_hi: float = 1.0
    long_occl_factor: float = 0.12
    occl_rate: float = 0.0
    occl_len_mean: float = 4.0
    camera_speed: float = 0.0
    width: int = 1920
    height: int = 1080
    speed_mean: float = 3.0
    size_lo: int = 60
    size_hi: int = 220
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_frames <= 0 or self.arrival_rate < 0 or self.dwell_mean <= 0:
            raise ValueError("invalid scene configuration")
        if not (0.0 <= self.p_long <= 1.0):
            raise ValueError(f"p_long must be in [0,1], got {self.p_long}")
        total = sum(p for _, p in self.class_mix)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"class mix must sum to 1, got {total}")


@dataclass
class GTObject:
    """Ground truth for one object at one frame."""

    oid: int
    label: str
    x: float
    y: float
    w: float
    h: float
    visible: bool

    @property
    def box(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)


@dataclass
class _SimObject:
    oid: int
    label: str
    t_exit: int
    x: float
    y: float
    w: float
    h: float
    vx: float
    vy: float
    occl_scale: float = 1.0
    occluded_until: int = -1


class Scene:
    """Iterable simulator: ``for fid, objects in Scene(cfg): ...``"""

    def __init__(self, cfg: SceneConfig) -> None:
        self.cfg = cfg
        self._rng = random.Random(cfg.seed * 7919 + 13)
        self._next_oid = 0
        self._labels = [label for label, _ in cfg.class_mix]
        self._weights = [p for _, p in cfg.class_mix]

    def _poisson(self, lam: float) -> int:
        # Knuth's method; lam is small (< 1 object/frame typically).
        limit = math.exp(-lam)
        k, p = 0, 1.0
        while True:
            p *= self._rng.random()
            if p <= limit:
                return k
            k += 1

    def _spawn(self, fid: int, *, aged: bool = False, long: bool | None = None) -> _SimObject:
        cfg, rng = self.cfg, self._rng
        if long is None:
            long = rng.random() < cfg.p_long
        if long:
            dwell = int(cfg.n_frames * rng.uniform(cfg.long_lo, cfg.long_hi))
            speed_scale = 0.1  # parked / stopped: barely moves
            occl_scale = cfg.long_occl_factor
        else:
            dwell = max(3, int(rng.expovariate(1.0 / cfg.dwell_mean)))
            speed_scale = 1.0
            occl_scale = 1.0
        if aged:
            # steady-state initial population: part of the dwell is spent
            dwell = max(3, int(dwell * rng.random()))
        t_exit = fid + dwell
        size = rng.uniform(cfg.size_lo, cfg.size_hi)
        angle = rng.uniform(0, 2 * math.pi)
        speed = (
            rng.expovariate(1.0 / cfg.speed_mean) * speed_scale
            if cfg.speed_mean > 0
            else 0.0
        )
        obj = _SimObject(
            oid=self._next_oid,
            label=rng.choices(self._labels, weights=self._weights, k=1)[0],
            t_exit=t_exit,
            x=rng.uniform(0, cfg.width - size),
            y=rng.uniform(0, cfg.height - size * 0.6),
            w=size,
            h=size * rng.uniform(0.6, 1.4),
            vx=speed * math.cos(angle),
            vy=speed * math.sin(angle) * 0.3,
            occl_scale=occl_scale,
        )
        self._next_oid += 1
        return obj

    def __iter__(self) -> Iterator[tuple[int, list[GTObject]]]:
        cfg, rng = self.cfg, self._rng
        live: list[_SimObject] = [
            self._spawn(0, aged=True, long=False)
            for _ in range(round(cfg.arrival_rate * cfg.dwell_mean))
        ]
        # Deterministic long-dwellers: entries spread over the opening
        # 30% of the video so the co-visible persistent cluster size is
        # stable (= what duration-satisfying MCOSs are made of).
        long_entries: dict[int, int] = {}
        for _ in range(cfg.n_long):
            e = int(rng.uniform(0, 0.3 * cfg.n_frames))
            long_entries[e] = long_entries.get(e, 0) + 1
        for fid in range(cfg.n_frames):
            for _ in range(long_entries.get(fid, 0)):
                live.append(self._spawn(fid, long=True))
            for _ in range(self._poisson(cfg.arrival_rate)):
                live.append(self._spawn(fid))
            out: list[GTObject] = []
            survivors: list[_SimObject] = []
            for o in live:
                if fid >= o.t_exit:
                    continue
                # motion (objects bounce at the borders so static-camera
                # dwell is governed purely by t_exit)
                o.x += o.vx - cfg.camera_speed
                o.y += o.vy
                if cfg.camera_speed == 0.0:
                    if o.x < 0 or o.x > cfg.width - o.w:
                        o.vx = -o.vx
                        o.x = min(max(o.x, 0.0), cfg.width - o.w)
                elif o.x + o.w < 0:
                    continue  # drifted off the trailing screen edge
                if o.y < 0 or o.y > cfg.height - o.h:
                    o.vy = -o.vy
                    o.y = min(max(o.y, 0.0), cfg.height - o.h)
                if fid > o.occluded_until and cfg.occl_rate > 0:
                    if rng.random() < cfg.occl_rate * o.occl_scale:
                        length = max(1, int(rng.expovariate(1.0 / cfg.occl_len_mean)))
                        o.occluded_until = fid + length
                visible = fid > o.occluded_until
                out.append(GTObject(o.oid, o.label, o.x, o.y, o.w, o.h, visible))
                survivors.append(o)
            live = survivors
            yield fid, out
