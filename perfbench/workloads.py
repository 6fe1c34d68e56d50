"""Workload definitions and their set-up (inputs made from the seed).

Each workload is one camera's object stream replayed through one
``QueryPipeline`` per method.  The stream is made as ``build_vr`` makes
it (scene, detector, tracker), with the profile's calibrated scene and
the seed driving the detector's noise: each seed gives other misses,
fragments and track ids, and so other frames and object sets, over the
same scene.  The queries are fixed per workload.  The pipeline receives
only the generated frames.

Why not vary the scene or the queries with the seed: over five scene
seeds the M1 stream (2,400 frames) needed from 1,821 to 3,213 states
scanned per frame, and over six query seeds the V1 stream (6,000 frames)
emitted from 0.63M to 1.32M match rows.  Differences that size between
seeds would leave every comparison unresolved.  Over six detector seeds
the states scanned per frame stay within 2% (M1).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.core.queries import geq_only_queries, random_cnf_queries
from repro.videogen.datasets import dataset_profile  # first: detect_track imports it
from repro.detect_track.detector import Detector  # noqa: E402
from repro.detect_track.tracker import Tracker, run_pipeline  # noqa: E402
from repro.videogen.scene import Scene  # noqa: E402

from replay import Normaliser, release_cpu

METHODS = ("naive", "mfs", "ssg")


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str  # dataset profile passed to build_vr
    n_frames: int
    query_kind: str  # "cnf": 50 mixed CNF queries; "geq": 100 >=-only
    prune: bool  # the paper's *_O termination pruning (section 5.3)
    w: int = 300
    d: int = 240


# Stream lengths.  Between runs, p95 spreads most of all metrics: the
# heaviest frames slow more under other tenants' load than the reference
# loop that normalises times shows.  Longer streams steady p95 more than
# more replays of a shorter one do.  In five-seed sweeps on a loaded
# 4-vCPU host, p95's quartile spread was 0.17-0.18 of its median over
# three replays of 2,000 M1 frames (geq_pruned) and 0.10-0.12 over two of
# 4,000 (churn_long, same sweep); on V1, 0.14-0.15 over three replays of
# 4,000 frames and 0.07-0.14 over two of 6,000 (a later sweep).  At
# those lengths one seed of all three workloads took 120 s; to keep a
# ten-seed sweep near a quarter of an hour, dense_static has 5,000.
WORKLOADS = {
    w.name: w
    for w in (
        # Moving camera, short dwell: MCOS maintenance is nearly all the work.
        Workload("churn_long", "M1", 4000, "cnf", False),
        # Static camera, long-dwelling objects: few states, many match rows.
        Workload("dense_static", "V1", 5000, "cnf", False),
        # Same stream as churn_long; CNFEvalE runs inside advance (admit).
        Workload("geq_pruned", "M1", 4000, "geq", True),
    )
}


@dataclass
class Inputs:
    frames: list[tuple[int, list[tuple[int, str]]]]
    queries: list
    vr_rows: int
    objects: int
    build_vr_s: float  # run_pipeline, raw
    setup_raw_s: float  # run_pipeline and the queries, raw
    setup_s: float  # the same, normalised to the nominal host speed


def make_queries(wl: Workload) -> list:
    if wl.query_kind == "geq":
        return geq_only_queries(100, n_min=3, seed=0)
    return random_cnf_queries(50, seed=0)


def set_up(wl: Workload, seed: int) -> Inputs:
    """Generate the stream and the queries; time both.

    Set-up is timed as the replay times frames: the scene is generated
    frame by frame, and whenever a probe is due it runs between two
    frames, outside the timed spans.  On the machine ``replay`` describes,
    five set-ups of one seed spread up to 1.5x (slowest over fastest) with
    one probe before and one after the whole set-up, and up to 1.16x with
    a probe every ``PROBE_S`` seconds.
    """
    prof = dataset_profile(wl.profile)
    clock = time.perf_counter_ns
    norm = Normaliser()
    raw: list[int] = []
    scaled: list[float] = []
    t0 = clock()

    def cut() -> None:
        nonlocal t0
        span = [clock() - t0]
        raw.extend(span)
        scaled.extend(norm.close(span))
        t0 = clock()

    def scene():
        for frame in Scene(replace(prof.scene, n_frames=wl.n_frames)):
            if norm.due():
                cut()
            yield frame

    vr = run_pipeline(
        scene(),
        detector=Detector(replace(prof.detector, seed=seed)),
        tracker=Tracker(prof.tracker),
        camera=wl.profile.lower(),
    )
    cut()
    build_vr_s = sum(raw) / 1e9
    queries = make_queries(wl)
    cut()
    release_cpu()
    by_fid: dict[int, list[tuple[int, str]]] = {}
    for fid, oid, cls in zip(vr["fid"].tolist(), vr["oid"].tolist(), vr["cls"].tolist()):
        by_fid.setdefault(fid, []).append((oid, cls))
    frames = [(fid, by_fid.get(fid, [])) for fid in range(wl.n_frames)]
    return Inputs(frames, queries, len(vr), int(vr["oid"].nunique()), build_vr_s,
                  sum(raw) / 1e9, sum(scaled) / 1e9)
