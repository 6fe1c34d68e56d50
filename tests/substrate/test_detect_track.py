"""Detector and tracker substrate tests."""
from __future__ import annotations

import pytest

from repro.detect_track.detector import (
    Detection,
    Detector,
    DetectorConfig,
    cover_fraction,
    iou,
)
from repro.detect_track.tracker import Tracker, TrackerConfig, run_pipeline
from repro.videogen.scene import GTObject, Scene, SceneConfig

MIX = (("car", 1.0),)


def gt(oid, x, y, w=50, h=50, label="car", visible=True):
    return GTObject(oid, label, x, y, w, h, visible)


# ----------------------------------------------------------------------
# geometry
# ----------------------------------------------------------------------
def test_iou_basic():
    a = (0, 0, 10, 10)
    assert iou(a, a) == pytest.approx(1.0)
    assert iou(a, (20, 20, 10, 10)) == 0.0
    assert iou(a, (5, 0, 10, 10)) == pytest.approx(50 / 150)


def test_cover_fraction():
    small = (0, 0, 10, 10)
    big = (-5, -5, 30, 30)
    assert cover_fraction(small, big) == pytest.approx(1.0)
    assert cover_fraction(big, small) == pytest.approx(100 / 900)
    assert cover_fraction(small, (100, 100, 5, 5)) == 0.0


# ----------------------------------------------------------------------
# detector
# ----------------------------------------------------------------------
def test_detector_emits_visible_objects():
    det = Detector(DetectorConfig(p_miss=0.0, jitter=0.0))
    out = det.detect([gt(0, 0, 0), gt(1, 500, 500)])
    assert len(out) == 2
    assert {d.label for d in out} == {"car"}


def test_detector_skips_invisible():
    det = Detector(DetectorConfig(p_miss=0.0, jitter=0.0))
    out = det.detect([gt(0, 0, 0, visible=False), gt(1, 500, 500)])
    assert len(out) == 1


def test_detector_geometric_occlusion():
    det = Detector(DetectorConfig(p_miss=0.0, jitter=0.0, occ_cover=0.6))
    # object 0 fully covered by nearer (larger bottom edge) object 1
    out = det.detect([gt(0, 0, 0, 40, 40), gt(1, -10, -10, 80, 80)])
    assert len(out) == 1
    # partial overlap below threshold: both detected
    out = det.detect([gt(0, 0, 0, 40, 40), gt(1, 30, 30, 80, 80)])
    assert len(out) == 2


def test_detector_random_miss_rate():
    det = Detector(DetectorConfig(p_miss=0.3, jitter=0.0, seed=1))
    n = sum(len(det.detect([gt(0, 0, 0), gt(1, 500, 500)])) for _ in range(500))
    assert 550 < n < 850  # ~0.7 * 1000


# ----------------------------------------------------------------------
# tracker
# ----------------------------------------------------------------------
def test_tracker_persists_id_across_frames():
    tr = Tracker()
    a = tr.update(0, [Detection("car", (0, 0, 50, 50))])
    b = tr.update(1, [Detection("car", (3, 1, 50, 50))])
    assert a[0][1] == b[0][1]  # same track id


def test_tracker_bridges_short_occlusion():
    tr = Tracker(TrackerConfig(max_age=5))
    t0 = tr.update(0, [Detection("car", (0, 0, 50, 50))])[0][1]
    for fid in range(1, 4):
        assert tr.update(fid, []) == []
    t4 = tr.update(4, [Detection("car", (2, 0, 50, 50))])[0][1]
    assert t0 == t4  # gap within max_age keeps the id


def test_tracker_id_churn_after_long_occlusion():
    tr = Tracker(TrackerConfig(max_age=3))
    t0 = tr.update(0, [Detection("car", (0, 0, 50, 50))])[0][1]
    for fid in range(1, 6):
        tr.update(fid, [])
    t6 = tr.update(6, [Detection("car", (0, 0, 50, 50))])[0][1]
    assert t0 != t6  # track aged out: new identity


def test_tracker_class_gating():
    tr = Tracker()
    t_car = tr.update(0, [Detection("car", (0, 0, 50, 50))])[0][1]
    out = tr.update(1, [Detection("person", (0, 0, 50, 50))])
    assert out[0][1] != t_car  # same box, different class -> new track


def test_tracker_no_duplicate_ids_in_frame():
    tr = Tracker()
    dets = [Detection("car", (i * 100, 0, 50, 50)) for i in range(5)]
    out = tr.update(0, dets)
    tids = [t for _, t, _ in out]
    assert len(tids) == len(set(tids)) == 5


def test_tracker_greedy_prefers_best_iou():
    tr = Tracker(TrackerConfig(iou_min=0.1))
    tr.update(0, [Detection("car", (0, 0, 50, 50)), Detection("car", (100, 0, 50, 50))])
    # next frame: one detection overlapping both predictions, closer to track 1
    out = tr.update(1, [Detection("car", (95, 0, 50, 50))])
    assert len(out) == 1
    assert out[0][1] == 1


# ----------------------------------------------------------------------
# end-to-end substrate
# ----------------------------------------------------------------------
def test_run_pipeline_schema_and_order():
    scene = Scene(
        SceneConfig(
            name="t", n_frames=60, arrival_rate=0.3, dwell_mean=12,
            class_mix=(("car", 0.7), ("person", 0.3)), occl_rate=0.1, seed=3,
        )
    )
    vr = run_pipeline(scene, detector=Detector(), tracker=Tracker(), camera="c9")
    assert list(vr.columns) == ["camera", "fid", "oid", "cls"]
    assert (vr["camera"] == "c9").all()
    assert vr["fid"].is_monotonic_increasing
    assert not vr.duplicated(["fid", "oid"]).any()
    # track class is stable per id
    assert (vr.groupby("oid")["cls"].nunique() == 1).all()


def test_pipeline_occlusion_produces_gaps():
    scene = Scene(
        SceneConfig(
            name="t", n_frames=150, arrival_rate=0.15, dwell_mean=40,
            class_mix=MIX, occl_rate=0.15, occl_len_mean=4.0, seed=4,
        )
    )
    vr = run_pipeline(scene, detector=Detector(), tracker=Tracker(), camera="cam0")
    gaps = vr.sort_values("fid").groupby("oid")["fid"].apply(
        lambda s: int((s.diff() > 1).sum())
    )
    assert gaps.sum() > 0
