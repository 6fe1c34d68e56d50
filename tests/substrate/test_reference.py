"""The substrate against its all-pairs reference (``reference.py``).

The detector and tracker skip box pairs that cannot overlap, and
``reuse_ids`` drops used-up ids from its pools; none of this may change
a detection, a track id, an RNG draw or a VR row.  Checked on the
dataset profiles at realistic sizes and on crafted frames that put
boxes edge to edge, on top of each other and inside each other.
"""
from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pandas.testing import assert_frame_equal

from repro.detect_track.detector import Detector, DetectorConfig
from repro.detect_track.tracker import Tracker, TrackerConfig, run_pipeline
from repro.videogen.datasets import DATASETS, build_vr, dataset_profile, reuse_ids
from repro.videogen.scene import GTObject, Scene
from tests.substrate import reference


def _reference_vr(name, *, seed=None, n_frames=None, det_seed=None):
    prof = dataset_profile(name)
    scene = replace(
        prof.scene,
        seed=prof.scene.seed if seed is None else seed,
        n_frames=prof.scene.n_frames if n_frames is None else n_frames,
    )
    det = prof.detector if det_seed is None else replace(prof.detector, seed=det_seed)
    return run_pipeline(
        Scene(scene),
        detector=reference.ReferenceDetector(det),
        tracker=reference.ReferenceTracker(prof.tracker),
        camera=name.lower(),
    )


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_profiles_match_reference(name, seed):
    assert_frame_equal(build_vr(name, seed=seed), _reference_vr(name, seed=seed))


def test_m1_4000_frames_detector_seed_1_matches_reference():
    prof = dataset_profile("M1")
    got = run_pipeline(
        Scene(replace(prof.scene, n_frames=4000)),
        detector=Detector(replace(prof.detector, seed=1)),
        tracker=Tracker(prof.tracker),
        camera="m1",
    )
    assert_frame_equal(got, _reference_vr("M1", n_frames=4000, det_seed=1))


@pytest.mark.parametrize("p_o", [1, 2, 3])
def test_reuse_ids_matches_reference_on_m1_16000(p_o):
    vr = build_vr("M1", n_frames=16000)
    assert_frame_equal(reuse_ids(vr, p_o), reference.reuse_ids(vr, p_o))


# ----------------------------------------------------------------------
# crafted frames
# ----------------------------------------------------------------------
# Boxes on a 10 px grid with sides of 10, 20 or 30 px: edges often touch
# exactly (x + w == other.x), and boxes are often identical or nested.
# Quarter-pixel positions and sides of 0.5 and 4 px (the least a
# detection has) add overlaps thinner than a pixel that still hide an
# object or pass the IoU gate.  Each object moves by a fixed step per
# frame, so tracks meet their own later detections, edge to edge too.
_coord = st.one_of(
    st.integers(0, 6).map(lambda k: 10.0 * k),
    st.integers(0, 240).map(lambda k: 0.25 * k),
)
_side = st.sampled_from([0.5, 4.0, 10.0, 20.0, 30.0])
_step = st.sampled_from([0.0, 0.25, -0.75, 3.25, 4.0, -10.0])
_object = st.tuples(st.sampled_from(["car", "person"]), _coord, _coord, _side, _side, _step, _step)
_visible = st.sampled_from([True, True, True, False])


@st.composite
def _frames(draw):
    objects = draw(st.lists(_object, max_size=8))
    n = draw(st.integers(1, 8))
    shown = draw(st.lists(st.lists(_visible, min_size=len(objects), max_size=len(objects)),
                          min_size=n, max_size=n))
    return [
        [
            GTObject(oid, label, x + f * dx, y + f * dy, w, h, vis)
            for oid, ((label, x, y, w, h, dx, dy), vis) in enumerate(zip(objects, shown[f]))
        ]
        for f in range(n)
    ]


@settings(max_examples=300, deadline=None)
@given(
    frames=_frames(),
    occ_cover=st.sampled_from([0.0, 0.65, 1.0]),
    p_miss=st.sampled_from([0.0, 0.3]),
    jitter=st.sampled_from([0.0, 2.0]),
    iou_min=st.sampled_from([0.1, 0.2, 1.0]),
    max_age=st.sampled_from([0, 2, 25]),
    seed=st.integers(0, 3),
)
def test_crafted_frames_match_reference(frames, occ_cover, p_miss, jitter, iou_min, max_age, seed):
    dcfg = DetectorConfig(p_miss=p_miss, occ_cover=occ_cover, jitter=jitter, seed=seed)
    tcfg = TrackerConfig(iou_min=iou_min, max_age=max_age)
    det, ref_det = Detector(dcfg), reference.ReferenceDetector(dcfg)
    tr, ref_tr = Tracker(tcfg), reference.ReferenceTracker(tcfg)
    for fid, objects in enumerate(frames):
        got, want = det.detect(objects), ref_det.detect(objects)
        assert got == want
        assert det._rng.getstate() == ref_det._rng.getstate()
        assert tr.update(fid, got) == ref_tr.update(fid, want)
        assert tr._tracks == ref_tr._tracks


@pytest.mark.parametrize("iou_min", [0, 0.0, -0.1, math.nan])
def test_tracker_rejects_non_positive_gate(iou_min):
    with pytest.raises(ValueError, match="iou_min"):
        TrackerConfig(iou_min=iou_min)
