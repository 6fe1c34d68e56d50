"""Scene simulator tests: determinism, lifecycle, occlusion, config."""
from __future__ import annotations

import pytest

from repro.videogen.scene import Scene, SceneConfig

MIX = (("car", 0.6), ("person", 0.4))


def cfg(**kw):
    base = dict(
        name="t", n_frames=120, arrival_rate=0.2, dwell_mean=15, class_mix=MIX,
        seed=1,
    )
    base.update(kw)
    return SceneConfig(**base)


def materialize(c):
    return [(fid, [(o.oid, o.label, o.visible) for o in objs]) for fid, objs in Scene(c)]


def test_deterministic_in_seed():
    assert materialize(cfg()) == materialize(cfg())
    assert materialize(cfg(seed=2)) != materialize(cfg())


def test_frame_count_and_ids_contiguous_presence():
    frames = materialize(cfg())
    assert len(frames) == 120
    assert [f for f, _ in frames] == list(range(120))
    # ground truth presence (not visibility) has no gaps per object
    seen: dict[int, list[int]] = {}
    for fid, objs in frames:
        for oid, _label, _vis in objs:
            seen.setdefault(oid, []).append(fid)
    for oid, fids in seen.items():
        assert fids == list(range(fids[0], fids[-1] + 1)), f"gap in gt of {oid}"


def test_class_labels_from_mix():
    frames = materialize(cfg())
    labels = {label for _, objs in frames for _, label, _ in objs}
    assert labels <= {"car", "person"}


def test_occlusion_rate_produces_invisibility():
    no_occ = materialize(cfg(occl_rate=0.0))
    assert all(vis for _, objs in no_occ for *_, vis in objs)
    occ = materialize(cfg(occl_rate=0.3, occl_len_mean=3.0))
    n_invisible = sum(1 for _, objs in occ for *_, vis in objs if not vis)
    assert n_invisible > 0


def test_long_dwellers_span_most_of_video():
    c = cfg(n_long=4, n_frames=300)
    frames = materialize(c)
    spans: dict[int, list[int]] = {}
    for fid, objs in frames:
        for oid, *_ in objs:
            spans.setdefault(oid, []).append(fid)
    long_spans = sorted((len(v) for v in spans.values()), reverse=True)[:4]
    assert all(s >= 0.4 * 300 for s in long_spans)


def test_moving_camera_churns_objects():
    static = materialize(cfg(camera_speed=0.0, n_frames=200, dwell_mean=80))
    moving = materialize(cfg(camera_speed=12.0, n_frames=200, dwell_mean=80))

    def avg_presence(frames):
        spans: dict[int, int] = {}
        for _, objs in frames:
            for oid, *_ in objs:
                spans[oid] = spans.get(oid, 0) + 1
        return sum(spans.values()) / max(1, len(spans))

    assert avg_presence(moving) < avg_presence(static)


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        cfg(n_frames=0)
    with pytest.raises(ValueError):
        cfg(arrival_rate=-1)
    with pytest.raises(ValueError):
        cfg(class_mix=(("car", 0.5),))
    with pytest.raises(ValueError):
        cfg(p_long=1.5)
