"""The window lemma: a pipeline fed from fid ``a - w + 1`` emits, from
``a`` on, what an uninterrupted one emits.

The Spark streaming operator stores each camera's last ``w`` frames and
rebuilds its pipeline from them every micro-batch
(:mod:`repro.spark.streaming`).  That is exact because the valid states
of a window are its closed sets with their frame sets (§2): no frame
before the window can change a later frame's results.  At the paper's
window (w=300, d=240) on every dataset profile, a pipeline fed only the
``w - 1`` frames before fid ``a`` runs next to an uninterrupted one; from
``a`` on, every frame's rows (sorted) and decoded Result State Set must
be equal.  M1 yields no rows at these settings, so ``results()`` is what
checks it.  The cut lies at mid-stream, just before a frame that repeats
the previous object set, and just before a derived frame: the rebuilt
pipeline must take those frames' shortcuts from what the window holds.
"""
from __future__ import annotations

import pytest

from repro.bench import DATASET_ORDER, DEFAULT_D, DEFAULT_W, fig10_queries, labeled_stream
from repro.core.evaluate import QueryPipeline
from repro.videogen.datasets import DATASETS

W, D = DEFAULT_W, DEFAULT_D


def cut_at(stream, cut: int, method: str) -> tuple[QueryPipeline, QueryPipeline]:
    """An uninterrupted pipeline fed ``stream[:cut]``, and one fed only
    its frames from ``a - w + 1`` on, ``a`` being the fid of ``stream[cut]``."""
    a = stream[cut][0]
    ref = QueryPipeline(fig10_queries()[:10], w=W, d=D, method=method)
    pipe = QueryPipeline(fig10_queries()[:10], w=W, d=D, method=method)
    for fid, objs in stream[:cut]:
        ref.feed(fid, objs)
        if fid > a - W:
            pipe.feed(fid, objs)
    return ref, pipe


def decoded(pipe: QueryPipeline) -> dict[tuple[int, ...], list[int]]:
    return {pipe.codec.decode(m): fr for m, fr in pipe.gen.results().items()}


def assert_same(pipe: QueryPipeline, ref: QueryPipeline, frames) -> None:
    for fid, objs in frames:
        assert sorted(pipe.feed(fid, objs)) == sorted(ref.feed(fid, objs)), f"fid={fid}"
        assert decoded(pipe) == decoded(ref), f"fid={fid}"


@pytest.mark.parametrize("method", ["mfs", "ssg"])
@pytest.mark.parametrize("dataset", DATASET_ORDER)
def test_window_rebuild_resumes_mid_stream(dataset, method):
    stream = labeled_stream(dataset, 0, DATASETS[dataset].scene.n_frames)
    mid = len(stream) // 2
    assert mid > W
    ref, pipe = cut_at(stream, mid, method)
    pipe.gen.check_invariants()
    assert_same(pipe, ref, stream[mid:])


@pytest.mark.parametrize("method", ["naive", "mfs", "ssg"])
def test_window_rebuild_between_equal_frames(method):
    """Cut right before a frame whose object set repeats the previous
    frame's (V1, static camera): the rebuilt pipeline serves it without
    enumeration, from the groups of the previous frame in its window."""
    stream = labeled_stream("V1", 0, DATASETS["V1"].scene.n_frames)
    mid = next(
        i for i in range(len(stream) // 2, len(stream))
        if stream[i][1] and sorted(stream[i][1]) == sorted(stream[i - 1][1])
    )
    ref, pipe = cut_at(stream, mid, method)
    repeated = pipe.gen.stats["repeated"]
    assert_same(pipe, ref, stream[mid : mid + 1])
    assert pipe.gen.stats["repeated"] == repeated + 1
    for frame in stream[mid + 1 :]:
        assert_same(pipe, ref, [frame])
        pipe.gen.check_invariants()


@pytest.mark.parametrize("method", ["naive", "mfs", "ssg"])
def test_window_rebuild_before_derived_frame(method):
    """Cut right before a derived frame that is not a repeat (M1, moving
    camera: objects leave, or enter held by no stored state): the rebuilt
    pipeline builds that frame's groups from the previous frame's group
    keys, and knows from its window alone which entering objects no
    stored state holds."""
    stream = labeled_stream("M1", 0, DATASETS["M1"].scene.n_frames)
    probe = QueryPipeline(fig10_queries()[:10], w=W, d=D, method=method)
    mid = None
    for i, (fid, objs) in enumerate(stream):
        before = dict(probe.gen.stats)
        probe.feed(fid, objs)
        cut = probe.gen.stats["derived"] > before["derived"] and (
            probe.gen.stats["repeated"] == before["repeated"]
        )
        if cut and i >= len(stream) // 2:
            mid = i
            break
    assert mid is not None, "no derived frame past mid-stream: weak test"
    ref, pipe = cut_at(stream, mid, method)
    derived = pipe.gen.stats["derived"]
    assert_same(pipe, ref, stream[mid : mid + 1])
    assert pipe.gen.stats["derived"] == derived + 1
    pipe.gen.check_invariants()
    assert_same(pipe, ref, stream[mid + 1 :])
    pipe.gen.check_invariants()
