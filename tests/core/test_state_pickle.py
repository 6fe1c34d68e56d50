"""Paper-scale streaming state: a pickled ``QueryPipeline`` resumes exactly.

The Spark streaming operator keeps each camera's pipeline pickled in
its ``GroupState`` between micro-batches.  At the paper's window
(w=300, d=240) on every dataset profile, the pipeline is pickled and
unpickled at mid-stream and fed the rest of the stream next to an
uninterrupted one; every frame's rows and Result State Set must be
equal.  M1 yields no rows at these settings, so ``results()`` is what
checks it.  The codec width and the sizes of the two mask-keyed caches
must be equal too: ``mid`` is past ``w``, so the codec has released bits
before the pickle, and the resumed pipeline must keep the same release
schedule.  A pickle taken between two equal frames must carry what the
second needs to skip enumeration, and one taken before a derived frame
what that frame builds its groups from.
"""
from __future__ import annotations

import pickle

import pytest

from repro.bench import DATASET_ORDER, DEFAULT_D, DEFAULT_W, fig10_queries, labeled_stream
from repro.core.evaluate import QueryPipeline
from repro.videogen.datasets import DATASETS


@pytest.mark.parametrize("method", ["mfs", "ssg"])
@pytest.mark.parametrize("dataset", DATASET_ORDER)
def test_pickled_pipeline_resumes_mid_stream(dataset, method):
    stream = labeled_stream(dataset, 0, DATASETS[dataset].scene.n_frames)
    mid = len(stream) // 2
    ref = QueryPipeline(fig10_queries()[:10], w=DEFAULT_W, d=DEFAULT_D, method=method)
    for fid, objs in stream[:mid]:
        ref.feed(fid, objs)
    assert mid > DEFAULT_W
    pipe = pickle.loads(pickle.dumps(ref))
    pipe.gen.check_invariants()
    for fid, objs in stream[mid:]:
        assert pipe.feed(fid, objs) == ref.feed(fid, objs), f"fid={fid}"
        assert pipe.gen.results() == ref.gen.results(), f"fid={fid}"
        assert sizes(pipe) == sizes(ref), f"fid={fid}"
    assert pipe.stats == ref.stats


@pytest.mark.parametrize("method", ["naive", "mfs", "ssg"])
def test_pickle_between_equal_frames(method):
    """Pickled right after a frame whose object set the next frame
    repeats (V1, static camera): the resumed pipeline serves that next
    frame without enumeration, from the previous frame's groups it
    carried through the pickle, and resumes exactly."""
    stream = labeled_stream("V1", 0, DATASETS["V1"].scene.n_frames)
    mid = next(
        i for i in range(len(stream) // 2, len(stream))
        if stream[i][1] and sorted(stream[i][1]) == sorted(stream[i - 1][1])
    )
    ref = QueryPipeline(fig10_queries()[:10], w=DEFAULT_W, d=DEFAULT_D, method=method)
    for fid, objs in stream[:mid]:
        ref.feed(fid, objs)
    pipe = pickle.loads(pickle.dumps(ref))
    repeated = ref.gen.stats["repeated"]
    for fid, objs in stream[mid:]:
        assert pipe.feed(fid, objs) == ref.feed(fid, objs), f"fid={fid}"
        assert pipe.gen.results() == ref.gen.results(), f"fid={fid}"
        if fid == stream[mid][0]:
            assert pipe.gen.stats["repeated"] == repeated + 1
        pipe.gen.check_invariants()
    assert pipe.stats == ref.stats and pipe.gen.stats == ref.gen.stats


@pytest.mark.parametrize("method", ["naive", "mfs", "ssg"])
def test_pickle_before_derived_frame(method):
    """Pickled right before a derived frame that is not a repeat (M1,
    moving camera: objects leave, or enter held by no stored state): the
    resumed pipeline builds that frame's groups from the previous
    frame's group keys and the bits' departure fids it carried through
    the pickle, and resumes exactly."""
    stream = labeled_stream("M1", 0, DATASETS["M1"].scene.n_frames)
    probe = QueryPipeline(fig10_queries()[:10], w=DEFAULT_W, d=DEFAULT_D, method=method)
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
    ref = QueryPipeline(fig10_queries()[:10], w=DEFAULT_W, d=DEFAULT_D, method=method)
    for fid, objs in stream[:mid]:
        ref.feed(fid, objs)
    pipe = pickle.loads(pickle.dumps(ref))
    derived = ref.gen.stats["derived"]
    for fid, objs in stream[mid:]:
        assert pipe.feed(fid, objs) == ref.feed(fid, objs), f"fid={fid}"
        assert pipe.gen.results() == ref.gen.results(), f"fid={fid}"
        if fid == stream[mid][0]:
            assert pipe.gen.stats["derived"] == derived + 1
            pipe.gen.check_invariants()
    pipe.gen.check_invariants()
    assert pipe.stats == ref.stats and pipe.gen.stats == ref.gen.stats


def sizes(pipe: QueryPipeline) -> tuple[int, int, int]:
    """Codec width and the entries of the two mask-keyed caches."""
    return len(pipe.codec), len(pipe._match_cache), len(pipe._admit_cache)
