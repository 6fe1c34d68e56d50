"""Long streams: per-frame state stays bounded as the stream grows.

A profile's stream is replayed several times in a row, each replay
under fresh fids and object ids, through an MFS and an SSG
``QueryPipeline`` at the paper's window (w=300, d=240).  On every frame:

- the codec width stays within the most distinct objects of any 2w
  consecutive frames (the codec recycles the bits of objects that have
  left the window);
- from the third replay on, the mask-keyed caches (``_match_cache`` +
  ``_admit_cache``) never hold more entries than at their peak in the
  first two.  The caches grow between two bit releases and shrink at
  each, so the peak, not the count at one frame, is what a later
  replay must not pass;
- MFS and SSG return the same Result State Set (the codecs see the same
  objects in the same order, so the masks are the same too).

M1 at these settings has no result states, so its unpruned run loads
no cache; the §5.3 pruned run loads ``_admit_cache`` and V1 loads
``_match_cache``.
"""
from __future__ import annotations

import pytest

from repro.bench import DEFAULT_D, DEFAULT_W, fig10_queries, labeled_stream
from repro.core.evaluate import QueryPipeline
from repro.core.queries import geq_only_queries
from repro.videogen.datasets import DATASETS
from tests.core.util import most_objects_in


def replayed(stream, times: int):
    """``stream`` ``times`` times in a row, each replay under fresh fids
    and object ids."""
    n = len(stream)
    ids = 1 + max(oid for _, objs in stream for oid, _ in objs)
    return [
        (k * n + fid, [(k * ids + oid, cls) for oid, cls in objs])
        for k in range(times)
        for fid, objs in stream
    ]


def cache_entries(pipe: QueryPipeline) -> int:
    return len(pipe._match_cache) + len(pipe._admit_cache)


@pytest.mark.parametrize(
    "dataset,times,prune", [("M1", 6, False), ("M1", 4, True), ("V1", 3, False)]
)
def test_long_stream_state_stays_bounded(dataset, times, prune):
    queries = geq_only_queries(100, n_min=3, seed=0) if prune else fig10_queries()
    one = labeled_stream(dataset, 0, DATASETS[dataset].scene.n_frames)
    stream = replayed(one, times)
    pipes = [
        QueryPipeline(queries, w=DEFAULT_W, d=DEFAULT_D, method=m, prune=prune)
        for m in ("mfs", "ssg")
    ]
    labels = pipes[0]._class_index
    bound = most_objects_in(
        [(fid, [o for o, cls in objs if cls in labels]) for fid, objs in stream], 2 * DEFAULT_W
    )
    peak = [0, 0]
    for i, (fid, objs) in enumerate(stream):
        for p in pipes:
            p.feed(fid, objs)
        assert pipes[0].gen.results() == pipes[1].gen.results(), f"fid={fid}"
        for p in pipes:
            assert len(p.codec) <= bound, f"fid={fid}: width {len(p.codec)} > {bound}"
        entries = [cache_entries(p) for p in pipes]
        if i < 2 * len(one):
            peak = [max(a, b) for a, b in zip(peak, entries)]
        else:
            assert all(e <= c for e, c in zip(entries, peak)), (
                f"fid={fid}: caches hold {entries}, past {peak}"
            )
    n_objects = len({o for _, objs in stream for o, cls in objs if cls in labels})
    assert len(pipes[0].codec) < n_objects, "no bit was recycled"
