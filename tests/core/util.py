"""Shared helpers for core-algorithm tests."""
from __future__ import annotations

import random
from typing import Iterable, Iterator, NamedTuple

from repro.bench import labeled_stream
from repro.core.brute import closed_states
from repro.core.evaluate import QueryPipeline, advance_frame, make_generator
from repro.core.mfs import MFSGenerator
from repro.core.model import ObjSetCodec
from repro.core.queries import Query
from repro.core.ssg import SSGGenerator


def live_frames(st, lo: int) -> list[int]:
    """A stored state's frames from the window low bound ``lo`` on."""
    return [f for f in st.frames if f >= lo]


def check_invariants(gen: MFSGenerator) -> None:
    """Filing invariants of every generator, and the forest's of an
    ``SSGGenerator``; asserted by tests after every frame."""
    filed = [(key, st) for key, bucket in gen._buckets.items() for st in bucket]
    assert len(filed) == gen.n_states(), "entries differ from stored states"
    assert {id(st) for _, st in filed} == set(map(id, gen.states.values())), "filing"
    lo, w = gen._lo, gen.w
    for key, st in filed:
        assert lo <= key <= gen._key(st), f"key {key} outside [lo, death key]"
        # What bounds ``_expire``: every key is a fid of the window.
        assert key < lo + w, f"key {key} beyond the window's newest fid"
    # What the update step relies on: a stored state meets the last
    # non-empty frame in a listed key, unless ``admit`` refused it.
    last_mask, _, keys = gen._last
    listed = set(keys)
    assert len(listed) == len(keys), "a group key listed twice"
    for mask in gen.states:
        inter = mask & last_mask
        if inter and (gen.admit is None or inter in gen.states):
            assert inter in listed, "a stored state meets the last frame in no listed key"
    if not isinstance(gen, SSGGenerator):
        return
    for node in gen.states.values():
        assert gen.states.get(node.objset) is node
        for c in node.children:
            assert c.objset & node.objset == c.objset and c.objset != node.objset, (
                "Property 1 violated"
            )
            assert c.parent is node, "child's parent is another node"
        if node.parent is None:
            assert gen.roots.get(node.objset) is node, "parentless node not a root"
    for mask, node in gen.roots.items():
        assert gen.states.get(mask) is node and node.parent is None, "root has a parent"
    # The ST traversal starts at the roots and descends along
    # children: the walk must meet every stored state, each once.
    # With the checks above this makes every node one child of its
    # parent, or a root.
    walk = list(gen.roots.values())
    for node in walk:
        walk.extend(node.children)
        assert len(walk) <= len(gen.states), "the walk meets more nodes than are stored"
    assert set(map(id, walk)) == set(map(id, gen.states.values())), (
        "a stored state is unreachable from the roots"
    )


def satisfied_states(
    window_frames: list[tuple[int, int]], d: int
) -> dict[int, list[int]]:
    """Valid states whose support meets the duration threshold ``d``."""
    return {
        x: fids
        for x, fids in closed_states(window_frames).items()
        if len(fids) >= d
    }


def validity_threshold(window_frames: list[tuple[int, int]], objset: int) -> int | None:
    """Newest frame ``f*`` such that the suffix of ``objset``'s support
    from ``f*`` onward still intersects to exactly ``objset``.

    This is the ground truth for mark exactness: a state's newest mark
    must sit on ``f*`` (the state dies exactly when ``f*`` expires).
    Returns ``None`` when ``objset`` is not valid in this window at all.
    """
    support = [(fid, m) for fid, m in window_frames if m & objset == objset]
    best = None
    for i in range(len(support)):
        inter = ~0
        for _, m in support[i:]:
            inter &= m
        if inter == objset:
            best = support[i][0]
    return best


def profile_objects(name: str, n_frames: int) -> list[tuple[int, list[int]]]:
    """The first ``n_frames`` frames of a dataset profile as
    ``(fid, [oid, ...])``: its labelled stream without the classes."""
    return [(fid, [oid for oid, _ in objs]) for fid, objs in labeled_stream(name, 0, n_frames)]


def letters_stream(frames: list[str]) -> list[tuple[int, list[int]]]:
    """Turn ['B', 'ABC', ...] into a (fid, [oid,...]) stream where each
    letter is an object id (ord value) — matches the paper's examples."""
    return [(i, [ord(ch) for ch in s]) for i, s in enumerate(frames)]


def encode_stream(
    frames: list[tuple[int, list[int]]], codec: ObjSetCodec | None = None
) -> tuple[ObjSetCodec, list[tuple[int, int]]]:
    codec = codec if codec is not None else ObjSetCodec()
    return codec, [(fid, codec.encode_iter(oids)) for fid, oids in frames]


def random_stream(
    n_frames: int,
    *,
    n_objects: int = 8,
    p_present: float = 0.45,
    p_gap: float = 0.0,
    seed: int = 0,
) -> list[tuple[int, list[int]]]:
    """Random object stream; p_gap controls empty frames."""
    rng = random.Random(seed)
    out = []
    for fid in range(n_frames):
        if rng.random() < p_gap:
            out.append((fid, []))
            continue
        objs = [o for o in range(n_objects) if rng.random() < p_present]
        out.append((fid, objs))
    return out


def bursty_stream(
    n_frames: int,
    *,
    n_objects: int = 10,
    dwell: int = 6,
    occl: float = 0.15,
    seed: int = 0,
) -> list[tuple[int, list[int]]]:
    """Objects dwell for contiguous runs with occlusion dropouts —
    closer to real video streams than i.i.d. presence."""
    rng = random.Random(seed)
    spans = {}
    for o in range(n_objects):
        start = rng.randrange(0, max(1, n_frames - 1))
        spans[o] = (start, start + max(1, int(rng.expovariate(1 / dwell))))
    out = []
    for fid in range(n_frames):
        objs = [
            o
            for o, (a, b) in spans.items()
            if a <= fid <= b and rng.random() > occl
        ]
        out.append((fid, objs))
    return out


def churn_stream(
    n_frames: int,
    *,
    arrivals: float = 1.0,
    dwell: int = 4,
    occl: float = 0.15,
    p_empty: float = 0.0,
    p_return: float = 0.2,
    seed: int = 0,
) -> list[tuple[int, list[int]]]:
    """Many short-lived objects: about ``arrivals`` objects enter per
    frame and stay for about ``dwell`` frames.  A share ``p_return`` of
    the entrants is an object that left long ago, under its old id."""
    rng = random.Random(seed)
    live: dict[int, int] = {}  # oid -> last frame of its stay
    gone: list[int] = []
    next_oid = 0
    out = []
    for fid in range(n_frames):
        n_new = int(arrivals) + (rng.random() < arrivals % 1)
        for _ in range(n_new):
            if gone and rng.random() < p_return:
                oid = gone.pop(rng.randrange(len(gone)))
            else:
                oid, next_oid = next_oid, next_oid + 1
            live[oid] = fid + int(rng.expovariate(1 / dwell))
        if rng.random() < p_empty:
            objs = []
        else:
            objs = sorted(o for o in live if rng.random() > occl)
        out.append((fid, objs))
        for oid in [o for o, end in live.items() if end <= fid]:
            del live[oid]
            gone.append(oid)
    return out


def most_objects_in(frames: list[tuple[int, list[int]]], span: int) -> int:
    """Most distinct objects in any ``span`` consecutive frames."""
    count: dict[int, int] = {}
    best = 0
    for i, (_, oids) in enumerate(frames):
        for o in set(oids):
            count[o] = count.get(o, 0) + 1
        if i >= span:
            for o in set(frames[i - span][1]):
                count[o] -= 1
                if not count[o]:
                    del count[o]
        best = max(best, len(count))
    return best


def held_stream(
    frames: list[tuple[int, list[int]]], *, hold: int = 6, seed: int = 0
) -> list[tuple[int, list[int]]]:
    """Hold each frame's object set for a run of 1 to ``hold`` equal
    frames, with consecutive fids: objects that stay in view of a static
    camera, so most frames repeat the previous frame's object set."""
    rng = random.Random(seed)
    out: list[tuple[int, list[int]]] = []
    for _, objs in frames:
        for _ in range(rng.randint(1, hold)):
            out.append((len(out), list(objs)))
    return out


class FrameRow(NamedTuple):
    """A match row with the fid of the frame whose ``feed`` returned it."""

    fid: int
    qid: int
    objset: tuple[int, ...]
    n_frames: int


def evaluate_stream(
    frames: Iterable[tuple[int, Iterable[tuple[int, str]]]],
    queries: list[Query],
    *,
    w: int,
    d: int,
    method: str = "ssg",
    prune: bool = False,
) -> list[FrameRow]:
    """Run one pipeline over the whole stream; every frame's match rows,
    each with its frame's fid."""
    pipe = QueryPipeline(queries, w=w, d=d, method=method, prune=prune)
    return [FrameRow(fid, *row) for fid, objects in frames for row in pipe.feed(fid, objects)]


def mcos_stream(
    frames: Iterable[tuple[int, Iterable[int]]],
    *,
    w: int,
    d: int,
    method: str = "ssg",
) -> Iterator[tuple[int, dict[tuple[int, ...], list[int]]]]:
    """Query-less MCOS generation (Section 6.2 experiments): yields the
    satisfied Result State Set per frame, decoded to oid tuples."""
    codec = ObjSetCodec()
    gen = make_generator(method, w, d)
    last = None
    for fid, oids in frames:
        fid = int(fid)
        if last is not None and fid <= last:
            raise ValueError(f"frames must arrive in strictly increasing fid order: {fid} after {last}")
        last = fid
        advance_frame(gen, codec, fid, oids)
        yield fid, {codec.decode(m): fr for m, fr in gen.results().items()}
