"""SSG structural properties: graph invariants, pruning power, lazy SR."""
from __future__ import annotations

import pytest

from repro.core.mfs import MFSGenerator
from repro.core.ssg import SSGGenerator
from tests.core.util import bursty_stream, check_invariants, encode_stream, letters_stream


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("w,d", [(6, 3), (10, 5)])
def test_graph_invariants_every_frame(seed, w, d):
    """Property 1, one parent per node (a forest), root registration and
    reachability of every state from the roots.  Edges are only
    appended, so a node is re-parented only when its parent is dropped:
    ``reparented`` grows only on a frame where ``expired`` does."""
    _, enc = encode_stream(bursty_stream(50, n_objects=9, dwell=7, occl=0.2, seed=seed))
    gen = SSGGenerator(w, d)
    for fid, mask in enc:
        before = dict(gen.stats)
        gen.advance(fid, mask)
        check_invariants(gen)
        if gen.stats["reparented"] > before["reparented"]:
            assert gen.stats["expired"] > before["expired"], f"fid={fid}"


def _edges(gen: SSGGenerator) -> list[tuple[int, list[int]]]:
    return [(n.objset, [c.objset for c in n.children]) for n in gen.states.values()]


@pytest.mark.parametrize("seed", range(4))
def test_graph_shape_deterministic(seed):
    """Two generators fed one stream in one process build the same
    graph: equal stats and equal edge lists, in order, after every
    frame.  Edge placement and the traversal order follow adjacency
    order, which must not depend on the nodes' addresses."""
    _, enc = encode_stream(bursty_stream(120, n_objects=14, dwell=20, occl=0.3, seed=seed))
    a, b = SSGGenerator(30, 8), SSGGenerator(30, 8)
    for fid, mask in enc:
        a.advance(fid, mask)
        b.advance(fid, mask)
        assert a.stats == b.stats, f"fid={fid}"
        assert _edges(a) == _edges(b), f"fid={fid}"


def test_traversal_skips_disjoint_subtrees():
    """Frames about a disjoint object group must not visit the other
    group's subtree — the core SSG pruning claim (§4.3).  Group 2's
    object x shows once among group 1's frames, so group 2's first
    frame brings back an object of the window and is enumerated: a
    frame of objects no stored state holds is derived and visits
    nothing."""
    # Group 1: objects a,b,c recur; then group 2: x,y,z recur.
    g1 = ["abc", "ab", "abc", "ac", "x", "abc"]
    g2 = ["xyz", "xy", "xyz", "xz", "xyz"]
    stream = letters_stream(g1 + g2)
    _, enc = encode_stream(stream)
    gen = SSGGenerator(20, 2)
    for fid, mask in enc[: len(g1)]:
        gen.advance(fid, mask)
    n_states_g1 = gen.n_states()
    n_roots = len(gen.roots)
    visits_before = gen.stats["visits"]
    gen.advance(*enc[len(g1)])  # first frame of group 2: all inters empty
    # Only the roots were touched (each returned immediately on empty
    # intersection); none of group 1's descendants were visited.
    assert gen.stats["visits"] - visits_before == n_roots < n_states_g1
    for fid, mask in enc[len(g1) + 1 :]:
        gen.advance(fid, mask)
        check_invariants(gen)


def test_visit_counts_below_mfs_state_touches():
    """On churny streams SSG must touch fewer states per frame than MFS
    (which intersects every live state every frame)."""
    stream = []
    # Four disjoint object communities, one active at a time.
    for block in range(8):
        base = block % 4 * 5
        for t in range(12):
            fid = block * 12 + t
            objs = [base + (t + k) % 5 for k in range(3)]
            stream.append((fid, objs))
    _, enc = encode_stream(stream)
    ssg = SSGGenerator(24, 6)
    mfs = MFSGenerator(24, 6)
    mfs_touches = 0
    for fid, mask in enc:
        ssg.advance(fid, mask)
        mfs_touches += mfs.n_states()
        mfs.advance(fid, mask)
    assert ssg.results() == mfs.results()
    assert ssg.stats["visits"] < mfs_touches


@pytest.mark.parametrize("seed", range(4))
def test_lazy_result_set_matches_eager(seed):
    """§4.3.7: SR via revalidate(prev) ∪ visited must equal the eager
    result set — which equals MFS's results (differential)."""
    _, enc = encode_stream(
        bursty_stream(60, n_objects=8, dwell=6, occl=0.3, seed=seed)
    )
    ssg = SSGGenerator(9, 4)
    mfs = MFSGenerator(9, 4)
    for fid, mask in enc:
        ssg.advance(fid, mask)
        mfs.advance(fid, mask)
        assert ssg.results() == mfs.results(), f"fid={fid}"


def test_gc_sweep_bounds_stale_states():
    """States never revisited are swept within one window length."""
    active = letters_stream(["abc", "abc", "abc", "xyz", "xyz", "xyz"])
    # after frame 2 the abc community never recurs; w=3 so by fid>=6
    # all abc states are invalid; expiry drops each one the frame its
    # newest mark leaves the window, visited or not.
    tail = [(fid, [ord("x"), ord("y")]) for fid in range(6, 16)]
    _, enc = encode_stream(active + tail)
    gen = SSGGenerator(3, 1)
    codec_masks_abc = enc[0][1]
    for fid, mask in enc:
        gen.advance(fid, mask)
    assert all(mask & codec_masks_abc == 0 for mask in gen.states)


def test_terminated_subtree_never_built():
    """SSG_O admission: an inadmissible principal state contributes no
    states at all (its subsets are unreachable through it)."""
    _, enc = encode_stream(letters_stream(["abcd", "abce", "abde"]))
    gen = SSGGenerator(10, 1, admit=lambda mask: mask.bit_count() >= 5)
    for fid, mask in enc:
        gen.advance(fid, mask)
    assert gen.n_states() == 0
    assert gen.results() == {}
