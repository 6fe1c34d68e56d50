"""Marked Frame Set (MFS) approach to MCOS generation (paper §4.2).

This module also holds the update step that NAIVE, MFS and SSG all
run (one memory-based framework, §6.2): expire; group the generator
states by their intersection with the arriving frame; over that map
append, propagate marks, or create and admit; then the arriving
frame's own (principal) state.  The methods differ along two axes
only: *enumeration* of the states that the previous frame's groups do
not cover (MFS and NAIVE scan every state, SSG traverses its graph)
and *validity* (MFS and SSG drop a state when its newest mark expires;
NAIVE never reads the marks it keeps).

Expiry and result collection touch only the states they concern.
Every stored state is filed under its *death key* (``_key``: newest
mark, or NAIVE's newest frame), a fid in the window, in a calendar of
buckets indexed by that fid: each frame pops the fids that left the
window, and a state whose key has moved up since is re-filed when its
old bucket pops.
The update step writes Result State Set (§4.3.7) membership: a stored
state joins when an append or a creation brings it to ``d`` live
frames, and leaves when it is dropped or when ``result_sizes``, the
one filter (the paper's revalidation), finds it below ``d`` live
frames; ``results`` lists the members' frames.  Enumeration costs at
most two ``&`` and one group probe per state it meets.  Frames are
trimmed lazily, once a window: an append trims only when the oldest
frame is more than ``w`` below ``lo`` (a new state copies its
generator's from ``lo`` on), so a state keeps fewer than ``2w``
expired frames and read accessors take ``lo``.

The update step touches each state once a frame.  Each group is
summarised as it forms (newest mark, smallest member, first member),
and the append/create loop reads the summary.  A new state takes the
live frames of its smallest generator, then the arriving fid, in
place of the paper's ``merge()`` over all its generators.  The store
is closed under non-empty intersection (under pruning, under
admissible intersection), so that generator is the group's
intersection, lies inside every other one (so its mask is the
lowest), and its complete frame set holds theirs (DESIGN.md §5, "Why
a new state's frames are complete").

Every non-empty frame is *derived* from the previous non-empty frame
``p``.  Its *re-entering* bits ``R`` are the entering objects (absent
from ``p``) last seen inside the window (``_left``); no stored state
holds any other entering object.  A stored state without an ``R`` bit
meets the frame as its group key at ``p`` does, so ``p``'s keys, held
as states (``_drop`` sets a dropped one's object set to 0), stand in
for it: a key inside the frame is appended to, the others are
grouped by what they keep of the frame.  Only when ``R`` is not empty
does the enumeration run, and it groups only the states that hold an
``R`` bit.  A group that holds an ``R`` bit has only such members and
a group without one has none, so the two sources never share a group
(DESIGN.md §5, "Derived frames").  A frame with ``R`` empty and ``p``
in the window counts in ``stats["derived"]`` (and in
``stats["repeated"]`` when it repeats ``p``'s object set) and adds
nothing to ``stats["visits"]``.

Like NAIVE, MFS scans every stored state when it enumerates; unlike
NAIVE, every state carries a *Marked Frame Set* whose marks form a Key
Frame Set (Definition 4, Theorem 1).  A state becomes invalid — and is
removed immediately — the moment its last marked frame expires, so
invalid states are neither re-intersected against future frames nor
filtered at result time.

Frame Marking Rules implemented here (paper §4.2.3, disambiguated per
DESIGN.md):

1. A state created (or re-encountered) *as the arriving frame's full
   object set* has the arriving fid marked: the single-frame suffix
   ``{i}`` intersects to exactly that object set.
2. A state generated by intersection inherits the union of its
   generators' marks; the arriving fid is appended *unmarked* (Table 2
   semantics — marking it would wrongly certify the ``{i}`` suffix).
3. When the intersection of a generator ``s'`` with the arriving frame
   equals an *existing* state's object set, the generator's marks are
   propagated onto that state (rule 2 of §4.2.3): for any mark ``f``
   of ``s'``, the suffix of the target's frame set from ``f`` onward
   intersects to ``ID_{s'} ∩ O_i``, which is the target's object set.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterable

from repro.core.model import State


class MFSGenerator:
    """State maintenance with Marked Frame Sets."""

    state_cls = State

    def __init__(self, w: int, d: int, admit: Callable[[int], bool] | None = None) -> None:
        if w <= 0:
            raise ValueError(f"window size must be positive, got {w}")
        if not (0 <= d <= w):
            raise ValueError(f"duration must satisfy 0 <= d <= w, got d={d} w={w}")
        self.w, self.d = w, d
        self.states: dict[int, State] = {}
        # Section 5.3 termination hook (the *_O variants):
        # ``admit(mask) -> bool``; object sets failing every >=-only
        # query are never maintained.
        self.admit = admit
        # Enumeration cost (states scanned, or graph nodes visited),
        # frames that enumerate nothing though the previous non-empty
        # frame is in the window (derived) and those of them that
        # repeat the previous object set, states dropped, bucket
        # entries moved to a later key, and SSG's forest edges added and
        # children re-hung when their parent is dropped (none for the
        # scan methods).
        self.stats = dict.fromkeys(
            ("visits", "derived", "repeated", "expired", "refiled", "edges", "reparented"), 0
        )
        self._buckets: dict[int, list[State]] = {}  # death key -> states
        self._sr: dict[int, State] = {}  # Result State Set, filtered by result_sizes
        self._lo = 0
        # The previous non-empty frame's mask and fid, and its stored
        # group key states, its own object set among them: every stored
        # state that meets that frame meets it in one of these keys.  A
        # key dropped since has object set 0 (``_drop``).
        self._last: tuple[int, int, list[State]] = (0, 0, [])
        # Bit -> the last frame that held it before a non-empty frame
        # without it: a bit entering now is held by no stored state
        # unless that frame is in the window.
        self._left: dict[int, int] = {}

    def advance(self, fid: int, objs_mask: int) -> None:
        """Process one arriving frame (fids strictly increasing) with the
        update step all methods share: enumerate the states that hold a
        re-entering bit, if the frame has one; append to the previous
        non-empty frame's keys inside the frame and group the others by
        their cut ``key & objs_mask``; then append, propagate or create
        over every group (DESIGN.md §5, "Derived frames")."""
        w, d = self.w, self.d
        lo = fid - w + 1
        self._expire(lo)
        self._lo = lo
        sr = self._sr
        if not objs_mask:
            return
        # An append trims only once its oldest frame is more than ``w``
        # below ``lo``, and the state joins the Result State Set when its
        # ``dn``-th newest frame is live (``dn = 1`` stands in for
        # ``d = 0``: an appended state's newest frame is live).
        old, dn = lo - w, d or 1
        states = self.states
        admit = self.admit
        last_mask, last_fid, last_keys = self._last
        reentering = self._reentering(lo, objs_mask)
        if reentering:
            gens = self._generators(objs_mask, reentering)
        else:
            gens = {}
            if last_mask and last_fid >= lo:
                self.stats["derived"] += 1
                self.stats["repeated"] += objs_mask == last_mask
        keys: list[State] = []
        for ex in last_keys:
            key = ex.objset
            inter = key & objs_mask
            if inter == key:
                if not key:
                    continue  # dropped since ``p`` (``_drop``)
                fr = ex.frames
                if fr[0] < old:
                    del fr[: bisect_left(fr, lo)]
                fr.append(fid)
                if len(fr) >= dn and fr[-dn] >= lo:
                    sr[key] = ex
                keys.append(ex)
            elif inter:
                g = gens.get(inter)
                if g is None:
                    gens[inter] = [ex.mark, key, ex, ex]
                else:
                    if ex.mark > g[0]:
                        g[0] = ex.mark
                    if key < g[1]:
                        g[1], g[2] = key, ex
        for inter, (mark, _, small, first) in gens.items():
            ex = states.get(inter)
            if ex is not None:
                # Append case: ``inter == ex.objset`` and ``ex.objset ⊆
                # objs_mask``.  A key of ``p`` inside the frame has
                # ``fid`` already.
                fr = ex.frames
                if fr[-1] != fid:
                    if fr[0] < old:
                        del fr[: bisect_left(fr, lo)]
                    fr.append(fid)
                    keys.append(ex)
                if mark > ex.mark:
                    ex.mark = mark  # mark propagation (§4.2.3)
                if len(fr) >= dn and fr[-dn] >= lo:
                    sr[inter] = ex
            elif admit is None or admit(inter):
                # The smallest generator is the group's intersection, so
                # its frames hold every other one's.  They are not empty
                # and below ``fid``: its newest frame is live, and no
                # generator took ``fid`` (DESIGN.md §5).
                fr = small.frames
                fr = fr[bisect_left(fr, lo) :]
                fr.append(fid)
                st = self._create(inter, fr, mark, first, ())
                if len(fr) >= d:
                    sr[inter] = st
                keys.append(st)
        # The arriving frame's own object set is (or becomes) a
        # principal-style state with the arriving fid marked.  A stored
        # one contains the frame's object set, so it is a group key and
        # was appended to above.
        st = states.get(objs_mask)
        if st is not None:
            st.mark = fid
        elif admit is None or admit(objs_mask):
            st = self._create(objs_mask, [fid], fid, None, keys)
            if d <= 1:
                sr[objs_mask] = st
            keys.append(st)
        self._last = (objs_mask, fid, keys)

    def _reentering(self, lo: int, objs_mask: int) -> int:
        """Record in ``_left`` the bits that left since the previous
        non-empty frame ``p``; then return the bits entering now (not in
        ``p``) that were last seen inside the window: the only entering
        bits a stored state can hold."""
        last_mask, last_fid, _ = self._last
        left = self._left
        gone = last_mask & ~objs_mask
        while gone:
            low = gone & -gone
            left[low.bit_length() - 1] = last_fid
            gone ^= low
        # Every entry is at most ``p``: none is in the window if ``p`` is not.
        out = 0
        new = objs_mask & ~last_mask
        while new:
            low = new & -new
            if left.get(low.bit_length() - 1, lo - 1) >= lo:
                out |= low
            new ^= low
        return out

    def _key(self, st: State) -> int:
        """Death key: the state is dropped once this fid expires."""
        return st.mark

    def _file(self, st: State, key: int) -> None:
        self._buckets.setdefault(key, []).append(st)

    def _expire(self, lo: int) -> None:
        """Pop the buckets keyed below ``lo``: drop the states whose
        death key expired — by Theorem 1 those states are invalid —
        and re-file the others under their current key, at or above
        ``lo``.  Every key is a fid of the previous window, so at most
        ``w`` fids are probed, in ascending order, however far the fids
        jump."""
        prev_lo, buckets, stats = self._lo, self._buckets, self.stats
        for old in range(prev_lo, min(lo, prev_lo + self.w)):
            bucket = buckets.pop(old, None)
            if bucket is None:
                continue
            for st in bucket:
                key = self._key(st)
                if key < lo:
                    self._drop(st)
                    stats["expired"] += 1
                else:
                    self._file(st, key)
                    stats["refiled"] += 1

    def _drop(self, st: State) -> None:
        del self.states[st.objset]
        self._sr.pop(st.objset, None)
        # No stored state has an empty object set: this marks the state
        # dropped for the previous frame's key list, which holds it.
        st.objset = 0

    def _generators(self, objs_mask: int, probe: int) -> dict[int, list]:
        """Scan: meet every stored state, grouping those that hold a bit
        of ``probe`` by their intersection with the frame.  Each group
        is summarised as it forms (``[mark, small.objset, small,
        first]``): its newest mark, its smallest member (its
        intersection, the lowest mask since a subset's mask is never
        larger) and its first member."""
        gens: dict[int, list] = {}
        states = self.states
        for st in states.values():
            objset = st.objset
            if objset & probe:
                inter = objset & objs_mask
                g = gens.get(inter)
                if g is None:
                    gens[inter] = [st.mark, objset, st, st]
                else:
                    if st.mark > g[0]:
                        g[0] = st.mark
                    if objset < g[1]:
                        g[1], g[2] = objset, st
        self.stats["visits"] += len(states)
        return gens

    def _create(
        self, objset: int, frames: list[int], mark: int, parent: State | None, below: Iterable[State]
    ) -> State:
        """Store, file and return a new state.  ``parent`` is one of its
        generators (``None`` for a principal state); ``below`` holds the
        stored states a new principal state sits above.  Only SSG's graph
        reads them."""
        self.states[objset] = st = self.state_cls(objset, frames, mark)
        self._file(st, self._key(st))
        return st

    def result_sizes(self) -> dict[int, int]:
        """Satisfied valid states as ``{mask: live frame count}``: the
        states of the Result State Set that still hold ``d`` live frames,
        all valid here.  The others leave it until an append brings them
        back.  NAIVE overrides it with its selection of the valid states."""
        lo, d, sr = self._lo, self.d, self._sr
        out = {mask: st.n_live_frames(lo) for mask, st in sr.items()}
        for mask in [mask for mask, n in out.items() if n < d]:
            del sr[mask], out[mask]
        return out

    def results(self) -> dict[int, list[int]]:
        """The states of :meth:`result_sizes` as ``{mask: live frames}``."""
        sr = self._sr
        # A stored state's newest frame is live, so ``n >= 1`` and its
        # live frames are its last ``n``.
        return {mask: sr[mask].frames[-n:] for mask, n in self.result_sizes().items()}

    def n_states(self) -> int:
        return len(self.states)
