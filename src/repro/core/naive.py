"""NAIVE baseline for MCOS generation (paper Section 6.2).

Stores every object set ever produced by intersections together with
the frames it appears in, with *no* validity pruning.  Invalid states
are filtered late, at result time, and are re-intersected against
every arriving frame until their whole frame set expires.  Both costs
are the ones MFS/SSG exist to avoid.

The paper filters by grouping the Result State Set by frame set and
keeping the largest object set of each group.  Here the group key is
``(live count, oldest live fid, newest fid)``, not the frame list
itself.  Frame sets are complete (every window frame holding the
object set), so a state strictly containing another with an equal
count has the same frame set, and each frame set's closed set lies in
the bucket of all its states.  A bucket of one state keeps it; any
other bucket is visited largest-first, keeping each state that no kept
state contains.  The kept states are exactly the closed sets, as with
grouping by frame list (DESIGN.md §5).  ``results`` lists the frames
of the states this selection keeps.

NAIVE runs the update step shared by all three generators
(:mod:`repro.core.mfs`: scan enumeration, creation, append, marking,
expiry buckets, Result State Set) and differs only on the validity
axis: it maintains marks but never reads them, so its death key is a
state's newest frame.  So measured differences reflect the algorithms
— state counts, pruning, and traversal — not data-structure
engineering.
"""
from __future__ import annotations

from bisect import bisect_left

from repro.core.mfs import MFSGenerator
from repro.core.model import State


class NaiveGenerator(MFSGenerator):
    """Hash-table state maintenance: objset mask -> frame-set state.

    The inherited ``admit`` hook supports the Section 5.3 termination
    pruning used by the *_O variants; NAIVE itself is always run
    unpruned in the paper, but the hook keeps the three generators
    interchangeable.
    """

    def _key(self, st: State) -> int:
        # A state dies only when its whole frame set has drained out of
        # the window.
        return st.frames[-1]

    def result_sizes(self) -> dict[int, int]:
        """The largest object set of each frame set in the Result State
        Set, ``{mask: live frame count}``: the closed sets."""
        sr = self._sr
        if not sr:
            return {}
        lo = self._lo
        first: dict[tuple[int, int, int], int] = {}  # bucket key -> first mask
        setdefault = first.setdefault
        out: dict[int, int] = {}
        clashes: dict[tuple[int, int, int], list[int]] = {}
        for mask, st in sr.items():
            fr = st.frames
            if fr[0] < lo:
                i = bisect_left(fr, lo)
                n = len(fr) - i
                key = (n, fr[i], fr[-1])
            else:
                n = len(fr)
                key = (n, fr[0], fr[-1])
            if setdefault(key, mask) is mask:
                out[mask] = n
            else:
                bucket = clashes.get(key)
                if bucket is None:
                    clashes[key] = [first[key], mask]
                else:
                    bucket.append(mask)
        for (n, _, _), masks in clashes.items():
            del out[masks[0]]
            kept: list[int] = []
            for mask in sorted(masks, key=int.bit_count, reverse=True):
                if not any(mask & k == mask for k in kept):
                    kept.append(mask)
                    out[mask] = n
        return out

    def results(self) -> dict[int, list[int]]:
        """The states of :meth:`result_sizes` as ``{mask: live frames}``."""
        sr = self._sr
        # A stored state's newest frame is live, so ``n >= 1`` and its
        # live frames are its last ``n``.
        return {mask: sr[mask].frames[-n:] for mask, n in self.result_sizes().items()}
