"""NAIVE baseline for MCOS generation (paper Section 6.2).

Stores every object set ever produced by intersections together with
the frames it appears in, with *no* validity pruning.  Invalid states
are filtered late, at result time, and are re-intersected against
every arriving frame until their whole frame set expires.  Both costs
are the ones MFS/SSG exist to avoid.

The paper filters by grouping the Result State Set by frame set and
keeping the largest object set of each group.  Here the states with
fewer than ``d`` live frames leave the set first, and one pass groups
the rest by ``(live count, oldest live fid, newest fid)``, not by the
frame list itself.  Frame sets are complete (every window frame
holding the object set), so a state strictly containing another with
an equal count has the same frame set: containment never crosses
groups, and each frame set's closed set lies in the group of all its
states.  A group of one state keeps it; any other group is visited
largest-first, keeping each state that no kept state contains.  The
kept states are exactly the closed sets, as with grouping by frame
list (DESIGN.md §5).  ``results`` lists the frames of the states this
selection keeps.

NAIVE runs the update step shared by all three generators
(:mod:`repro.core.mfs`: scan enumeration, creation, append, marking,
expiry buckets, Result State Set) and differs only on the validity
axis: it maintains marks but never reads them, so its death key is a
state's newest frame.  So measured differences reflect the algorithms
— state counts, pruning, and traversal — not data-structure
engineering.
"""
from __future__ import annotations

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
        """The largest object set of each frame set among the members of
        the Result State Set that hold ``d`` live frames (MFS's filter),
        ``{mask: live frame count}``: the closed sets."""
        sr = self._sr
        groups: dict[tuple[int, int, int], list[int]] = {}
        for mask, n in super().result_sizes().items():
            fr = sr[mask].frames
            # A stored state's live frames are its last ``n``.
            groups.setdefault((n, fr[-n], fr[-1]), []).append(mask)
        out: dict[int, int] = {}
        for (n, _, _), masks in groups.items():
            if len(masks) == 1:
                out[masks[0]] = n
                continue
            kept: list[int] = []
            for mask in sorted(masks, key=int.bit_count, reverse=True):
                if not any(mask & k == mask for k in kept):
                    kept.append(mask)
                    out[mask] = n
        return out
