"""NAIVE baseline for MCOS generation (paper Section 6.2).

Stores every object set ever produced by intersections together with
the frames it appears in, with *no* validity pruning.  Each result
request must therefore collect all duration-satisfying object sets,
group them by their (potentially long) frame sets, and keep only the
maximal object set per group — invalid states are filtered late, and
are re-intersected against every arriving frame until their whole
frame set expires.  Both costs are the ones MFS/SSG exist to avoid.

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

    def results(self) -> dict[int, list[int]]:
        """Satisfied *valid* states of the current window.

        Group the Result State Set (every state meeting the duration
        threshold) by frame set, and keep the maximal object set per
        frame set — per Definition 2 the states sharing a frame set are
        a chain under inclusion whose maximum is the MCOS.
        """
        lo = self._lo
        best: dict[tuple[int, ...], int] = {}
        for mask, st in self._sr.items():
            key = tuple(st.live_frames(lo))
            cur = best.get(key)
            if cur is None or mask.bit_count() > cur.bit_count():
                best[key] = mask
        return {mask: list(key) for key, mask in best.items()}
