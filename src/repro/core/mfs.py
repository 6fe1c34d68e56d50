"""Marked Frame Set (MFS) approach to MCOS generation (paper §4.2).

This module also holds the update step that NAIVE, MFS and SSG all
run (one memory-based framework, §6.2): expire; enumerate the
generator states grouped by their intersection with the arriving
frame; over that map append, propagate marks, or create and admit;
then the arriving frame's own (principal) state.  The methods differ
along two axes only: *enumeration* (MFS and NAIVE scan every state,
SSG traverses its graph) and *validity* (MFS and SSG drop a state when
its newest mark expires; NAIVE never reads the marks it keeps).

Like NAIVE, MFS intersects every stored state with each arriving
frame; unlike NAIVE, every state carries a *Marked Frame Set* whose
marks form a Key Frame Set (Definition 4, Theorem 1).  A state becomes
invalid — and is removed immediately — the moment its last marked
frame expires, so invalid states are neither re-intersected against
future frames nor filtered at result time.

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

from typing import Callable, Iterable

from repro.core.model import State, Window, merge_sorted_unique


class MFSGenerator:
    """State maintenance with Marked Frame Sets."""

    def __init__(self, w: int, d: int, admit: Callable[[int], bool] | None = None) -> None:
        self.win = Window(w, d)
        self.states: dict[int, State] = {}
        # Section 5.3 termination hook (the *_O variants):
        # ``admit(mask) -> bool``; object sets failing every >=-only
        # query are never maintained.
        self.admit = admit
        # Enumeration cost: states scanned, or graph nodes visited.
        self.stats = {"visits": 0}

    def advance(self, fid: int, objs_mask: int) -> dict[int, list[State]]:
        """Process one arriving frame (fids strictly increasing) with the
        update step all methods share; returns the generator map."""
        lo = self.win.lo(fid)
        self._expire(fid, lo)
        if not objs_mask:
            return {}
        gens = self._generators(fid, lo, objs_mask)
        states = self.states
        admit = self.admit
        for inter, glist in gens.items():
            ex = states.get(inter)
            if ex is not None:
                # Append case: ``inter == ex.objset`` and
                # ``ex.objset ⊆ objs_mask`` (ex is its own generator).
                ex.append_frame(fid)
                for g in glist:
                    if g.mark > ex.mark:
                        ex.mark = g.mark  # mark propagation (§4.2.3)
            elif admit is None or admit(inter):
                fr = merge_sorted_unique([g.frames for g in glist])
                if not fr or fr[-1] != fid:
                    fr.append(fid)
                self._create(inter, fr, max(g.mark for g in glist), glist[0], ())
        # The arriving frame's own object set is (or becomes) a
        # principal-style state with the arriving fid marked.
        st = states.get(objs_mask)
        if st is not None:
            st.append_frame(fid)
            st.mark = fid
        elif admit is None or admit(objs_mask):
            self._create(objs_mask, [fid], fid, None, gens)
        return gens

    def _expire(self, fid: int, lo: int) -> None:
        """Expire frames; drop states whose newest mark expired — by
        Theorem 1 those states are invalid."""
        states = self.states
        for mask in list(states):
            st = states[mask]
            if st.mark < lo:
                self._drop(st)
            else:
                st.expire(lo)

    def _drop(self, st: State) -> None:
        del self.states[st.objset]

    def _generators(self, fid: int, lo: int, objs_mask: int) -> dict[int, list[State]]:
        """Scan: intersect every stored state with the frame, grouping
        the generator states by their intersection."""
        gens: dict[int, list[State]] = {}
        states = self.states
        for st in states.values():
            inter = st.objset & objs_mask
            if inter:
                bucket = gens.get(inter)
                if bucket is None:
                    gens[inter] = [st]
                else:
                    bucket.append(st)
        self.stats["visits"] += len(states)
        return gens

    def _create(
        self, objset: int, frames: list[int], mark: int, parent: State | None, below: Iterable[int]
    ) -> None:
        """Store a new state.  ``parent`` is one of its generators
        (``None`` for a principal state); ``below`` holds the object
        sets a new principal state sits above.  Only SSG's graph reads
        them."""
        self.states[objset] = State(objset, frames, mark)

    def results(self) -> dict[int, list[int]]:
        """Satisfied valid states: all survivors with ``|F_s| >= d``."""
        d = self.win.d
        return {
            mask: list(st.frames)
            for mask, st in self.states.items()
            if len(st.frames) >= d
        }

    def n_states(self) -> int:
        return len(self.states)
