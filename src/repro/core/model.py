"""Shared problem model: object sets, states, and window bookkeeping.

Terminology (paper Section 2):

- A *frame* is ``(fid, objset)`` where ``objset`` is the set of object
  ids detected in that frame.
- The *window* at frame ``i`` with size ``w`` covers fids in
  ``[i - w + 1, i]`` (Table 1/2 semantics: with ``w = 4``, frame 0
  expires when frame 4 arrives).
- A *state* ``s = (ID_s, F_s)`` pairs an object set with the frames in
  which it co-occurs.  ``s`` is *valid* iff ``ID_s`` is an MCOS of
  ``F_s``; because the MCOS of a frame set ``F'`` is exactly
  ``intersection of O_f over f in F'``, the valid states of a window
  are exactly the *closed* object sets of the window (closed-itemset
  sense) with their full supporting frame sets.
- A *mark* on frame ``f`` of state ``s`` certifies that the suffix of
  ``F_s`` from ``f`` onward intersects to exactly ``ID_s``.  Frames
  expire oldest-first, so ``s`` stays valid exactly while its newest
  mark is inside the window (paper Theorems 1 and 4).

Object sets are represented as Python ``int`` bitmasks: intersection is
``&``, subset tests are mask comparisons, and cardinality is
``int.bit_count()`` — all C-speed, which keeps the relative cost of
NAIVE / MFS / SSG dominated by *how many* states each algorithm
touches, as in the paper's Java implementation.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable


class ObjSetCodec:
    """Bidirectional mapping between object ids and bitmask positions.

    Object ids from the tracker are arbitrary ints.  An unknown id takes
    the lowest free bit, or a new bit above all others when none is
    free.  Bits are recycled: every encoded mask is OR-ed into ``seen``,
    and ``release`` frees the bits of the objects seen in no frame since
    the previous release, once those frames cover the whole window.  So
    the mask width follows the objects of the last two windows, not
    every object of the stream.
    """

    def __init__(self) -> None:
        self._bit_of: dict[int, int] = {}
        self._oid_of: list[int] = []
        self._free = 0  # mask of the released bits not yet reassigned
        self._seen = 0  # OR of the masks encoded since the last release
        self._released: int | None = None  # fid of the last release

    def encode_iter(self, oids: Iterable[int]) -> int:
        """Bitmask for a collection of object ids (assigning new bits)."""
        mask = 0
        bit_of = self._bit_of
        for oid in oids:
            b = bit_of.get(oid)
            if b is None:
                b = self._assign(oid)
            mask |= 1 << b
        self._seen |= mask
        return mask

    def _assign(self, oid: int) -> int:
        free = self._free
        if free:
            low = free & -free
            self._free = free ^ low
            b = low.bit_length() - 1
            self._oid_of[b] = oid
        else:
            b = len(self._oid_of)
            self._oid_of.append(oid)
        self._bit_of[oid] = b
        return b

    def release(self, fid: int, lo: int) -> int:
        """Free the bits of the objects encoded in no frame since the
        previous release; returns the freed mask.

        Call it after the generator has advanced to frame ``fid`` with
        window low bound ``lo``.  Every stored state then lies inside a
        frame in ``[lo, fid]``, so once the frames encoded since the
        previous release cover that range (``lo`` is past it), no live
        mask holds a freed bit.  Until then nothing is freed.
        """
        if self._released is not None and lo <= self._released:
            return 0
        freed = ((1 << len(self._oid_of)) - 1) & ~self._free & ~self._seen
        self._free |= freed
        self._seen = 0
        self._released = fid
        bit_of, oid_of = self._bit_of, self._oid_of
        rest = freed
        while rest:
            low = rest & -rest
            del bit_of[oid_of[low.bit_length() - 1]]
            rest ^= low
        return freed

    def __contains__(self, oid: int) -> bool:
        """Whether ``oid`` holds a bit now."""
        return oid in self._bit_of

    def decode(self, mask: int) -> tuple[int, ...]:
        """Sorted tuple of object ids present in ``mask``."""
        oid_of = self._oid_of
        out = []
        b = 0
        while mask:
            tz = (mask & -mask).bit_length() - 1
            b += tz
            out.append(oid_of[b])
            mask >>= tz + 1
            b += 1
        return tuple(sorted(out))

    def __len__(self) -> int:
        """Mask width: the bits ever assigned, free ones included."""
        return len(self._oid_of)


@dataclass(slots=True)
class State:
    """A state ``(ID_s, F_s)`` with its Marked Frame Set.

    ``frames`` is kept sorted ascending.  Of the Marked Frame Set only
    the **newest** mark is materialised (``mark``; ``-1`` = none):
    frames expire oldest-first, so a state is valid exactly while its
    newest key frame is inside the window — keeping older marks would
    never change a pruning decision (Theorems 1/4; the differential
    tests assert the newest mark equals the brute-force validity
    threshold).  Mark-set union from the paper's marking rules becomes
    ``max``.  ``frames`` is complete: its live frames are every window
    frame whose object set contains ``objset``.  Frames are trimmed
    lazily, by the update step when it appends to the state and the
    oldest frame is more than ``w`` below ``lo``; a new state copies
    its smallest generator's from ``lo`` on.  So a state may hold
    expired frames (fewer than ``2w``), and read accessors take the
    window low bound ``lo``.  The generator
    drops the state itself once its death key expires (see
    :mod:`repro.core.mfs`).
    """

    objset: int
    frames: list[int] = field(default_factory=list)
    mark: int = -1

    def n_live_frames(self, lo: int) -> int:
        """``|F_s ∩ window|`` without mutating the state.  A stored state
        holds at least one frame, its newest, which is live."""
        fr = self.frames
        if fr[0] >= lo:
            return len(fr)
        return len(fr) - bisect_left(fr, lo)

