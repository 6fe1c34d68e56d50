"""From-definition oracle for MCOS generation, read by the tests and by
perfbench's correctness check.

For a concrete window (a list of ``(fid, objset-mask)`` pairs) the
family of valid states is exactly the family of *closed* object sets:
``X`` such that ``X == intersection of O_f over all window frames f
containing X``, each paired with its full supporting frame set.  This
module enumerates that family directly from Definition 1/2, with no
incremental cleverness, so the production algorithms (NAIVE / MFS /
SSG) can be diffed against it frame by frame.
"""
from __future__ import annotations


def closed_states(window_frames: list[tuple[int, int]]) -> dict[int, list[int]]:
    """All valid states of a window.

    Parameters
    ----------
    window_frames:
        ``(fid, mask)`` pairs for every frame currently in the window,
        in ascending fid order.  Frames with empty object sets
        contribute nothing (an MCOS is non-empty by Definition 1).

    Returns
    -------
    dict mask -> sorted list of supporting fids
        One entry per closed (valid) object set; the frame list is
        every window frame whose object set contains the mask.
    """
    family: set[int] = set()
    for _, mask in window_frames:
        if not mask:
            continue
        new = {mask}
        for x in family:
            inter = x & mask
            if inter:
                new.add(inter)
        family |= new
    out: dict[int, list[int]] = {}
    for x in family:
        out[x] = [fid for fid, mask in window_frames if mask & x == x]
    return out
