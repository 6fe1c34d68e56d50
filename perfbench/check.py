"""Output checks: per-frame digests across methods, and the oracle.

Every method must emit the same match rows on every frame, so each
frame's rows are reduced to a digest and the methods vote.  On a sample
of frames the rows and ``gen.results()`` are also compared with the
from-definition closed-set oracle (``repro.core.brute``) and with
``Query.holds`` on the decoded class counts.  With ``prune=True`` the
oracle keeps only the object sets that pass some query.
"""
from __future__ import annotations

from collections import Counter

from repro.core.brute import closed_states

N_SAMPLES = 5


def digest(triples) -> int:
    """Order-free digest of one frame's ``(qid, objset, n_frames)`` rows."""
    return hash(tuple(sorted(triples)))


def row_digest(rows) -> int:
    return digest((r.qid, r.objset, r.n_frames) for r in rows)


def disagreeing(digests_by_method: dict[str, list[int]]) -> dict[str, set[int]]:
    """Per method, the frame indexes whose digest is not the majority's.

    A frame where no digest has a strict majority fails for every method.
    A method whose list ends early (``feed`` raised) does not vote on the
    frames it never reached; those already count as failed.
    """
    out: dict[str, set[int]] = {m: set() for m in digests_by_method}
    n_frames = max(map(len, digests_by_method.values()), default=0)
    for i in range(n_frames):
        votes = {m: ds[i] for m, ds in digests_by_method.items() if i < len(ds)}
        if len(set(votes.values())) <= 1 and len(votes) > 1:
            continue
        top, n = Counter(votes.values()).most_common(1)[0]
        for m, d in votes.items():
            if n * 2 <= len(votes) or d != top:
                out[m].add(i)
    return out


class Oracle:
    """Expected states, results and rows of sampled frames, from definition."""

    def __init__(self, frames, queries, *, w: int, d: int, prune: bool) -> None:
        self.queries = queries
        self.w, self.d, self.prune = w, d, prune
        labels = {c.label for q in queries for disj in q.cnf for c in disj}
        bit_of: dict[int, int] = {}
        self.label_of: dict[int, str] = {}
        self.masks: list[tuple[int, int]] = []
        for fid, objs in frames:
            mask = 0
            for oid, cls in objs:
                if cls in labels:
                    mask |= 1 << bit_of.setdefault(oid, len(bit_of))
                    self.label_of[oid] = cls
            self.masks.append((fid, mask))
        self.oid_of = sorted(bit_of, key=bit_of.get)
        n = len(frames)
        # Evenly spaced frames after the first full window, ending at the last.
        self.sample = {w + (n - 1 - w) * k // N_SAMPLES for k in range(1, N_SAMPLES + 1)}
        self._expected: dict[int, tuple] = {}

    def _decode(self, mask: int) -> tuple[int, ...]:
        out = []
        while mask:
            low = mask & -mask
            out.append(self.oid_of[low.bit_length() - 1])
            mask ^= low
        return tuple(sorted(out))

    def _passing(self, objset) -> list[int]:
        counts: dict[str, int] = {}
        for oid in objset:
            counts[self.label_of[oid]] = counts.get(self.label_of[oid], 0) + 1
        return [q.qid for q in self.queries if q.holds(counts)]

    def expected(self, idx: int):
        """(closed object sets, satisfied {objset: n_frames}, sorted rows)."""
        got = self._expected.get(idx)
        if got is None:
            window = self.masks[max(0, idx - self.w + 1) : idx + 1]  # fids are 0..n-1
            closed = {self._decode(x): len(fids) for x, fids in closed_states(window).items()}
            if self.prune:
                closed = {x: n for x, n in closed.items() if self._passing(x)}
            results = {x: n for x, n in closed.items() if n >= self.d}
            rows = sorted((qid, x, n) for x, n in results.items() for qid in self._passing(x))
            got = self._expected[idx] = (set(closed), results, rows)
        return got

    def check(self, method: str, pipe, idx: int, rows) -> list[str]:
        """Mismatches of one pipeline right after it fed frame ``idx``."""
        closed, results, want_rows = self.expected(idx)
        errors = []
        decode = pipe.codec.decode
        got = {decode(m): len(fr) for m, fr in pipe.gen.results().items()}
        if got != results:
            errors.append(f"results() differs from the oracle ({len(got)} vs {len(results)} states)")
        if sorted((r.qid, r.objset, r.n_frames) for r in rows) != want_rows:
            errors.append(f"match rows differ from the oracle ({len(rows)} vs {len(want_rows)} rows)")
        # MFS stores exactly the valid states, so its store is checkable too.
        if method == "mfs" and {decode(m) for m in pipe.gen.states} != closed:
            errors.append("MFS state store differs from the closed sets of the window")
        return errors
