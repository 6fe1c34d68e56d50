"""Coupling MCOS generation with CNF evaluation (paper §5.2–§5.3).

The pipeline drives one generator (NAIVE / MFS / SSG) over a
``(fid, [(oid, label), ...])`` frame stream:

1. objects whose class no query asks about are dropped on entry (§3);
2. every frame, each object set of the generator's Result State Set is
   reduced to its per-class count vector, and
   :class:`~repro.core.cnf.CNFEvalE` runs once per distinct vector.
   A CNFEvalE atom is ``class θ n`` (§5.2), so the satisfied queries
   depend on the counts alone: the pipeline keeps one bitmask per
   label of ``engine.labels``, a vector is ``popcount(mask &
   class_mask)`` per label, in the order ``evaluate`` takes, and
   ``evaluate`` is memoised on it (the engine's index is built once,
   so its query set never changes);
3. a row is emitted for every ``(state, query)`` pair evaluated TRUE;
   each object set is decoded once, when it first matches, and a
   state's rows are built again only when its live frame count changes.

After each frame the codec releases the bits of objects that have left
the window (:func:`advance_frame`); the pipeline clears them from its
class masks and drops the cached answers of the masks that hold them.

With ``prune=True`` and a ``>=``-only workload the §5.3 termination
strategy is enabled (the ``_O`` variants): each newly generated object
set is evaluated immediately (through the same memo), and if every
query fails it is *terminated* — never admitted to the state store.
Proposition 1 makes this safe: ``>=`` counts are monotone in the
object set, so every subset fails too.  For workloads containing ``<=`` or ``==`` the flag
is rejected, mirroring the paper's eligibility test.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from repro.core.cnf import CNFEvalE
from repro.core.mfs import MFSGenerator
from repro.core.model import ObjSetCodec
from repro.core.naive import NaiveGenerator
from repro.core.queries import Query
from repro.core.ssg import SSGGenerator

GENERATORS = {"naive": NaiveGenerator, "mfs": MFSGenerator, "ssg": SSGGenerator}
METHODS = tuple(GENERATORS)


class MatchRow(NamedTuple):
    """One query hit: a result state's MCOS satisfied query ``qid`` at
    the frame whose ``feed`` returned the row."""

    qid: int
    objset: tuple[int, ...]
    n_frames: int


@dataclass
class PipelineStats:
    result_states: int = 0
    matches: int = 0
    terminated: int = 0
    evaluations: int = 0  # CNFEvalE calls: one per distinct count vector


def make_generator(method: str, w: int, d: int, admit=None):
    """Factory for the three MCOS generators."""
    if method not in GENERATORS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return GENERATORS[method](w, d, admit=admit)


class QueryPipeline:
    """Streaming evaluator: feed frames, collect match rows.

    Incremental (``feed`` one frame at a time), so the same object
    backs the Spark batch and stateful operators.
    """

    def __init__(
        self,
        queries: list[Query],
        *,
        w: int,
        d: int,
        method: str = "ssg",
        prune: bool = False,
    ) -> None:
        if prune and not all(q.is_geq_only() for q in queries):
            raise ValueError(
                "termination pruning (§5.3) requires a >=-only workload"
            )
        self.engine = CNFEvalE(queries)
        self.codec = ObjSetCodec()
        self.label_of: dict[int, str] = {}
        # One bitmask per label of ``engine.labels``: an object's codec
        # bit is set in its class's mask when the codec assigns the bit,
        # and cleared when the codec releases it.
        labels = self.engine.labels
        self._class_index = {label: i for i, label in enumerate(labels)}
        self._class_masks = [0] * len(labels)
        # count vector -> qids; mask -> (n, rows, qids, objset), the rows
        # of a result state at live count n; mask -> admitted
        self._counts_cache: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._match_cache: dict[int, tuple] = {}
        self._admit_cache: dict[int, bool] = {}
        self.stats = PipelineStats()
        admit = self._admit if prune else None
        self.gen = make_generator(method, w, d, admit=admit)
        self._last_fid: int | None = None

    # -- evaluation -----------------------------------------------------
    def _qids(self, mask: int) -> tuple[int, ...]:
        """Sorted qids satisfied by an object set: CNFEvalE runs once
        per distinct per-class count vector."""
        counts = tuple((mask & cm).bit_count() for cm in self._class_masks)
        qids = self._counts_cache.get(counts)
        if qids is None:
            self.stats.evaluations += 1
            hit = self.engine.evaluate(counts)
            qids = self._counts_cache[counts] = tuple(sorted(hit))
        return qids

    def _rows(self, mask: int, n: int, hit: tuple | None) -> tuple:
        """A result state's cache entry ``(n, rows, qids, objset)`` at live
        count ``n``; ``qids`` and ``objset`` come from ``hit``, its entry
        at another count, if there is one, and the object set is decoded
        only if it matches.  ``tuple.__new__`` builds each row without
        the namedtuple's Python-level ``__new__``."""
        if hit is None:
            qids = self._qids(mask)
            objset = self.codec.decode(mask) if qids else ()
        else:
            qids, objset = hit[2:]
        new_row = tuple.__new__
        return n, tuple(new_row(MatchRow, (qid, objset, n)) for qid in qids), qids, objset

    def _admit(self, mask: int) -> bool:
        """Termination test (§5.3): admit iff some query passes."""
        ok = self._admit_cache.get(mask)
        if ok is None:
            ok = self._admit_cache[mask] = bool(self._qids(mask))
            if not ok:
                self.stats.terminated += 1
        return ok

    def _forget(self, freed: int) -> None:
        """Drop what the released bits meant: their class-mask bits, and
        the cached answers and rows for masks holding them (a bit may
        next name another object)."""
        self._class_masks = [cm & ~freed for cm in self._class_masks]
        self._match_cache = {m: v for m, v in self._match_cache.items() if not m & freed}
        self._admit_cache = {m: v for m, v in self._admit_cache.items() if not m & freed}

    # -- streaming ------------------------------------------------------
    def feed(self, fid: int, objects: Iterable[tuple[int, str]]) -> list[MatchRow]:
        """Process one frame; return the query hits for its window.

        The whole frame is checked before any state changes, so a
        rejected frame leaves the pipeline as it was.
        """
        fid = int(fid)
        if self._last_fid is not None and fid <= self._last_fid:
            raise ValueError(
                f"frames must arrive in increasing fid order: {fid} after {self._last_fid}"
            )
        label_of = self.label_of
        codec = self.codec
        fresh: dict[int, str] = {}
        unassigned: dict[int, str] = {}
        keep = []
        for oid, label in objects:
            if label in self._class_index:
                oid = int(oid)
                prev = label_of.get(oid)
                if prev is None:
                    prev = fresh.setdefault(oid, label)
                if prev != label:
                    raise ValueError(
                        f"object {oid} seen with classes {prev!r} and {label!r}"
                    )
                if oid not in codec:
                    unassigned[oid] = label
                keep.append(oid)
        self._last_fid = fid
        label_of.update(fresh)
        for oid, label in unassigned.items():
            self._class_masks[self._class_index[label]] |= codec.encode_iter((oid,))
        freed = advance_frame(self.gen, codec, fid, keep)
        if freed:
            self._forget(freed)
        rows: list[MatchRow] = []
        sizes = self.gen.result_sizes()
        self.stats.result_states += len(sizes)
        cache = self._match_cache
        for smask, n in sizes.items():
            hit = cache.get(smask)
            if hit is None or hit[0] != n:
                hit = cache[smask] = self._rows(smask, n, hit)
            rows += hit[1]
        self.stats.matches += len(rows)
        return rows


def advance_frame(gen, codec: ObjSetCodec, fid: int, oids: Iterable[int]) -> int:
    """Encode one frame, advance the generator over it, then release the
    codec bits no stored state can hold any more; returns the freed
    mask.  The release must follow ``advance``, whose expiry it relies
    on (see :meth:`ObjSetCodec.release`)."""
    gen.advance(fid, codec.encode_iter(oids))
    return codec.release(fid, fid - gen.w + 1)
