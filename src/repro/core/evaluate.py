"""Coupling MCOS generation with CNF evaluation (paper §5.2–§5.3).

The pipeline drives one generator (NAIVE / MFS / SSG) over a
``(fid, [(oid, label), ...])`` frame stream:

1. objects whose class no query asks about are dropped on entry (§3);
2. every frame, the generator's Result State Set is aggregated per
   class label and fed to :class:`~repro.core.cnf.CNFEvalE`;
3. a frame set is emitted for every ``(state, query)`` pair evaluated
   TRUE.

With ``prune=True`` and a ``>=``-only workload the §5.3 termination
strategy is enabled (the ``_O`` variants): each newly generated object
set is evaluated immediately, and if every query fails it is
*terminated* — never admitted to the state store.  Proposition 1 makes
this safe: ``>=`` counts are monotone in the object set, so every
subset fails too.  For workloads containing ``<=`` or ``==`` the flag
is rejected, mirroring the paper's eligibility test.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.cnf import CNFEvalE
from repro.core.mfs import MFSGenerator
from repro.core.model import ObjSetCodec, iter_frames
from repro.core.naive import NaiveGenerator
from repro.core.queries import Query, query_labels
from repro.core.ssg import SSGGenerator

GENERATORS = {"naive": NaiveGenerator, "mfs": MFSGenerator, "ssg": SSGGenerator}
METHODS = tuple(GENERATORS)


@dataclass(frozen=True)
class MatchRow:
    """One query hit: state's MCOS satisfied query ``qid`` at ``fid``."""

    fid: int
    qid: int
    objset: tuple[int, ...]
    n_frames: int


@dataclass
class PipelineStats:
    frames: int = 0
    result_states: int = 0
    matches: int = 0
    terminated: int = 0


def make_generator(method: str, w: int, d: int, admit=None):
    """Factory for the three MCOS generators."""
    if method not in GENERATORS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return GENERATORS[method](w, d, admit=admit)


class QueryPipeline:
    """Streaming evaluator: feed frames, collect match rows.

    Incremental (``feed`` one frame at a time) so it can back the
    Spark stateful operators; :func:`evaluate_stream` wraps it for
    batch use.
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
        self.queries = queries
        self.labels = query_labels(queries)
        self.engine = CNFEvalE(queries)
        self.codec = ObjSetCodec()
        self.label_of: dict[int, str] = {}
        self.prune = prune
        self._counts_cache: dict[int, dict[str, int]] = {}
        self._match_cache: dict[int, tuple[int, ...]] = {}
        self._admit_cache: dict[int, bool] = {}
        self.stats = PipelineStats()
        admit = self._admit if prune else None
        self.gen = make_generator(method, w, d, admit=admit)
        self._last_fid: int | None = None

    # -- aggregation ----------------------------------------------------
    def _counts(self, mask: int) -> dict[str, int]:
        cached = self._counts_cache.get(mask)
        if cached is None:
            counts = {label: 0 for label in self.labels}
            for oid in self.codec.decode(mask):
                counts[self.label_of[oid]] += 1
            cached = self._counts_cache[mask] = counts
        return cached

    def _matched_qids(self, mask: int) -> tuple[int, ...]:
        cached = self._match_cache.get(mask)
        if cached is None:
            cached = self._match_cache[mask] = tuple(
                sorted(self.engine.evaluate(self._counts(mask)))
            )
        return cached

    def _admit(self, mask: int) -> bool:
        """Termination test (§5.3): admit iff some query passes."""
        ok = self._admit_cache.get(mask)
        if ok is None:
            ok = self._admit_cache[mask] = bool(self._matched_qids(mask))
            if not ok:
                self.stats.terminated += 1
        return ok

    # -- streaming ------------------------------------------------------
    def feed(self, fid: int, objects: Iterable[tuple[int, str]]) -> list[MatchRow]:
        """Process one frame; return the query hits for its window."""
        fid = int(fid)
        if self._last_fid is not None and fid <= self._last_fid:
            raise ValueError(
                f"frames must arrive in increasing fid order: {fid} after {self._last_fid}"
            )
        self._last_fid = fid
        keep = []
        for oid, label in objects:
            if label in self.labels:
                prev = self.label_of.setdefault(int(oid), label)
                if prev != label:
                    raise ValueError(
                        f"object {oid} seen with classes {prev!r} and {label!r}"
                    )
                keep.append(int(oid))
        mask = self.codec.encode_iter(keep)
        self.gen.advance(fid, mask)
        rows: list[MatchRow] = []
        results = self.gen.results()
        self.stats.frames += 1
        self.stats.result_states += len(results)
        for smask, frames in results.items():
            qids = self._matched_qids(smask)
            if qids:
                objset = self.codec.decode(smask)
                for qid in qids:
                    rows.append(MatchRow(fid, qid, objset, len(frames)))
        self.stats.matches += len(rows)
        return rows


def evaluate_stream(
    frames: Iterable[tuple[int, Iterable[tuple[int, str]]]],
    queries: list[Query],
    *,
    w: int,
    d: int,
    method: str = "ssg",
    prune: bool = False,
) -> list[MatchRow]:
    """Batch wrapper: run the whole stream, return all match rows."""
    pipe = QueryPipeline(queries, w=w, d=d, method=method, prune=prune)
    out: list[MatchRow] = []
    for fid, objects in frames:
        out.extend(pipe.feed(fid, objects))
    return out


def mcos_stream(
    frames: Iterable[tuple[int, Iterable[int]]],
    *,
    w: int,
    d: int,
    method: str = "ssg",
) -> Iterator[tuple[int, dict[tuple[int, ...], list[int]]]]:
    """Query-less MCOS generation (Section 6.2 experiments): yields the
    satisfied Result State Set per frame, decoded to oid tuples."""
    codec = ObjSetCodec()
    gen = make_generator(method, w, d)
    for fid, oids in iter_frames(frames):
        gen.advance(fid, codec.encode_iter(oids))
        yield fid, {codec.decode(m): fr for m, fr in gen.results().items()}
