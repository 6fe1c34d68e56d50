"""CNFEvalE: CNF evaluation via inverted indexes (paper §5.2).

The paper extends the set-membership index of Whang et al. [24]
(summarised in §5.1) to inequality conditions: three indexes keyed by
label for ``>=``, ``<=`` and ``==``, each key holding a value-ordered
posting list, scanned in order up to the input count.  A query is true
when every one of its disjunctions has a retrieved posting.

The indexes are built once, over a standing query set, and fix the
order of :attr:`CNFEvalE.labels`, the labels the queries name.  The
video pipeline feeds :meth:`CNFEvalE.evaluate` one count per label in
that order, so every label, absent classes included, is evaluated.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import Iterable, Sequence

from repro.core.queries import Query


class CNFEvalE:
    """Three value-ordered inverted indexes (>=, <=, ==) per label."""

    def __init__(self, queries: Iterable[Query]) -> None:
        # label -> (>= postings, <= postings, == map); a posting is
        # (n, qid, disj_id), an == entry n -> [(qid, disj_id), ...]
        by_label: dict[str, tuple[list, list, dict]] = {}
        self._n_disj: dict[int, int] = {}
        for q in queries:
            if q.qid in self._n_disj:
                raise ValueError(f"duplicate qid {q.qid}")
            self._n_disj[q.qid] = len(q.cnf)
            for disj_id, disj in enumerate(q.cnf):
                for cond in disj:
                    geq, leq, eq = by_label.setdefault(cond.label, ([], [], {}))
                    if cond.op == ">=":
                        geq.append((cond.n, q.qid, disj_id))
                    elif cond.op == "<=":
                        leq.append((cond.n, q.qid, disj_id))
                    else:
                        eq.setdefault(cond.n, []).append((q.qid, disj_id))
        self.labels = tuple(sorted(by_label))
        self._index = [by_label[label] for label in self.labels]
        for geq, leq, _ in self._index:
            geq.sort()
            leq.sort()

    def evaluate(self, counts: Sequence[int]) -> set[int]:
        """qids satisfied by ``counts``, one count per label of
        :attr:`labels`, in that order."""
        satisfied: set[tuple[int, int]] = set()
        for (geq, leq, eq), v in zip(self._index, counts, strict=True):
            # >= postings with n <= v and <= postings with n >= v; a
            # one-field probe sorts before every posting of its value
            for _, qid, disj_id in geq[: bisect_left(geq, (v + 1,))] + leq[bisect_left(leq, (v,)):]:
                satisfied.add((qid, disj_id))
            satisfied.update(eq.get(v, ()))
        counter = Counter(qid for qid, _ in satisfied)
        return {qid for qid, n in counter.items() if n == self._n_disj[qid]}
