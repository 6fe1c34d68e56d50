"""CNFEvalE: CNF evaluation via inverted indexes (paper §5.2).

The paper extends the set-membership index of Whang et al. [24]
(summarised in §5.1) to inequality conditions: three indexes keyed by
label for ``>=``, ``<=`` and ``==``, each key holding a value-ordered
posting list, scanned in order up to the input count.  A query is true
when every one of its disjunctions has a retrieved posting.

The video pipeline feeds :class:`CNFEvalE` the per-class object counts
of each MCOS, zero-filled over the query label universe
(:func:`repro.core.queries.query_labels`), so ``<= n`` and ``== 0``
conditions see absent classes correctly.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import Iterable

from repro.core.queries import Query


class CNFEvalE:
    """Three value-ordered inverted indexes (>=, <=, ==) per label."""

    def __init__(self, queries: Iterable[Query] = ()) -> None:
        # label -> sorted list of (n, qid, disj_id); ascending for >=
        # (scan postings with n <= v), descending handled via bisect on
        # the ascending list for <= (scan postings with n >= v).
        self._geq: dict[str, list[tuple[int, int, int]]] = defaultdict(list)
        self._leq: dict[str, list[tuple[int, int, int]]] = defaultdict(list)
        self._eq: dict[tuple[str, int], list[tuple[int, int]]] = defaultdict(list)
        self._n_disj: dict[int, int] = {}
        for q in queries:
            self.add(q)

    def add(self, q: Query) -> None:
        if q.qid in self._n_disj:
            raise ValueError(f"duplicate qid {q.qid}")
        self._n_disj[q.qid] = len(q.cnf)
        for disj_id, disj in enumerate(q.cnf):
            for cond in disj:
                if cond.op == ">=":
                    self._geq[cond.label].append((cond.n, q.qid, disj_id))
                elif cond.op == "<=":
                    self._leq[cond.label].append((cond.n, q.qid, disj_id))
                else:
                    self._eq[(cond.label, cond.n)].append((q.qid, disj_id))
        for lst in self._geq.values():
            lst.sort()
        for lst in self._leq.values():
            lst.sort()

    def evaluate(self, counts: dict[str, int]) -> set[int]:
        """qids satisfied by per-label counts.

        ``counts`` must cover every label the queries name (zero for
        absent classes): a label missing from ``counts`` satisfies none
        of its conditions, not even ``<= n``.  The pipeline zero-fills
        over ``query_labels``.
        """
        satisfied: set[tuple[int, int]] = set()
        for label, v in counts.items():
            geq = self._geq.get(label)
            if geq:
                # postings with n <= v, scanned in ascending value order;
                # a one-field probe sorts before every posting of its value
                hi = bisect_left(geq, (v + 1,))
                for n, qid, disj_id in geq[:hi]:
                    satisfied.add((qid, disj_id))
            leq = self._leq.get(label)
            if leq:
                # postings with n >= v
                lo = bisect_left(leq, (v,))
                for n, qid, disj_id in leq[lo:]:
                    satisfied.add((qid, disj_id))
            for qid, disj_id in self._eq.get((label, v), ()):
                satisfied.add((qid, disj_id))
        counter: dict[int, int] = defaultdict(int)
        for qid, _disj in satisfied:
            counter[qid] += 1
        return {qid for qid, n in counter.items() if n == self._n_disj[qid]}
