"""CNF query model and random workload generators (paper §2, §6.3).

A query is a conjunction of disjunctions of *conditions* ``label θ n``
with ``θ ∈ {<=, ==, >=}`` — count predicates over the class labels of
an MCOS.  Workload generators mirror the paper's experiments: mixed
CNF workloads for Figure 8 and 100 ``>=``-only queries with a
controlled minimum threshold ``n_min`` for Figure 9.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

LABELS = ("person", "car", "truck", "bus")

OPS = ("<=", "==", ">=")


@dataclass(frozen=True)
class Condition:
    """One atom ``label op n``: the count of ``label`` objects vs ``n``."""

    label: str
    op: str
    n: int

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"op must be one of {OPS}, got {self.op!r}")
        if self.n < 0:
            raise ValueError(f"threshold must be non-negative, got {self.n}")

    def holds(self, count: int) -> bool:
        if self.op == ">=":
            return count >= self.n
        if self.op == "<=":
            return count <= self.n
        return count == self.n


@dataclass(frozen=True)
class Query:
    """CNF: every inner tuple (disjunction) must have a true condition."""

    qid: int
    cnf: tuple[tuple[Condition, ...], ...]

    def __post_init__(self) -> None:
        if not self.cnf or any(not disj for disj in self.cnf):
            raise ValueError("CNF must contain at least one non-empty disjunction")

    def holds(self, counts: dict[str, int]) -> bool:
        """Reference evaluation, no index — oracle for CNFEvalE."""
        return all(
            any(c.holds(counts.get(c.label, 0)) for c in disj) for disj in self.cnf
        )

    def is_geq_only(self) -> bool:
        """Eligible for the §5.3 termination pruning (Proposition 1)."""
        return all(c.op == ">=" for disj in self.cnf for c in disj)


def random_cnf_queries(
    n_queries: int,
    *,
    labels: tuple[str, ...] = LABELS,
    n_lo: int = 1,
    n_hi: int = 4,
    seed: int = 0,
) -> list[Query]:
    """Mixed CNF workload (Figure 8: 10..50 queries)."""
    rng = random.Random(seed)
    queries = []
    for qid in range(n_queries):
        cnf = tuple(
            tuple(
                Condition(rng.choice(labels), rng.choice(OPS), rng.randint(n_lo, n_hi))
                for _ in range(rng.randint(1, 2))
            )
            for _ in range(rng.randint(1, 3))
        )
        queries.append(Query(qid, cnf))
    return queries


def geq_only_queries(
    n_queries: int = 100,
    *,
    n_min: int = 1,
    labels: tuple[str, ...] = LABELS,
    seed: int = 0,
) -> list[Query]:
    """100 ``>=``-only queries whose minimum threshold is exactly
    ``n_min`` (Figure 9 sweeps n_min from 1 to 9)."""
    rng = random.Random(seed)
    queries = []
    for qid in range(n_queries):
        cnf = tuple(
            tuple(
                Condition(rng.choice(labels), ">=", rng.randint(n_min, n_min + 2))
                for _ in range(rng.randint(1, 2))
            )
            for _ in range(rng.randint(1, 2))
        )
        queries.append(Query(qid, cnf))
    # Pin the global minimum to exactly n_min on the first query.
    q0 = queries[0]
    first = q0.cnf[0]
    pinned = (Condition(first[0].label, ">=", n_min),) + first[1:]
    queries[0] = Query(q0.qid, (pinned,) + q0.cnf[1:])
    return queries
