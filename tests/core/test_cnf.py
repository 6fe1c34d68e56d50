"""CNFEvalE (inequality predicates) tests.

The engine is diffed against direct CNF evaluation over randomized
query sets and inputs, plus the paper's worked example (q2 / Tables
4-5 of §5.2).
"""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cnf import CNFEvalE
from repro.core.queries import (
    LABELS,
    Condition,
    Query,
    geq_only_queries,
    random_cnf_queries,
)


def evaluate(ev: CNFEvalE, counts: dict[str, int]) -> set[int]:
    """``ev.evaluate`` on ``counts`` laid out in ``ev.labels`` order; a
    label absent from ``counts`` counts 0, as in ``Query.holds``."""
    return ev.evaluate([counts.get(label, 0) for label in ev.labels])


# ----------------------------------------------------------------------
# paper worked example
# ----------------------------------------------------------------------
def test_paper_q2_inequality_query():
    """q2 = (car>=2 ∨ person<=3) ∧ (car>=3 ∨ person>=2) ∧ (car<=5) — §5.2."""
    q2 = Query(
        2,
        (
            (Condition("car", ">=", 2), Condition("person", "<=", 3)),
            (Condition("car", ">=", 3), Condition("person", ">=", 2)),
            (Condition("car", "<=", 5),),
        ),
    )
    ev = CNFEvalE([q2])
    assert ev.labels == ("car", "person")
    assert ev.evaluate((3, 0)) == {2}
    assert ev.evaluate((2, 2)) == {2}
    assert ev.evaluate((6, 2)) == set()  # car<=5 fails
    assert ev.evaluate((1, 4)) == set()  # first disj fails
    assert ev.evaluate((0, 2)) == {2}
    assert ev.evaluate((0, 5)) == set()


def test_duplicate_qid_rejected():
    q = Query(3, ((Condition("car", ">=", 1),),))
    with pytest.raises(ValueError, match="duplicate qid 3"):
        CNFEvalE([q, q])


def test_count_vector_length_checked():
    """A vector must give exactly one count per label: a short one would
    leave labels unevaluated, a long one would be read out of place."""
    q = Query(0, ((Condition("car", ">=", 1), Condition("person", "<=", 2)),))
    ev = CNFEvalE([q])
    assert ev.labels == ("car", "person")
    assert ev.evaluate((0, 2)) == {0}
    for counts in ((0,), (0, 2, 1), ()):
        with pytest.raises(ValueError):
            ev.evaluate(counts)


# ----------------------------------------------------------------------
# randomized differentials
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(10))
def test_cnfevale_random_differential(seed):
    """Each seed also runs with negative qids: a range lookup whose probe
    compares a posting's qid would skip postings of the probed value."""
    rng = random.Random(seed)
    queries = random_cnf_queries(25, seed=seed, n_hi=6)
    negative = [Query(-2 - q.qid, q.cnf) for q in queries]
    for qs in (queries, negative):
        ev = CNFEvalE(qs)
        for _ in range(60):
            counts = {label: rng.randint(0, 7) for label in ev.labels}
            assert evaluate(ev, counts) == {q.qid for q in qs if q.holds(counts)}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    counts=st.dictionaries(st.sampled_from(LABELS), st.integers(0, 9)),
)
def test_cnfevale_hypothesis(seed, counts):
    queries = random_cnf_queries(12, seed=seed, n_hi=8)
    ev = CNFEvalE(queries)
    assert evaluate(ev, counts) == {q.qid for q in queries if q.holds(counts)}


# ----------------------------------------------------------------------
# workload generators
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_min", range(1, 10))
def test_geq_only_workload_nmin(n_min):
    qs = geq_only_queries(100, n_min=n_min, seed=n_min)
    assert len(qs) == 100
    assert all(q.is_geq_only() for q in qs)
    thresholds = [c.n for q in qs for disj in q.cnf for c in disj]
    assert min(thresholds) == n_min


def test_random_cnf_workload_shapes():
    qs = random_cnf_queries(50, seed=1)
    assert len(qs) == 50 and len({q.qid for q in qs}) == 50
    assert any(not q.is_geq_only() for q in qs)
    for q in qs:
        assert 1 <= len(q.cnf) <= 3
        assert all(1 <= len(d) <= 2 for d in q.cnf)


def test_condition_validation():
    with pytest.raises(ValueError):
        Condition("car", "!", 1)
    with pytest.raises(ValueError):
        Condition("car", ">=", -1)
    with pytest.raises(ValueError):
        Query(0, ())
