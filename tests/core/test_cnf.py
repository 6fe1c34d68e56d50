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
    query_labels,
    random_cnf_queries,
)


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
    assert ev.evaluate({"car": 3, "person": 0}) == {2}
    assert ev.evaluate({"car": 2, "person": 2}) == {2}
    assert ev.evaluate({"car": 6, "person": 2}) == set()  # car<=5 fails
    assert ev.evaluate({"car": 1, "person": 4}) == set()  # first disj fails
    assert ev.evaluate({"car": 0, "person": 2}) == {2}
    assert ev.evaluate({"car": 0, "person": 5}) == set()


def test_duplicate_qid_rejected():
    q = Query(3, ((Condition("car", ">=", 1),),))
    ev = CNFEvalE([q])
    with pytest.raises(ValueError):
        ev.add(q)


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
    labels = query_labels(queries)
    for qs in (queries, negative):
        ev = CNFEvalE(qs)
        for _ in range(60):
            counts = {label: rng.randint(0, 7) for label in labels}
            assert ev.evaluate(counts) == {q.qid for q in qs if q.holds(counts)}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    counts=st.dictionaries(st.sampled_from(LABELS), st.integers(0, 9)),
)
def test_cnfevale_hypothesis(seed, counts):
    queries = random_cnf_queries(12, seed=seed, n_hi=8)
    full = {label: counts.get(label, 0) for label in query_labels(queries)}
    ev = CNFEvalE(queries)
    assert ev.evaluate(full) == {q.qid for q in queries if q.holds(full)}


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
