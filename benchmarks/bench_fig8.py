"""Figure 8 — MCOS generation + query evaluation vs number of queries."""
import pytest

from repro.bench import labeled_stream, run_query_eval, scaled_w_d
from repro.core.queries import random_cnf_queries

N_QUERIES = (10, 20, 30, 40, 50)
METHODS = ("naive", "mfs", "ssg")
DATASETS = ("V1", "M2")  # one static-, one moving-camera panel


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("nq", N_QUERIES)
@pytest.mark.parametrize("name", DATASETS)
def test_fig8(benchmark, name, nq, method):
    w, d = scaled_w_d()
    stream = labeled_stream(name)
    queries = random_cnf_queries(nq, seed=nq)
    res = benchmark.pedantic(
        lambda: run_query_eval(stream, queries, method, w, d), rounds=1, iterations=1
    )
    benchmark.extra_info.update({"matches": res["matches"], "evaluations": res["evaluations"]})
