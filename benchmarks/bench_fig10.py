"""Figure 10 — end-to-end average time per query (50 queries).

Includes the detection + tracking substrate time, as in the paper.
"""
import time

import pytest

from repro.bench import DATASET_ORDER, dataset_frames, labeled_stream, run_query_eval, scaled_w_d
from repro.core.queries import random_cnf_queries
from repro.videogen.datasets import build_vr

METHODS = ("naive", "mfs", "ssg")
N_QUERIES = 50


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", DATASET_ORDER)
def test_fig10(benchmark, name, method):
    w, d = scaled_w_d()
    n = dataset_frames(name)
    queries = random_cnf_queries(N_QUERIES, seed=0)

    def run():
        t0 = time.perf_counter()
        build_vr(name, n_frames=n)  # detection + tracking (cached after 1st)
        track = time.perf_counter() - t0
        stream = labeled_stream(name, 0, n)
        r = run_query_eval(stream, queries, method, w, d)
        return {"sec_per_query": (track + r["seconds"]) / N_QUERIES, **r}

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {
            "sec_per_query": res["sec_per_query"],
            "matches": res["matches"],
            "evaluations": res["evaluations"],
        }
    )
