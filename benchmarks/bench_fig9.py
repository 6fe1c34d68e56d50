"""Figure 9 — varying n_min over 100 >=-only queries.

Methods: NAIVE_E / MFS_E / SSG_E (CNFEvalE on the Result State Set)
and MFS_O / SSG_O (plus §5.3 termination pruning).  The paper's
headline: at large n_min the _O variants are >100x faster.
"""
import pytest

from repro.bench import FIG9_METHODS, labeled_stream, run_query_eval, scaled_w_d
from repro.core.queries import geq_only_queries

N_MINS = (1, 3, 5, 7, 9)
DATASETS = ("D1", "D2", "M1", "M2")


@pytest.mark.parametrize("method", FIG9_METHODS)
@pytest.mark.parametrize("n_min", N_MINS)
@pytest.mark.parametrize("name", DATASETS)
def test_fig9(benchmark, name, n_min, method):
    w, d = scaled_w_d()
    stream = labeled_stream(name)
    queries = geq_only_queries(100, n_min=n_min, seed=n_min)
    base, _, suffix = method.partition("_")
    res = benchmark.pedantic(
        lambda: run_query_eval(stream, queries, base, w, d, prune=(suffix == "o")),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(
        {
            "matches": res["matches"],
            "peak_states": res["peak_states"],
            "terminated": res["terminated"],
            "evaluations": res["evaluations"],
        }
    )
