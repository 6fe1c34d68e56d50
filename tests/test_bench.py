"""Experiment-harness tests at tiny scale (REPRO_BENCH_SCALE)."""
from __future__ import annotations

import pytest

from repro import bench
from repro.core.queries import geq_only_queries, random_cnf_queries


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
    # the stream caches key on n_frames, which scales with the env var,
    # so no cross-test pollution — but clear anyway for hygiene.
    bench.object_stream.cache_clear()
    bench.labeled_stream.cache_clear()
    yield
    bench.object_stream.cache_clear()
    bench.labeled_stream.cache_clear()


def test_scaled_w_d_preserves_ratio():
    w, d = bench.scaled_w_d(300, 240)
    assert 0 < d <= w
    assert abs(d / w - 0.8) < 0.25


def test_object_stream_covers_every_frame():
    stream = bench.object_stream("V1")
    n = bench.dataset_frames("V1")
    assert [fid for fid, _ in stream] == list(range(n))


def test_labeled_stream_consistent_with_object_stream():
    objs = bench.object_stream("D1")
    labeled = bench.labeled_stream("D1")
    for (f1, oids), (f2, pairs) in zip(objs, labeled):
        assert f1 == f2
        assert tuple(o for o, _ in pairs) == oids


def test_run_mcos_methods_agree_on_result_counts():
    stream = bench.object_stream("V2")
    w, d = bench.scaled_w_d()
    counts = {
        m: bench.run_mcos(stream, m, w, d)["results"]
        for m in ("naive", "mfs", "ssg")
    }
    assert len(set(counts.values())) == 1


def test_run_query_eval_prune_consistency():
    stream = bench.labeled_stream("D2")
    w, d = bench.scaled_w_d()
    queries = geq_only_queries(10, n_min=1, seed=1)
    plain = bench.run_query_eval(stream, queries, "ssg", w, d, prune=False)
    pruned = bench.run_query_eval(stream, queries, "ssg", w, d, prune=True)
    assert plain["matches"] == pruned["matches"]


def test_run_query_eval_counts_evaluations():
    """One CNFEvalE call per distinct count vector: far fewer calls than
    result states, and the count reaches the figure rows."""
    stream = bench.labeled_stream("D2")
    w, d = bench.scaled_w_d()
    queries = geq_only_queries(10, n_min=1, seed=1)
    r = bench.run_query_eval(stream, queries, "mfs", w, d, prune=True)
    assert 0 < r["evaluations"] < r["matches"]
    rows = bench.fig8_rows(datasets=("V2",), n_queries=(5,), methods=("mfs",))
    assert rows[0]["evaluations"] > 0


def test_fig_row_functions_produce_expected_grids():
    rows4 = bench.fig4_rows(datasets=("V2",), fractions=(0.5, 1.0), methods=("mfs",))
    assert len(rows4) == 2 and all(r["method"] == "mfs" for r in rows4)
    rows5 = bench.fig5_rows(datasets=("V2",), durations=(240,), methods=("naive", "ssg"))
    assert {r["method"] for r in rows5} == {"naive", "ssg"}
    rows7 = bench.fig7_rows(datasets=("M1",), p_os=(0, 2), methods=("mfs",))
    assert [r["p_o"] for r in rows7] == [0, 2]
    rows8 = bench.fig8_rows(datasets=("M2",), n_queries=(5,), methods=("ssg",))
    assert rows8[0]["n_queries"] == 5
    rows9 = bench.fig9_rows(datasets=("M1",), n_mins=(2,), methods=("mfs_e", "mfs_o"))
    assert {r["method"] for r in rows9} == {"mfs_e", "mfs_o"}
    assert len({r["matches"] for r in rows9}) == 1  # _e == _o results


def test_fig9_pruning_reduces_peak_states_at_high_nmin():
    rows = bench.fig9_rows(datasets=("D1",), n_mins=(9,), methods=("ssg_e", "ssg_o"))
    by = {r["method"]: r for r in rows}
    assert by["ssg_o"]["peak_states"] < by["ssg_e"]["peak_states"]
    assert by["ssg_o"]["terminated"] > 0


def test_table6_rows_shape():
    rows = bench.table6_rows()
    assert [r["dataset"] for r in rows] == list(bench.DATASET_ORDER)
    assert all(r["objects"] > 0 for r in rows)


def test_fig10_rows_include_tracking_time():
    rows = bench.fig10_rows(datasets=("V2",), methods=("mfs",))
    assert rows[0]["track_seconds"] > 0
    assert rows[0]["sec_per_query"] > 0
    assert rows[0]["evaluations"] > 0


def test_format_rows_aligned():
    txt = bench.format_rows(
        [{"a": 1, "b": 0.5}, {"a": 22, "b": 0.25}], ["a", "b"]
    )
    lines = txt.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")
    assert len(set(len(li) for li in lines)) <= 2  # aligned widths


def test_random_workloads_deterministic():
    assert random_cnf_queries(5, seed=9) == random_cnf_queries(5, seed=9)
    assert geq_only_queries(5, n_min=2, seed=9) == geq_only_queries(5, n_min=2, seed=9)
