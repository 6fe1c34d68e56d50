"""Experiment-harness tests at tiny scale (REPRO_BENCH_SCALE)."""
from __future__ import annotations

import csv
import inspect
import math

import pytest

from repro import bench
from repro.core.queries import geq_only_queries, random_cnf_queries
from repro.videogen.datasets import make_vr


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
    # the stream caches key on n_frames, which scales with the env var,
    # so no cross-test pollution — but clear anyway for hygiene.
    bench.labeled_stream.cache_clear()
    yield
    bench.labeled_stream.cache_clear()


def test_scaled_w_d_preserves_ratio():
    w, d = bench.scaled_w_d(300, 240)
    assert 0 < d <= w
    assert abs(d / w - 0.8) < 0.25


def test_labeled_stream_covers_every_frame():
    stream = bench.labeled_stream("V1")
    n = bench.dataset_frames("V1")
    assert [fid for fid, _ in stream] == list(range(n))


def test_run_mcos_methods_agree_on_result_counts():
    stream = bench.labeled_stream("V2")
    w, d = bench.scaled_w_d()
    runs = {m: bench.run_mcos(stream, m, w, d) for m in ("naive", "mfs", "ssg")}
    assert len({r["results"] for r in runs.values()}) == 1
    # one row shape for every method, so the figure CSVs keep their columns
    columns = ["seconds", "results", "peak_states", "visits", "derived", "repeated",
               "expired", "refiled", "edges", "reparented"]
    assert all(list(r) == columns for r in runs.values())
    # forest counters: zero for the scan methods, counted for SSG
    assert runs["naive"]["edges"] == runs["mfs"]["reparented"] == 0
    assert runs["ssg"]["edges"] > 0


def test_run_query_eval_prune_consistency():
    stream = bench.labeled_stream("D2")
    w, d = bench.scaled_w_d()
    queries = geq_only_queries(10, n_min=1, seed=1)
    plain = bench.run_query_eval(stream, queries, "ssg", w, d, prune=False)
    pruned = bench.run_query_eval(stream, queries, "ssg", w, d, prune=True)
    assert plain["matches"] == pruned["matches"]


def run_points(name: str, **where) -> list[dict]:
    """Rows of the artifact's grid points whose values are in ``where``,
    each measured once."""
    art = bench.ARTIFACTS[name]
    return [
        {**p, **bench.measure(art, p)}
        for p in art.grid()
        if all(p[k] in v for k, v in where.items())
    ]


def test_run_query_eval_counts_evaluations():
    """One CNFEvalE call per distinct count vector: far fewer calls than
    result states, and the count reaches the figure rows."""
    stream = bench.labeled_stream("D2")
    w, d = bench.scaled_w_d()
    queries = geq_only_queries(10, n_min=1, seed=1)
    r = bench.run_query_eval(stream, queries, "mfs", w, d, prune=True)
    assert 0 < r["evaluations"] < r["matches"]
    rows = run_points("fig8", dataset=("V1",), n_queries=(10,), method=("mfs",))
    assert rows[0]["evaluations"] > 0


def test_fig_row_functions_produce_expected_grids():
    rows4 = run_points("fig4", dataset=("V2",), method=("mfs",))
    assert len(rows4) == 4 and all(r["method"] == "mfs" for r in rows4)
    assert rows4[-1]["frames"] == bench.dataset_frames("V2")
    rows5 = run_points("fig5", dataset=("V2",), d=(240,), method=("naive", "ssg"))
    assert {r["method"] for r in rows5} == {"naive", "ssg"}
    rows7 = run_points("fig7", dataset=("M1",), p_o=(0, 2), method=("mfs",))
    assert [r["p_o"] for r in rows7] == [0, 2]
    rows8 = run_points("fig8", dataset=("M2",), n_queries=(10,), method=("ssg",))
    assert rows8[0]["n_queries"] == 10
    rows9 = run_points("fig9", dataset=("M1",), n_min=(3,), method=("mfs_e", "mfs_o"))
    assert {r["method"] for r in rows9} == {"mfs_e", "mfs_o"}
    assert len({r["matches"] for r in rows9}) == 1  # _e == _o results


def test_fig9_pruning_reduces_peak_states_at_high_nmin():
    rows = run_points("fig9", dataset=("D1",), n_min=(9,), method=("ssg_e", "ssg_o"))
    by = {r["method"]: r for r in rows}
    assert by["ssg_o"]["peak_states"] < by["ssg_e"]["peak_states"]
    assert by["ssg_o"]["terminated"] > 0


def test_table6_rows_shape():
    rows = bench.rows("table6")
    assert [r["dataset"] for r in rows] == list(bench.DATASET_ORDER)
    assert all(r["objects"] > 0 for r in rows)


def test_fig10_rows_include_tracking_time():
    rows = run_points("fig10", dataset=("V2",), method=("mfs",))
    assert rows[0]["track_seconds"] > 0
    assert rows[0]["sec_per_query"] > 0
    assert rows[0]["evaluations"] > 0


# (dataset, swept parameter, method) sizes of the paper's grids
GRID_AXES = {
    "table6": (6,),
    "fig4": (6, 4, 3),
    "fig5": (6, 4, 3),
    "fig6": (6, 4, 3),
    "fig7": (6, 4, 3),
    "fig8": (2, 5, 3),
    "fig9": (4, 5, 5),
    "fig10": (6, 3),
}


def test_registry_lists_every_artifact():
    assert list(bench.ARTIFACTS) == list(GRID_AXES)


@pytest.mark.parametrize("name", GRID_AXES)
def test_artifact_grid_row_and_csv(name, tmp_path, monkeypatch):
    """The grid is the product of its axes, distinct points with the
    artifact's leading columns; the printed columns are row keys; the
    CSV round-trips."""
    art = bench.ARTIFACTS[name]
    grid = art.grid()
    assert len(grid) == math.prod(GRID_AXES[name])
    assert len({tuple(p.items()) for p in grid}) == len(grid)
    assert all(list(p) == list(art.columns[: len(p)]) for p in grid)
    rows = [{**p, **art.run(**p)} for p in grid[:2]]
    assert set(art.columns) <= set(rows[0])
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    path = bench.save_csv(rows, art.csv)
    assert path == str(tmp_path / art.csv)
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert back == [{k: str(v) for k, v in r.items()} for r in rows]


def test_rows_scale_times_to_nominal_host_speed(monkeypatch):
    """Probes at twice the nominal time mean a host half as fast: the
    row's seconds halve, its counts stay, and the probe is kept."""
    slow = 2 * bench.NOMINAL_PROBE_NS
    monkeypatch.setattr(bench, "probe", lambda: slow)
    art = bench.Artifact(
        "stub", "stub.csv", ("x",), lambda: [{"x": 1}], lambda x: {"seconds": 1.0, "results": 7}
    )
    monkeypatch.setitem(bench.ARTIFACTS, "stub", art)
    assert bench.rows("stub") == [
        {"x": 1, "seconds": 0.5, "results": 7, "probe_ns": slow, "spread": 0.0}
    ]


def test_rows_carry_spread_of_repeats(monkeypatch):
    """A timed row keeps its fastest run and carries (slowest - fastest)
    / fastest of its runs' seconds.  The runs interleave over the grid:
    point 1 takes 1.0, 1.5 and 1.25 s, point 2 takes 4.0, 2.0 and 2.5 s."""
    monkeypatch.setattr(bench, "probe", lambda: bench.NOMINAL_PROBE_NS)
    monkeypatch.setattr(bench, "REPEATS", 3)
    times = iter([1.0, 4.0, 1.5, 2.0, 1.25, 2.5])
    art = bench.Artifact(
        "stub", "stub.csv", ("x",), lambda: [{"x": 1}, {"x": 2}],
        lambda x: {"seconds": next(times), "results": 7},
    )
    monkeypatch.setitem(bench.ARTIFACTS, "stub", art)
    nominal = bench.NOMINAL_PROBE_NS
    assert bench.rows("stub") == [
        {"x": 1, "seconds": 1.0, "results": 7, "probe_ns": nominal, "spread": 0.5},
        {"x": 2, "seconds": 2.0, "results": 7, "probe_ns": nominal, "spread": 1.0},
    ]


def test_rows_without_times_carry_no_probe(monkeypatch):
    """A row of counts only (Table 6) is kept as measured, so the
    artifact repeats byte for byte between runs."""
    art = bench.Artifact("stub", "stub.csv", ("x",), lambda: [{"x": 1}], lambda x: {"results": 7})
    monkeypatch.setitem(bench.ARTIFACTS, "stub", art)
    assert bench.rows("stub") == [{"x": 1, "results": 7}]


def test_run_mcos_counts_repeated_frames():
    """V1's objects dwell: many frames repeat the previous object set,
    and each one is served without visits."""
    stream = bench.labeled_stream("V1")
    w, d = bench.scaled_w_d()
    runs = {m: bench.run_mcos(stream, m, w, d) for m in ("naive", "mfs", "ssg")}
    repeats, last = 0, (-w, None)  # previous non-empty frame
    for fid, objs in stream:
        if objs:
            oids = {oid for oid, _ in objs}
            repeats += oids == last[1] and last[0] > fid - w
            last = (fid, oids)
    assert {r["repeated"] for r in runs.values()} == {repeats} and repeats > 0


def test_run_mcos_counts_derived_frames():
    """M1's objects come and go: beyond the repeats, many frames only
    lose objects, or gain ones no stored state holds, and each is
    derived from the previous frame's groups.  Every method derives the
    same frames, and they include the repeats."""
    stream = bench.labeled_stream("M1")
    w, d = bench.scaled_w_d()
    runs = {m: bench.run_mcos(stream, m, w, d) for m in ("naive", "mfs", "ssg")}
    assert len({(r["derived"], r["repeated"]) for r in runs.values()}) == 1
    r = runs["mfs"]
    assert r["derived"] > r["repeated"] and r["derived"] > 0


def test_fig10_rows_share_one_tracking_time_per_dataset(monkeypatch):
    """The substrate build does not depend on the method, so it is
    timed once per dataset and every row of that dataset carries the
    same tracking time; seconds per query add it to the row's own
    evaluation time."""
    art = bench.ARTIFACTS["fig10"]
    grid = [{"dataset": name, "method": m} for name in ("V2", "M1") for m in bench.METHODS]
    monkeypatch.setitem(bench.ARTIFACTS, "fig10", bench.Artifact(
        art.title, art.csv, art.columns, lambda: grid, art.run, art.finish
    ))
    rows = bench.rows("fig10")
    assert [(r["dataset"], r["method"]) for r in rows] == [tuple(p.values()) for p in grid]
    for name in ("V2", "M1"):
        tracks = {r["track_seconds"] for r in rows if r["dataset"] == name}
        assert len(tracks) == 1 and tracks.pop() > 0
    for r in rows:
        total = (r["track_seconds"] + r["eval_seconds"]) / bench.FIG10_QUERIES
        assert r["sec_per_query"] == pytest.approx(total)
    assert list(rows[0]) == [*art.columns, "probe_ns", "spread"]


def test_substrate_seconds_times_uncached_builds(monkeypatch):
    """The tracking time comes from ``REPEATS`` fresh builds even when
    ``build_vr`` already holds the VR; the cache's key stays inside
    ``datasets``."""
    bench.build_vr("V2", n_frames=30)
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return make_vr(*args, **kwargs)

    monkeypatch.setattr(bench, "make_vr", counted)
    assert bench.substrate_seconds.__wrapped__("V2", 30) > 0
    assert calls == [(("V2",), {"n_frames": 30})] * bench.REPEATS
    assert "_VR_CACHE" not in inspect.getsource(bench)


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
