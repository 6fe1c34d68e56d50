"""Experiment harness reproducing the paper's evaluation (Section 6).

One function per evaluation artifact (Table 6, Figures 4-10) returning
the table of numbers the paper plots: rows of
``(dataset, method, parameter, seconds, ...)``.  Both ``jobs/*.py``
(spark-submit entrypoints, full scale) and ``benchmarks/bench_*.py``
(pytest-benchmark) drive these.

``REPRO_BENCH_SCALE`` (env, float, default 1.0) scales frame counts
for quick runs; the paper's parameter defaults (w=300, d=240 — 8 s of
presence in a 10 s window at 30 fps) are used throughout and scaled
alongside so the duration-to-window ratio is preserved.
"""
from __future__ import annotations

import os
import time
from functools import lru_cache

from repro.core.evaluate import QueryPipeline, make_generator
from repro.core.model import ObjSetCodec
from repro.core.queries import Query, geq_only_queries, random_cnf_queries
from repro.videogen.datasets import DATASETS, build_vr, vr_stats

DATASET_ORDER = ("V1", "V2", "D1", "D2", "M1", "M2")

DEFAULT_W = 300
DEFAULT_D = 240


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(n: int) -> int:
    return max(20, int(n * bench_scale()))


def dataset_frames(name: str) -> int:
    return scaled(DATASETS[name].scene.n_frames)


def scaled_w_d(w: int = DEFAULT_W, d: int = DEFAULT_D) -> tuple[int, int]:
    s = bench_scale()
    if s >= 1.0:
        return w, d
    return max(10, int(w * s)), max(5, int(d * s))


@lru_cache(maxsize=64)
def object_stream(name: str, p_o: int = 0, n_frames: int | None = None):
    """``[(fid, (oid, ...)), ...]`` for a dataset profile (cached)."""
    n = n_frames if n_frames is not None else dataset_frames(name)
    vr = build_vr(name, p_o=p_o, n_frames=n)
    by_fid = vr.groupby("fid")["oid"].apply(tuple)
    return tuple((fid, tuple(by_fid.get(fid, ()))) for fid in range(n))


@lru_cache(maxsize=64)
def labeled_stream(name: str, p_o: int = 0, n_frames: int | None = None):
    """``[(fid, ((oid, cls), ...)), ...]`` for query-evaluation runs."""
    n = n_frames if n_frames is not None else dataset_frames(name)
    vr = build_vr(name, p_o=p_o, n_frames=n)
    by_fid = {
        fid: tuple(zip(g["oid"].astype(int), g["cls"]))
        for fid, g in vr.groupby("fid")
    }
    return tuple((fid, by_fid.get(fid, ())) for fid in range(n))


# ----------------------------------------------------------------------
# timed kernels
# ----------------------------------------------------------------------
def run_mcos(stream, method: str, w: int, d: int) -> dict:
    """Time MCOS generation alone (Section 6.2): per-frame advance +
    Result State Set production, as the paper measures."""
    codec = ObjSetCodec()
    gen = make_generator(method, w, d)
    n_results = 0
    peak = 0
    t0 = time.perf_counter()
    for fid, oids in stream:
        gen.advance(fid, codec.encode_iter(oids))
        n_results += len(gen.results())
        ns = gen.n_states()
        if ns > peak:
            peak = ns
    elapsed = time.perf_counter() - t0
    return {
        "seconds": elapsed,
        "results": n_results,
        "peak_states": peak,
        "visits": gen.stats["visits"],
        "expired": gen.stats["expired"],
        "refiled": gen.stats["refiled"],
    }


def run_query_eval(
    stream, queries: list[Query], method: str, w: int, d: int, prune: bool = False
) -> dict:
    """Time MCOS generation + CNFEvalE evaluation (Section 6.3)."""
    pipe = QueryPipeline(queries, w=w, d=d, method=method, prune=prune)
    peak = 0
    t0 = time.perf_counter()
    for fid, objs in stream:
        pipe.feed(fid, objs)
        ns = pipe.gen.n_states()
        if ns > peak:
            peak = ns
    elapsed = time.perf_counter() - t0
    return {
        "seconds": elapsed,
        "matches": pipe.stats.matches,
        "peak_states": peak,
        "terminated": pipe.stats.terminated,
        "evaluations": pipe.stats.evaluations,
    }


# ----------------------------------------------------------------------
# one function per paper artifact
# ----------------------------------------------------------------------
def table6_rows() -> list[dict]:
    rows = []
    for name in DATASET_ORDER:
        n = dataset_frames(name)
        s = vr_stats(build_vr(name, n_frames=n), n)
        s["dataset"] = name
        rows.append(s)
    return rows


def fig4_rows(
    datasets=DATASET_ORDER,
    fractions=(0.25, 0.5, 0.75, 1.0),
    methods=("naive", "mfs", "ssg"),
) -> list[dict]:
    """Figure 4: MCOS generation time vs number of frames processed."""
    w, d = scaled_w_d()
    rows = []
    for name in datasets:
        total = dataset_frames(name)
        for frac in fractions:
            n = max(w + 1, int(total * frac))
            stream = object_stream(name, 0, total)[:n]
            for method in methods:
                r = run_mcos(stream, method, w, d)
                rows.append(
                    {"dataset": name, "frames": n, "method": method, **r}
                )
    return rows


def fig5_rows(
    datasets=DATASET_ORDER,
    durations=(180, 210, 240, 270),
    methods=("naive", "mfs", "ssg"),
) -> list[dict]:
    """Figure 5: vary duration d at w=300."""
    rows = []
    for name in datasets:
        stream = object_stream(name)
        for d0 in durations:
            w, d = scaled_w_d(DEFAULT_W, d0)
            for method in methods:
                r = run_mcos(stream, method, w, d)
                rows.append({"dataset": name, "d": d0, "method": method, **r})
    return rows


def fig6_rows(
    datasets=DATASET_ORDER,
    windows=(250, 300, 350, 400),
    methods=("naive", "mfs", "ssg"),
) -> list[dict]:
    """Figure 6: vary window size w at d=240."""
    rows = []
    for name in datasets:
        stream = object_stream(name)
        for w0 in windows:
            w, d = scaled_w_d(w0, DEFAULT_D)
            for method in methods:
                r = run_mcos(stream, method, w, d)
                rows.append({"dataset": name, "w": w0, "method": method, **r})
    return rows


def fig7_rows(
    datasets=DATASET_ORDER,
    p_os=(0, 1, 2, 3),
    methods=("naive", "mfs", "ssg"),
) -> list[dict]:
    """Figure 7: vary the occlusion (id reuse) parameter p_o."""
    w, d = scaled_w_d()
    rows = []
    for name in datasets:
        for p_o in p_os:
            stream = object_stream(name, p_o)
            for method in methods:
                r = run_mcos(stream, method, w, d)
                rows.append({"dataset": name, "p_o": p_o, "method": method, **r})
    return rows


def fig8_rows(
    datasets=("V1", "M2"),
    n_queries=(10, 20, 30, 40, 50),
    methods=("naive", "mfs", "ssg"),
) -> list[dict]:
    """Figure 8: MCOS generation + query evaluation vs #queries."""
    w, d = scaled_w_d()
    rows = []
    for name in datasets:
        stream = labeled_stream(name)
        for nq in n_queries:
            queries = random_cnf_queries(nq, seed=nq)
            for method in methods:
                r = run_query_eval(stream, queries, method, w, d)
                rows.append(
                    {"dataset": name, "n_queries": nq, "method": method, **r}
                )
    return rows


FIG9_METHODS = ("naive_e", "mfs_e", "ssg_e", "mfs_o", "ssg_o")


def fig9_rows(
    datasets=("D1", "D2", "M1", "M2"),
    n_mins=(1, 3, 5, 7, 9),
    methods=FIG9_METHODS,
) -> list[dict]:
    """Figure 9: 100 >=-only queries, varying the minimum threshold.

    ``*_e`` evaluate CNFEvalE on the full Result State Set; ``*_o``
    additionally terminate states per §5.3.
    """
    w, d = scaled_w_d()
    rows = []
    for name in datasets:
        stream = labeled_stream(name)
        for n_min in n_mins:
            queries = geq_only_queries(100, n_min=n_min, seed=n_min)
            for m in methods:
                base, _, suffix = m.partition("_")
                r = run_query_eval(
                    stream, queries, base, w, d, prune=(suffix == "o")
                )
                rows.append(
                    {"dataset": name, "n_min": n_min, "method": m, **r}
                )
    return rows


def fig10_rows(datasets=DATASET_ORDER, methods=("naive", "mfs", "ssg")) -> list[dict]:
    """Figure 10: end-to-end average seconds per query (50 queries),
    including the detection/tracking substrate time."""
    import repro.videogen.datasets as vd

    w, d = scaled_w_d()
    n_q = 50
    queries = random_cnf_queries(n_q, seed=0)
    rows = []
    for name in datasets:
        n = dataset_frames(name)
        vd._VR_CACHE.pop((name, 0, n, None, None), None)
        t0 = time.perf_counter()
        build_vr(name, n_frames=n)  # detection + tracking layer
        dt_track = time.perf_counter() - t0
        stream = labeled_stream(name, 0, n)
        for method in methods:
            r = run_query_eval(stream, queries, method, w, d)
            rows.append(
                {
                    "dataset": name,
                    "method": method,
                    "track_seconds": dt_track,
                    "eval_seconds": r["seconds"],
                    "sec_per_query": (dt_track + r["seconds"]) / n_q,
                    "matches": r["matches"],
                    "evaluations": r["evaluations"],
                }
            )
    return rows


# ----------------------------------------------------------------------
# formatting
# ----------------------------------------------------------------------
def format_rows(rows: list[dict], columns: list[str] | None = None) -> str:
    """Aligned text table for job output / EXPERIMENTS.md."""
    if not rows:
        return "(no rows)"
    columns = columns or list(rows[0].keys())
    def fmt(v):
        if isinstance(v, float):
            return f"{v:.4f}"
        return str(v)
    widths = {
        c: max(len(c), *(len(fmt(r.get(c, ""))) for r in rows)) for c in columns
    }
    lines = ["  ".join(c.ljust(widths[c]) for c in columns)]
    lines.append("  ".join("-" * widths[c] for c in columns))
    for r in rows:
        lines.append("  ".join(fmt(r.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)
