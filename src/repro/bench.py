"""Experiment harness reproducing the paper's evaluation (Section 6).

``ARTIFACTS`` registers each evaluation artifact (Table 6, Figures
4-10) once: a title, a CSV name, the printed columns, ``grid()``, which
lists the artifact's points as dicts (dataset, swept parameter,
method), and ``run(**point)``, which measures one point.
``rows(name)`` is ``{**p, **run(**p)}`` for each ``p`` of ``grid()``,
best of ``REPEATS`` runs with times scaled to a nominal host speed,
with the ``spread`` of their times: the table of numbers the paper
plots.  Two entry points share the registry:

- ``python -m repro.bench [artifact ...]`` prints each table and writes
  its CSV to ``REPRO_RESULTS_DIR`` (default ``<repo>/results``);
- ``jobs/spark_layer.py`` checks Table 6 against Spark SQL and runs the
  Figure 10 workload through the Spark batch pipeline.

``REPRO_BENCH_SCALE`` (env, float, default 1.0) scales frame counts
for quick runs; the paper's parameter defaults (w=300, d=240 — 8 s of
presence in a 10 s window at 30 fps) are used throughout and scaled
alongside so the duration-to-window ratio is preserved.  Grids read it
when called, not at import.
"""
from __future__ import annotations

import csv
import os
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.core.evaluate import METHODS, QueryPipeline, advance_frame, make_generator
from repro.core.model import ObjSetCodec
from repro.core.queries import Query, geq_only_queries, random_cnf_queries
from repro.detect_track.tracker import frames_by_fid
from repro.videogen.datasets import DATASETS, PAPER_TABLE6, build_vr, make_vr, vr_stats

DATASET_ORDER = ("V1", "V2", "D1", "D2", "M1", "M2")

DEFAULT_W = 300
DEFAULT_D = 240

# ``*_e`` evaluate CNFEvalE on the full Result State Set; ``*_o``
# additionally terminate states per §5.3.
FIG9_METHODS = ("naive_e", "mfs_e", "ssg_e", "mfs_o", "ssg_o")
FIG10_QUERIES = 50

# Table 6 statistics, in the order of ``vr_stats`` and ``PAPER_TABLE6``.
TABLE6_STATS = ("frames", "objects", "obj_per_frame", "occ_per_obj", "frames_per_obj")

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "results"
)


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


def fig10_queries() -> list[Query]:
    """The Figure 10 workload, shared with the Spark job."""
    return random_cnf_queries(FIG10_QUERIES, seed=0)


@lru_cache(maxsize=64)
def labeled_stream(name: str, p_o: int = 0, n_frames: int | None = None):
    """``[(fid, ((oid, cls), ...)), ...]`` for a dataset profile (cached)."""
    n = n_frames if n_frames is not None else dataset_frames(name)
    vr = build_vr(name, p_o=p_o, n_frames=n)
    by_fid = frames_by_fid([vr])
    return tuple((fid, tuple(by_fid.get(fid, ()))) for fid in range(n))


# ----------------------------------------------------------------------
# timed kernels
# ----------------------------------------------------------------------
def run_mcos(stream, method: str, w: int, d: int) -> dict:
    """Time MCOS generation alone (Section 6.2): per-frame advance +
    Result State Set production, as the paper measures.  ``stream`` is
    a :func:`labeled_stream`; its classes are dropped before the clock
    starts.  The row carries the generator's ``stats``."""
    stream = [(fid, [oid for oid, _ in objs]) for fid, objs in stream]
    codec = ObjSetCodec()
    gen = make_generator(method, w, d)
    n_results = 0
    peak = 0
    t0 = time.perf_counter()
    for fid, oids in stream:
        advance_frame(gen, codec, fid, oids)
        n_results += len(gen.result_sizes())
        ns = gen.n_states()
        if ns > peak:
            peak = ns
    elapsed = time.perf_counter() - t0
    return {"seconds": elapsed, "results": n_results, "peak_states": peak, **gen.stats}


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
# one point of each paper artifact
# ----------------------------------------------------------------------
def table6_point(dataset: str) -> dict:
    """Table 6: statistics of one VR relation, next to the paper's."""
    n = dataset_frames(dataset)
    paper = dict(zip(TABLE6_STATS, PAPER_TABLE6[dataset]))
    return {
        **vr_stats(build_vr(dataset, n_frames=n), n),
        **{f"paper_{k}": paper[k] for k in TABLE6_STATS[1:]},
    }


def mcos_point(
    dataset: str, method: str, frames: int | None = None,
    w: int = DEFAULT_W, d: int = DEFAULT_D, p_o: int = 0,
) -> dict:
    """Figures 4-7: MCOS generation over the first ``frames`` frames
    (all by default), with the paper's ``w``/``d`` scaled."""
    stream = labeled_stream(dataset, p_o, dataset_frames(dataset))[:frames]
    return run_mcos(stream, method, *scaled_w_d(w, d))


def fig8_point(dataset: str, n_queries: int, method: str) -> dict:
    """Figure 8: MCOS generation + query evaluation of random CNF queries."""
    queries = random_cnf_queries(n_queries, seed=n_queries)
    stream = labeled_stream(dataset, 0, dataset_frames(dataset))
    return run_query_eval(stream, queries, method, *scaled_w_d())


def fig9_point(dataset: str, n_min: int, method: str) -> dict:
    """Figure 9: 100 >=-only queries of minimum threshold ``n_min``."""
    queries = geq_only_queries(100, n_min=n_min, seed=n_min)
    base, _, suffix = method.partition("_")
    stream = labeled_stream(dataset, 0, dataset_frames(dataset))
    return run_query_eval(stream, queries, base, *scaled_w_d(), prune=suffix == "o")


def fig10_point(dataset: str, method: str) -> dict:
    """Figure 10: end-to-end seconds per query, including the
    detection/tracking substrate.  Only the evaluation is timed here;
    the tracking time and the seconds per query are placeholders that
    :func:`fig10_totals` fills in once ``measure`` has scaled the row."""
    stream = labeled_stream(dataset, 0, dataset_frames(dataset))
    r = run_query_eval(stream, fig10_queries(), method, *scaled_w_d())
    return {
        "track_seconds": 0.0,
        "eval_seconds": r["seconds"],
        "sec_per_query": 0.0,
        "matches": r["matches"],
        "evaluations": r["evaluations"],
    }


def fig10_totals(point: dict, r: dict) -> dict:
    """A Figure 10 row with its dataset's tracking time and the seconds
    per query over both.  The tracking time is scaled to the nominal
    host speed build by build, so it is set after ``measure`` scales
    the row's evaluation time."""
    track = substrate_seconds(point["dataset"], dataset_frames(point["dataset"]))
    return {**r, "track_seconds": track, "sec_per_query": (track + r["eval_seconds"]) / FIG10_QUERIES}


@lru_cache(maxsize=16)
def substrate_seconds(dataset: str, n_frames: int) -> float:
    """The detection/tracking substrate of ``dataset``, built uncached
    ``REPEATS`` times, each build scaled to the nominal host speed by its
    own probes; the fastest.  One value per dataset, shared by its
    methods' rows: the build does not depend on the method."""
    best = float("inf")
    for _ in range(REPEATS):
        p0 = probe()
        t0 = time.perf_counter()
        make_vr(dataset, n_frames=n_frames)
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed * NOMINAL_PROBE_NS / ((p0 + probe()) / 2))
    return best


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Artifact:
    """One table or figure: its points (``grid``) and the measurement
    of one point (``run``)."""

    title: str
    csv: str
    columns: tuple[str, ...]
    grid: Callable[[], list[dict]]
    run: Callable[..., dict]
    # ``finish(point, row)``: columns set after ``measure`` scales a run.
    finish: Callable[[dict, dict], dict] | None = None


def sweep(datasets, axis: str, values, methods=METHODS) -> list[dict]:
    """Points ``{dataset, axis, method}``, dataset outermost."""
    return [
        {"dataset": name, axis: v, "method": m}
        for name in datasets for v in values for m in methods
    ]


def fig4_grid() -> list[dict]:
    """A quarter, half, three quarters and all of each dataset's frames
    (at least one window)."""
    w, _ = scaled_w_d()
    return [
        {"dataset": name, "frames": max(w + 1, int(dataset_frames(name) * frac)), "method": m}
        for name in DATASET_ORDER for frac in (0.25, 0.5, 0.75, 1.0) for m in METHODS
    ]


MCOS_COLUMNS = ("seconds", "results", "peak_states")

ARTIFACTS: dict[str, Artifact] = {
    "table6": Artifact(
        "Table 6: dataset statistics (ours vs paper)", "table6.csv",
        ("dataset", *TABLE6_STATS, *(f"paper_{k}" for k in TABLE6_STATS[1:])),
        lambda: [{"dataset": name} for name in DATASET_ORDER],
        table6_point,
    ),
    "fig4": Artifact(
        "Figure 4: MCOS generation time (s) vs #frames", "fig4.csv",
        ("dataset", "frames", "method", *MCOS_COLUMNS),
        fig4_grid,
        mcos_point,
    ),
    "fig5": Artifact(
        "Figure 5: MCOS generation time (s) vs duration d", "fig5.csv",
        ("dataset", "d", "method", *MCOS_COLUMNS),
        lambda: sweep(DATASET_ORDER, "d", (180, 210, 240, 270)),
        mcos_point,
    ),
    "fig6": Artifact(
        "Figure 6: MCOS generation time (s) vs window w", "fig6.csv",
        ("dataset", "w", "method", *MCOS_COLUMNS),
        lambda: sweep(DATASET_ORDER, "w", (250, 300, 350, 400)),
        mcos_point,
    ),
    "fig7": Artifact(
        "Figure 7: MCOS generation time (s) vs p_o", "fig7.csv",
        ("dataset", "p_o", "method", *MCOS_COLUMNS),
        lambda: sweep(DATASET_ORDER, "p_o", (0, 1, 2, 3)),
        mcos_point,
    ),
    "fig8": Artifact(
        "Figure 8: generation + evaluation time (s) vs #queries", "fig8.csv",
        ("dataset", "n_queries", "method", "seconds", "matches", "evaluations"),
        # one static- and one moving-camera panel
        lambda: sweep(("V1", "M2"), "n_queries", (10, 20, 30, 40, 50)),
        fig8_point,
    ),
    "fig9": Artifact(
        "Figure 9: evaluation time (s) vs n_min (>=-only queries)", "fig9.csv",
        ("dataset", "n_min", "method", "seconds", "matches", "peak_states", "terminated",
         "evaluations"),
        lambda: sweep(("D1", "D2", "M1", "M2"), "n_min", (1, 3, 5, 7, 9), FIG9_METHODS),
        fig9_point,
    ),
    "fig10": Artifact(
        "Figure 10: end-to-end seconds per query (50 queries)", "fig10.csv",
        ("dataset", "method", "track_seconds", "eval_seconds", "sec_per_query", "matches",
         "evaluations"),
        lambda: [{"dataset": name, "method": m} for name in DATASET_ORDER for m in METHODS],
        fig10_point,
        finish=fig10_totals,
    ),
}


# Runs per point in ``rows``: the grid is run this many times over, and
# each point keeps its fastest run.  A single run carries the host's
# drift, enough to flip a row's SSG-vs-MFS order.
REPEATS = 3
# The timed columns, in seconds scaled to the nominal host speed.
SECONDS_COLUMNS = ("seconds", "track_seconds", "eval_seconds", "sec_per_query")
# The columns that vary between runs: the timed ones and the probe that
# scaled them.  Every other column is a count and must repeat exactly.
TIME_COLUMNS = (*SECONDS_COLUMNS, "probe_ns")

# Host-speed normalisation, as in ``perfbench/replay.py`` (same loop,
# same nominal time).  On a shared host the same code runs slower while
# other tenants load the machine, and the drift differs from one process
# to the next, which a best of ``REPEATS`` inside one process keeps.  So
# a fixed reference loop is timed before and after each run, and the
# run's times are scaled by ``NOMINAL_PROBE_NS`` over the mean of the
# two.  ``NOMINAL_PROBE_NS`` is the loop's time on an unloaded CPU of a
# 4-vCPU 2.0 GHz Xeon virtual machine.
NOMINAL_PROBE_NS = 430_000


def _loop_ns() -> int:
    t0 = time.perf_counter_ns()
    s = 0
    for i in range(10_000):
        s += i & 7
    return time.perf_counter_ns() - t0


def probe() -> int:
    """Best of two runs of a fixed 10,000-iteration loop, in ns."""
    return min(_loop_ns(), _loop_ns())


def measure(art: Artifact, point: dict) -> dict:
    """One run of a point, its times scaled to the nominal host speed.
    ``probe_ns`` is the mean of the probes before and after the run; a
    row with no timed column (Table 6) is left as it is, so it repeats
    byte for byte.  A scaled row goes through the artifact's ``finish``."""
    p0 = probe()
    r = art.run(**point)
    if not r.keys() & SECONDS_COLUMNS:
        return r
    probe_ns = (p0 + probe()) / 2
    scale = NOMINAL_PROBE_NS / probe_ns
    r = {k: v * scale if k in SECONDS_COLUMNS else v for k, v in r.items()}
    r["probe_ns"] = probe_ns
    return r if art.finish is None else art.finish(point, r)


def rows(name: str) -> list[dict]:
    """Every point of an artifact, measured: the paper's table.  Each
    point is run ``REPEATS`` times, interleaved over the grid, and its
    fastest run (after scaling) is kept.  A timed row adds ``spread``,
    (slowest - fastest) / fastest of the runs' summed seconds: two rows
    whose gap is within it are not ranked by this table."""
    art = ARTIFACTS[name]
    grid = art.grid()
    runs = [[measure(art, p) for p in grid] for _ in range(REPEATS)]
    out = []
    for p, reps in zip(grid, zip(*runs)):
        counts = [{k: v for k, v in r.items() if k not in TIME_COLUMNS} for r in reps]
        if any(c != counts[0] for c in counts):
            raise RuntimeError(f"{name} {p}: counts differ between runs: {counts}")
        total = [sum(r.get(k, 0.0) for k in SECONDS_COLUMNS) for r in reps]
        best = reps[total.index(min(total))]
        row = {**p, **best}
        if best.keys() & SECONDS_COLUMNS:
            row["spread"] = (max(total) - min(total)) / min(total)
        out.append(row)
    return out


# ----------------------------------------------------------------------
# output
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


def results_dir() -> str:
    d = os.environ.get("REPRO_RESULTS_DIR", RESULTS_DIR)
    os.makedirs(d, exist_ok=True)
    return d


def save_csv(rows: list[dict], name: str) -> str:
    path = os.path.join(results_dir(), name)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return path


def main(names: list[str]) -> None:
    """Print and save the named artifacts' tables (all when none named)."""
    unknown = [n for n in names if n not in ARTIFACTS]
    if unknown:
        sys.exit(f"unknown artifact(s) {', '.join(unknown)}; choose from {', '.join(ARTIFACTS)}")
    for name in names or ARTIFACTS:
        art = ARTIFACTS[name]
        table = rows(name)
        columns = [c for c in (*art.columns, "spread") if c in table[0]]
        print(f"\n=== {art.title} ===\n{format_rows(table, columns)}", flush=True)
        print(f"[saved {save_csv(table, art.csv)}]", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
