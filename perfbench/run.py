"""Benchmark of the video query pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload churn_long --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
Each workload replays one camera's generated object stream through one
``QueryPipeline`` per method (NAIVE, MFS, SSG) as a closed loop: one
client, one thread, frame ``i+1`` fed after ``feed(i)`` returns.

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``:
set-up is repeated and its median reported, then ``ROUNDS`` rounds replay
the whole stream once per method.  The work is fixed per workload, so
``--seconds`` is the run length the workloads are sized to, not a timer.
``--trace 1`` replays each method once untraced and once traced, adds
the Spark streaming leg, reports the per-layer metrics and writes the
spans and metrics under ``.perfbench_out/trace/``.

Every frame's match rows are checked: the methods must agree frame by
frame, and sampled frames must match the from-definition oracle.  A
frame that raises or disagrees counts as failed.  Human-readable lines
go first; the last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUPS = 3  # set-ups per measured run; setup_s is their median
# Replays per method and frame.  A frame's latency is the least of its
# (normalised) replays: other tenants of the host only ever add time, and
# the rounds are spread over the run.  Fixed, so both sides of a
# comparison do the same work whatever their speed.  Two rounds of a long
# stream steady p95 more than three of a short one (see workloads.py).
ROUNDS = 2


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def _failures(passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, first reasons) over every pass of every method."""
    from check import disagreeing

    bad = disagreeing({key: p.digests for key, p in passes.items()})
    attempted = failed = 0
    reasons = []
    for key, p in passes.items():
        n = len(p.digests) + sum(1 for i in p.errors if i >= len(p.digests))
        frames = set(p.errors) | bad[key]
        attempted += n
        failed += len(frames)
        reasons += [f"{key}: frame {i}: {p.errors.get(i, 'rows differ from the other methods')}"
                    for i in sorted(frames)[:3]]
    return attempted, failed, reasons


def measure(wl, seed: int) -> tuple[dict, int, int, list[str], list[str]]:
    from check import Oracle
    from replay import run_pass
    from workloads import METHODS, set_up

    setup_s, setup_raw = [], []
    for _ in range(SETUPS):
        inputs = set_up(wl, seed)
        setup_s.append(inputs.setup_s)
        setup_raw.append(inputs.setup_raw_s)
    oracle = Oracle(inputs.frames, inputs.queries, w=wl.w, d=wl.d, prune=wl.prune)
    passes = {}
    t0 = time.perf_counter()
    for r in range(ROUNDS):
        for m in METHODS:
            p = passes[m, r] = run_pass(wl, inputs, m, oracle=oracle if r == 0 else None)
            p.pipe = None  # peak memory is one pipeline's, not every pass's
    measured_s = time.perf_counter() - t0
    metrics = {"setup_s": statistics.median(setup_s)}
    raw = [f"setup_s {statistics.median(setup_raw):.4g}"]
    tail = []
    for m in METHODS:
        lat_ms = [min(ns) / 1e6 for ns in zip(*(passes[m, r].lat_ns for r in range(ROUNDS)))]
        metrics[f"frames_per_s.{m}"] = len(lat_ms) / sum(lat_ms) * 1e3
        metrics[f"frame_ms_p50.{m}"] = _percentile(lat_ms, 50)
        metrics[f"frame_ms_p95.{m}"] = _percentile(lat_ms, 95)
        tail.append(f"frame_ms_p99.{m} {_percentile(lat_ms, 99):.4g}")
        raw_ms = [min(ns) / 1e6 for ns in zip(*(passes[m, r].raw_ns for r in range(ROUNDS)))]
        raw.append(f"frames_per_s.{m} {len(raw_ms) / sum(raw_ms) * 1e3:.4g}")
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, reasons = _failures({f"{m}#{r}": p for (m, r), p in passes.items()})
    verify_s = sum(p.verify_s for p in passes.values())
    notes = [
        f"{wl.n_frames} frames x {ROUNDS} rounds per method in {measured_s:.1f} s; {SETUPS} set-ups",
        f"verify_s {verify_s:.3f} s (digests and oracle, outside every timed metric)",
        "raw, not normalised: " + ", ".join(raw),
        "p99, printed only (too unsteady between seeds to be a metric): " + ", ".join(tail),
    ]
    return metrics, attempted, failed, reasons, notes


def trace(wl, seed: int) -> tuple[dict, int, int, list[str], list[str]]:
    import spark_leg
    from check import Oracle
    from replay import run_pass
    from tracing import Tracer
    from workloads import METHODS, set_up

    inputs = set_up(wl, seed)
    oracle = Oracle(inputs.frames, inputs.queries, w=wl.w, d=wl.d, prune=wl.prune)
    plain = {m: run_pass(wl, inputs, m, oracle=oracle) for m in METHODS}
    tracer = Tracer(wl.name)
    # No oracle here: it calls the wrapped codec and generator methods, so
    # its work would be recorded as program spans.  The plain passes check
    # the same frames, and the traced rows still vote by digest.
    traced = {m: run_pass(wl, inputs, m, tracer=tracer) for m in METHODS}
    metrics = {
        "substrate.build_vr_s": inputs.build_vr_s,
        "substrate.vr_rows": inputs.vr_rows,
        "substrate.objects": inputs.objects,
        **tracer.layer_metrics(traced, wl.w),
        "trace.overhead_frac": sum(p.feed_s for p in traced.values()) / sum(p.feed_s for p in plain.values()) - 1,
    }
    attempted, failed, reasons = _failures(
        {**{f"{m}#plain": p for m, p in plain.items()}, **{f"{m}#traced": p for m, p in traced.items()}}
    )
    stream, details = spark_leg.run(wl, inputs, {m: p.digests for m, p in plain.items()}, os.path.join(OUT, "spark"))
    metrics.update(stream)
    notes = [f"spark session start {details['session_start_s']:.2f} s"]
    for m in spark_leg.METHODS:
        d = details[m]
        notes.append(
            f"spark {m}: {d['batches_done']}/{details['planned_batches']} batches done"
            + (f"; died on batch {d['failed_batch']} with {d['error_class']}" if d["error_class"] else "")
        )
        if d.get("mismatched_frames"):
            failed += d["mismatched_frames"]
            reasons.append(f"spark {m}: {d['mismatched_frames']} frames differ from the in-process rows")
        attempted += details["frames"] if d["error_class"] is None else 0
    os.makedirs(os.path.join(OUT, "trace"), exist_ok=True)
    base = os.path.join(OUT, "trace", wl.name)
    n_spans = tracer.write(base + ".spans.jsonl.gz")
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    with open(base + ".layers.json", "w") as f:
        json.dump({"workload": wl.name, "seed": seed, "metrics": metrics, "spark": details,
                   "layers": layers}, f, indent=1, default=str)
    notes.append(f"{n_spans} spans and the per-layer metrics written to {os.path.relpath(base, ROOT)}.*")
    return metrics, attempted, failed, reasons, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(SRC, "repro")) or not os.path.isfile(bench_path):
        print(f"no program to measure: {SRC}/repro or {bench_path} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Spark's Python workers import the program too.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    with open(bench_path) as f:
        bench = json.load(f)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.trace:
        metrics, attempted, failed, reasons, notes = trace(wl, args.seed)
        wanted = bench["per_layer"]
    else:
        metrics, attempted, failed, reasons, notes = measure(wl, args.seed)
        wanted = bench["end_to_end"]
    for line in notes + reasons:
        print(line)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"not measured on this run (reported as 0): {', '.join(missing)}")
    result = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    for name, v in result.items():
        print(f"{args.workload} {name} {v['value']:.6g} {v['unit']}")
    print(f"{args.workload} failed_frac {failed / max(attempted, 1):.6g} ratio ({failed} of {attempted} frames)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
