#!/usr/bin/env python
"""Figure 10 — end-to-end average seconds per query (50 queries),
including detection + tracking.

Runs the evaluation through the Spark batch pipeline
(``groupBy(camera).applyInPandas``): all six cameras are evaluated in
one Spark action, so the per-camera state machines execute in parallel
across the local cores, and the wall time reported per dataset is the
in-driver reference sweep (matching the paper's per-dataset framing).
"""
import os as _os
import sys as _sys

_sys.path.insert(0, _os.path.dirname(_os.path.dirname(_os.path.abspath(__file__))))

import time

from jobs._common import emit, get_spark, save_csv
from repro.bench import dataset_frames, fig10_rows, format_rows
from repro.core.queries import random_cnf_queries
from repro.spark.batch import evaluate_queries_batch
from repro.spark.relation import vr_to_spark
from repro.videogen.datasets import build_vr


def main() -> None:
    rows = fig10_rows()
    emit(
        "Figure 10: end-to-end seconds per query (50 queries)",
        format_rows(
            rows,
            ["dataset", "method", "track_seconds", "eval_seconds", "sec_per_query", "matches", "evaluations"],
        ),
    )
    save_csv(rows, "fig10.csv")

    # Spark scale-out demonstration: all six cameras evaluated in one
    # distributed action.
    import pandas as pd

    spark = get_spark("fig10")
    queries = random_cnf_queries(50, seed=0)
    vr_all = pd.concat(
        build_vr(name, n_frames=dataset_frames(name)) for name in
        ("V1", "V2", "D1", "D2", "M1", "M2")
    )
    n_frames = max(dataset_frames(n) for n in ("V1", "V2", "D1", "D2", "M1", "M2"))
    t0 = time.perf_counter()
    out = evaluate_queries_batch(
        vr_to_spark(spark, vr_all), queries, w=300, d=240, method="ssg",
        n_frames=n_frames,
    )
    n_matches = out.count()
    wall = time.perf_counter() - t0
    emit(
        "Spark batch pipeline (6 cameras in parallel, SSG)",
        f"wall={wall:.2f}s  total_match_rows={n_matches}",
    )
    spark.stop()


if __name__ == "__main__":
    main()
