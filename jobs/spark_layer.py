#!/usr/bin/env python
"""The Spark layer of the evaluation, over the registry's datasets.

- Table 6 by Spark SQL (``relation.table6_stats``) over the six VR
  relations, checked equal to the registry's Table 6 (``repro.bench``);
- the Figure 10 workload (50 queries, SSG, the scaled w/d) over all six
  cameras in one ``evaluate_queries_batch`` action
  (``groupBy(camera).applyInPandas``), so the per-camera state machines
  run in parallel across the local cores.

Usage: ``spark-submit jobs/spark_layer.py`` (or plain python).
"""
import os as _os
import sys as _sys

_sys.path.insert(0, _os.path.dirname(_os.path.dirname(_os.path.abspath(__file__))))

import time

import pandas as pd

from jobs._common import get_spark
from repro.bench import (
    ARTIFACTS,
    DATASET_ORDER,
    TABLE6_STATS,
    dataset_frames,
    fig10_queries,
    format_rows,
    rows,
    scaled_w_d,
)
from repro.spark.batch import evaluate_queries_batch
from repro.spark.relation import table6_stats, vr_to_spark
from repro.videogen.datasets import build_vr


def main() -> None:
    spark = get_spark("spark_layer")
    try:
        n_frames = {name: dataset_frames(name) for name in DATASET_ORDER}
        vr_all = pd.concat(
            build_vr(name, n_frames=n).assign(camera=name) for name, n in n_frames.items()
        )
        vr_df = vr_to_spark(spark, vr_all)
        sql = table6_stats(spark, vr_df, n_frames).toPandas().set_index("camera")
        table6 = rows("table6")
        for r in table6:
            row = sql.loc[r["dataset"]]
            by_sql = {k: int(row[k]) if k in ("frames", "objects") else round(float(row[k]), 2)
                      for k in TABLE6_STATS}
            if by_sql != {k: r[k] for k in TABLE6_STATS}:
                raise RuntimeError(f"Spark SQL Table 6 differs on {r['dataset']}: {by_sql} != {r}")
        print(f"\n=== {ARTIFACTS['table6'].title}, equal by Spark SQL ===", flush=True)
        print(format_rows(table6, ARTIFACTS["table6"].columns), flush=True)

        w, d = scaled_w_d()
        t0 = time.perf_counter()
        n_matches = evaluate_queries_batch(
            vr_df, fig10_queries(), w=w, d=d, method="ssg", n_frames=max(n_frames.values())
        ).count()
        wall = time.perf_counter() - t0
        print("\n=== Spark batch pipeline (Figure 10 workload, 6 cameras in parallel, SSG) ===")
        print(f"w={w} d={d}  wall={wall:.2f}s  total_match_rows={n_matches}", flush=True)
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
