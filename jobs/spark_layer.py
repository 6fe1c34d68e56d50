#!/usr/bin/env python
"""The Spark layer of the evaluation, over the registry's datasets.

- Table 6 by Spark SQL (``relation.table6_stats``) over the six VR
  relations, checked equal to the registry's Table 6 (``repro.bench``);
- the Figure 10 workload (50 queries, SSG, the scaled w/d) over all six
  cameras in one ``evaluate_queries_batch`` action
  (``groupBy(camera).applyInPandas``), so the per-camera state machines
  run in parallel across the local cores.  Each camera is fed its own
  frames: its VR carries an empty-frame marker for every frame without
  detections, up to its own video length.

Usage: ``spark-submit jobs/spark_layer.py`` (or plain python).
"""
import os as _os
import sys as _sys

_sys.path.insert(0, _os.path.dirname(_os.path.dirname(_os.path.abspath(__file__))))

import time

import pandas as pd
from pyspark.sql import functions as F

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
from repro.spark.streaming import with_empty_frame_markers
from repro.videogen.datasets import build_vr


def main() -> None:
    spark = get_spark("spark_layer")
    try:
        n_frames = {name: dataset_frames(name) for name in DATASET_ORDER}
        vrs = {name: build_vr(name, n_frames=n).assign(camera=name) for name, n in n_frames.items()}
        vr_df = vr_to_spark(spark, pd.concat(vrs.values()))
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
        # The markers end each camera's frames at its own last fid; the
        # Table 6 SQL above counts detections, so it reads the
        # marker-free relation.
        marked = pd.concat(with_empty_frame_markers(vrs[name], n) for name, n in n_frames.items())
        t0 = time.perf_counter()
        per_camera = (
            evaluate_queries_batch(vr_to_spark(spark, marked), fig10_queries(), w=w, d=d, method="ssg")
            .groupBy("camera")
            .agg(F.count("*").alias("rows"), F.max("fid").alias("last_fid"))
            .toPandas()
            .set_index("camera")
        )
        wall = time.perf_counter() - t0
        print("\n=== Spark batch pipeline (Figure 10 workload, 6 cameras in parallel, SSG) ===")
        for name, n in n_frames.items():
            if name in per_camera.index:
                row = per_camera.loc[name]
                print(f"camera={name} frames={n} match_rows={row['rows']} last_fid={row['last_fid']}")
        print(f"w={w} d={d}  wall={wall:.2f}s  total_match_rows={per_camera['rows'].sum()}", flush=True)
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
