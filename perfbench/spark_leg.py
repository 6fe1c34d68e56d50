"""The Spark Structured Streaming operator over one workload's stream.

The first ``N_FRAMES`` frames are written as parquet files of
``FRAMES_PER_FILE`` frames each (with the empty-frame markers the
streaming protocol needs) and read back with ``maxFilesPerTrigger=1``,
so each file is one micro-batch of ``applyInPandasWithState``.  Batch
timings and state sizes come from ``StreamingQuery.recentProgress``.
The rows of a query that completes are checked against the in-process
digests of the same method.  A query that dies is reported with its
error class and the batch it died on; the batches it never ran count as
failed.  The window and duration stay those of the workload.
"""
from __future__ import annotations

import os
import re
import shutil
import statistics
import time

import pandas as pd

from check import digest

N_FRAMES = 600
FRAMES_PER_FILE = 100
METHODS = ("mfs", "ssg")


def _session(work: str):
    """Local session; every file Spark writes stays under ``work``."""
    here = os.path.dirname(os.path.abspath(__file__))
    java_opts = (
        f"-XX:-UsePerfData -Djava.io.tmpdir={work}/tmp "
        f"-Dlog4j2.configurationFile=file:{here}/log4j2.properties"
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[2] --driver-memory 1g "
        f'--driver-java-options "{java_opts}" '
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false pyspark-shell"
    )
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "2")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.local.dir", f"{work}/local")
        .config("spark.sql.warehouse.dir", f"{work}/warehouse")
        .getOrCreate()
    )


def _stop(spark) -> None:
    """Stop the session and wait until the JVM has exited."""
    from pyspark import SparkContext

    spark.stop()
    gw = SparkContext._gateway
    if gw is not None:
        gw.shutdown()
        gw.proc.stdin.close()
        gw.proc.wait(timeout=60)
        SparkContext._gateway = None
        SparkContext._jvm = None


def _write_files(wl, inputs, indir: str) -> int:
    from repro.spark.streaming import with_empty_frame_markers

    camera = wl.profile.lower()
    frames = inputs.frames[:N_FRAMES]
    vr = pd.DataFrame(
        [(camera, fid, oid, cls) for fid, objs in frames for oid, cls in objs],
        columns=["camera", "fid", "oid", "cls"],
    )
    vr = with_empty_frame_markers(vr, len(frames))
    os.makedirs(indir)
    t0 = time.time() - 10_000
    n_files = 0
    for lo in range(0, len(frames), FRAMES_PER_FILE):
        path = os.path.join(indir, f"part-{n_files:05d}.parquet")
        vr[(vr.fid >= lo) & (vr.fid < lo + FRAMES_PER_FILE)].to_parquet(path, index=False)
        os.utime(path, (t0 + n_files, t0 + n_files))  # oldest first
        n_files += 1
    return n_files


def run(wl, inputs, digests: dict[str, list[int]], work: str) -> tuple[dict, dict]:
    """Stream each method; return (per-layer metrics, details for the trace file)."""
    from pyspark.errors import StreamingQueryException

    from repro.spark.relation import VR_SCHEMA
    from repro.spark.streaming import evaluate_queries_stream

    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(f"{work}/tmp")
    indir = f"{work}/in"
    planned = _write_files(wl, inputs, indir)
    t0 = time.perf_counter()
    spark = _session(work)
    details: dict = {"session_start_s": time.perf_counter() - t0, "frames": N_FRAMES, "planned_batches": planned}
    metrics: dict[str, float] = {}
    try:
        for method in METHODS:
            src = spark.readStream.schema(VR_SCHEMA).option("maxFilesPerTrigger", 1).parquet(indir)
            out = evaluate_queries_stream(src, inputs.queries, w=wl.w, d=wl.d, method=method, prune=wl.prune)
            sink = f"out_{method}"
            q = (
                out.writeStream.format("memory").queryName(sink).outputMode("append")
                .option("checkpointLocation", f"{work}/ckpt_{method}").start()
            )
            error = None
            t1 = time.perf_counter()
            try:
                q.processAllAvailable()
            except StreamingQueryException as exc:
                found = re.search(r"\b(\w+Error): ", str(exc))
                error = found.group(1) if found else type(exc).__name__
            wall = time.perf_counter() - t1
            progress = [p for p in q.recentProgress if p["numInputRows"] > 0]
            q.stop()
            done = len(progress)
            d = details[method] = {
                "wall_s": wall,
                "batches_done": done,
                "batches_failed": planned - done,
                "error_class": error,
                "failed_batch": done if error else None,
                "batches": [{"batchId": p["batchId"], "durationMs": p["durationMs"],
                             "state": (p["stateOperators"] or [{}])[0]} for p in progress],
            }
            metrics[f"stream.batches_done.{method}"] = done
            metrics[f"stream.batches_failed.{method}"] = planned - done
            if error is None:
                got: dict[int, list] = {}
                for r in spark.sql(f"SELECT fid, qid, objset, n_frames FROM {sink}").collect():
                    got.setdefault(r.fid, []).append((r.qid, tuple(map(int, r.objset.split(","))), r.n_frames))
                want = digests[method][:N_FRAMES]
                d["mismatched_frames"] = sum(digest(got.get(i, ())) != want[i] for i in range(len(want)))
        mfs = details["mfs"]
        if mfs["batches_done"]:
            dur = [b["durationMs"] for b in mfs["batches"]]
            state = [b["state"] for b in mfs["batches"]]
            for key, name in (("triggerExecution", "batch"), ("addBatch", "add_batch"),
                              ("queryPlanning", "planning"), ("walCommit", "wal_commit")):
                metrics[f"stream.{name}_ms_p50.mfs"] = statistics.median(x.get(key, 0) for x in dur)
            metrics["stream.state_bytes.mfs"] = max(s.get("memoryUsedBytes", 0) for s in state)
            metrics["stream.state_rows.mfs"] = max(s.get("numRowsTotal", 0) for s in state)
            metrics["stream.frames_per_s.mfs"] = N_FRAMES / mfs["wall_s"]
    finally:
        _stop(spark)
    return metrics, details
