"""The structured relation VR and its Table 6 statistics in Spark SQL.

``VR(camera, fid, oid, cls)`` is the output of the detection/tracking
layer (paper §3).  ``TABLE6_SQL`` computes the dataset statistics of
the paper's Table 6 per camera; the tests run the same SQL string on
DuckDB over the same input, so the Spark plan is checked for result
correctness, not just execution.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

VR_SCHEMA = T.StructType(
    [
        T.StructField("camera", T.StringType(), False),
        T.StructField("fid", T.LongType(), False),
        T.StructField("oid", T.LongType(), False),
        T.StructField("cls", T.StringType(), False),
    ]
)

# Frames counts every fid of the underlying video; detections carry
# only non-empty frames, so the video length is supplied per camera
# through the ``vr_len(camera, n_frames)`` relation.
TABLE6_SQL = """
WITH lagged AS (
    SELECT camera, oid, fid,
           LAG(fid) OVER (PARTITION BY camera, oid ORDER BY fid) AS prev_fid
    FROM vr
),
per_obj AS (
    SELECT camera, oid,
           COUNT(*) AS n_frames_obj,
           SUM(CASE WHEN prev_fid IS NOT NULL AND fid - prev_fid > 1
                    THEN 1 ELSE 0 END) AS n_gaps
    FROM lagged
    GROUP BY camera, oid
),
per_cam AS (
    SELECT camera,
           SUM(n_frames_obj) AS rows_total,
           COUNT(*) AS objects,
           AVG(CAST(n_gaps AS DOUBLE)) AS occ_per_obj,
           AVG(CAST(n_frames_obj AS DOUBLE)) AS frames_per_obj
    FROM per_obj
    GROUP BY camera
)
SELECT p.camera AS camera,
       CAST(l.n_frames AS BIGINT) AS frames,
       CAST(p.objects AS BIGINT) AS objects,
       CAST(p.rows_total AS DOUBLE) / l.n_frames AS obj_per_frame,
       p.occ_per_obj AS occ_per_obj,
       CAST(p.rows_total AS DOUBLE) / p.objects AS frames_per_obj
FROM per_cam p JOIN vr_len l ON p.camera = l.camera
"""


def vr_to_spark(spark: SparkSession, vr: pd.DataFrame) -> DataFrame:
    """Lift a pandas VR relation into a Spark DataFrame."""
    pdf = vr.astype({"camera": str, "fid": "int64", "oid": "int64", "cls": str})
    return spark.createDataFrame(pdf[["camera", "fid", "oid", "cls"]], VR_SCHEMA)


def table6_stats(
    spark: SparkSession, vr_df: DataFrame, n_frames: dict[str, int]
) -> DataFrame:
    """Table 6 statistics per camera, computed by Catalyst."""
    vr_df.createOrReplaceTempView("vr")
    spark.createDataFrame(
        pd.DataFrame(
            [(c, int(n)) for c, n in n_frames.items()],
            columns=["camera", "n_frames"],
        )
    ).createOrReplaceTempView("vr_len")
    return spark.sql(TABLE6_SQL)

