"""VR relation + Table 6 statistics on Spark, checked against DuckDB.

The SQL test goes through ``tests.oracle.assert_equivalent`` — the same
SQL text runs on DuckDB over the same input, so a broken Catalyst plan
or wrong window spec is caught as a wrong *result*.
"""
from __future__ import annotations

import pandas as pd
import pytest

from repro.spark.relation import TABLE6_SQL, table6_stats, vr_to_spark
from repro.videogen.datasets import build_vr, vr_stats
from tests.oracle import assert_equivalent
from tests.spark.util import synthetic_vr


@pytest.fixture(scope="module")
def vr_pdf():
    return synthetic_vr(n_frames=80, seed=3)


def test_table6_sql_vs_duckdb(spark, vr_pdf):
    n_frames = {"cam0": 80, "cam1": 80}
    assert_equivalent(
        table6_stats(spark, vr_to_spark(spark, vr_pdf), n_frames),
        TABLE6_SQL,
        vr=vr_pdf,
        vr_len=pd.DataFrame(list(n_frames.items()), columns=["camera", "n_frames"]),
    )


def test_table6_sql_matches_pandas_reference(spark):
    """The Spark SQL stats must equal the pure-pandas vr_stats used for
    profile calibration, on a real dataset profile."""
    vr = build_vr("M2", n_frames=200)
    ref = vr_stats(vr, 200)
    got = (
        table6_stats(spark, vr_to_spark(spark, vr), {"m2": 200})
        .toPandas()
        .iloc[0]
    )
    assert int(got["frames"]) == ref["frames"]
    assert int(got["objects"]) == ref["objects"]
    assert round(float(got["obj_per_frame"]), 2) == ref["obj_per_frame"]
    assert round(float(got["occ_per_obj"]), 2) == ref["occ_per_obj"]
    assert round(float(got["frames_per_obj"]), 2) == ref["frames_per_obj"]


def test_vr_schema_and_determinism(spark):
    vr1 = build_vr("V2", n_frames=120)
    vr2 = build_vr("V2", n_frames=120)
    pd.testing.assert_frame_equal(vr1, vr2)
    df = vr_to_spark(spark, vr1)
    assert [f.name for f in df.schema.fields] == ["camera", "fid", "oid", "cls"]
    assert df.count() == len(vr1)
