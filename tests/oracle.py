"""DuckDB correctness oracle for the tests.

``assert_equivalent(got, sql, **tables)`` runs ``sql`` in DuckDB over
``tables`` and asserts the sorted rows match ``got``, the result under
test.  This catches wrong results from a rewritten plan, a custom
operator or a generator — "it ran" is not "it is correct".

``got`` and ``tables`` may be Spark or pandas DataFrames; Spark inputs
are collected via ``.toPandas()``. Alias every output column
identically on both sides (Spark names ``count(*)`` as ``count(1)``,
DuckDB as ``count_star()``) and project to scalar columns —
array/map/struct columns are not orderable so cannot be compared here.
"""
import duckdb
import pandas as pd
from pyspark.sql import DataFrame


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal.
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def _pandas(df: DataFrame | pd.DataFrame) -> pd.DataFrame:
    return df.toPandas() if isinstance(df, DataFrame) else df


def assert_equivalent(got: DataFrame | pd.DataFrame, sql: str, **tables) -> None:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, _pandas(t))
        expected = con.execute(sql).fetchdf()
    finally:
        con.close()
    got = _pandas(got)
    assert set(expected.columns) == set(got.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    pd.testing.assert_frame_equal(
        _canon(got), _canon(expected), check_dtype=False
    )
