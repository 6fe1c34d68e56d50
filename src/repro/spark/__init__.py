"""Spark integration layer.

The paper's MCOS generation is a per-camera sequential state machine;
Spark provides the scale-out across cameras and the streaming
runtime.  Three entry points:

- :mod:`repro.spark.relation` — the structured relation VR as a
  DataFrame plus Table 6 statistics in Spark SQL (DuckDB-oracled).
- :mod:`repro.spark.batch` — bounded evaluation with
  ``groupBy(camera).applyInPandas`` (one stateful pass per camera).
- :mod:`repro.spark.streaming` — Structured Streaming with
  ``applyInPandasWithState``; the GroupState holds the camera's last
  ``w`` frames of VR rows and its object classes as declared columns,
  and each micro-batch rebuilds the pipeline from them.
"""
