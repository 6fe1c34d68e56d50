"""Smoke tests: every artifact (through the registry's command line) and
every job entrypoint runs end to end at tiny scale."""
from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys

import pytest

from repro.bench import ARTIFACTS

JOBS_DIR = os.path.join(os.path.dirname(__file__), "..", "jobs")

COMMANDS = {
    **{name: ["-m", "repro.bench", name] for name in ARTIFACTS},
    "gen_datasets": [os.path.join(JOBS_DIR, "gen_datasets.py")],
}


def run_tiny(args: list[str], results_dir) -> subprocess.CompletedProcess:
    env = dict(
        os.environ,
        REPRO_BENCH_SCALE="0.04",
        REPRO_RESULTS_DIR=str(results_dir),
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )


@pytest.mark.parametrize("job", COMMANDS)
def test_job_runs(job, tmp_path):
    proc = run_tiny(COMMANDS[job], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    if job in ARTIFACTS:
        assert f"=== {ARTIFACTS[job].title} ===" in proc.stdout
        assert (tmp_path / ARTIFACTS[job].csv).exists()


@pytest.fixture(scope="module")
def spark_layer_run(tmp_path_factory):
    """One tiny-scale run of the Spark layer job, shared by its tests."""
    proc = run_tiny([os.path.join(JOBS_DIR, "spark_layer.py")], tmp_path_factory.mktemp("spark_layer"))
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc


def test_spark_layer_job_matches_rows(spark_layer_run):
    """Table 6 by Spark SQL equals the registry's, and the Figure 10
    workload over six cameras yields match rows at the scaled window."""
    proc = spark_layer_run
    assert "equal by Spark SQL" in proc.stdout
    m = re.search(r"total_match_rows=(\d+)", proc.stdout)
    assert m and int(m.group(1)) > 0, proc.stdout[-2000:]


def test_spark_layer_rows_within_each_camera(spark_layer_run):
    """Each camera is fed only its own frames: no match row lies at or
    beyond its camera's frame count, though the cameras differ in length."""
    proc = spark_layer_run
    cams = re.findall(r"camera=(\w+) frames=(\d+) match_rows=(\d+) last_fid=(\d+)", proc.stdout)
    assert {c for c, *_ in cams} == {"V1", "V2", "D1", "D2", "M1", "M2"}, proc.stdout[-2000:]
    assert len({int(n) for _, n, _, _ in cams}) > 1, "cameras of one length test nothing"
    for camera, n, _, last in cams:
        assert int(last) < int(n), f"{camera}: match row at fid {last} of {n} frames"
    total = int(re.search(r"total_match_rows=(\d+)", proc.stdout).group(1))
    assert total == sum(int(r) for _, _, r, _ in cams)


def test_all_jobs_importable():
    sys.path.insert(0, os.path.abspath(os.path.join(JOBS_DIR, "..")))
    for job in ("gen_datasets", "spark_layer"):
        mod = importlib.import_module(f"jobs.{job}")
        assert hasattr(mod, "main")
