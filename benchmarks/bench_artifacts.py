"""One pytest-benchmark per point of every evaluation artifact.

The points are the registry's (``repro.bench.ARTIFACTS``: Table 6 and
Figures 4-10), so the benchmark measures what ``python -m repro.bench``
writes to ``results/``.  The id is ``<artifact>-<point values>``; the
measured row, the figure's y-value and its counters, goes to
``extra_info``.
"""
import pytest

from repro.bench import ARTIFACTS

POINTS = [
    pytest.param(name, point, id="-".join(map(str, (name, *point.values()))))
    for name, art in ARTIFACTS.items()
    for point in art.grid()
]


@pytest.mark.parametrize("name,point", POINTS)
def test_artifact(benchmark, name, point):
    row = benchmark.pedantic(lambda: ARTIFACTS[name].run(**point), rounds=1, iterations=1)
    benchmark.extra_info.update(row)
