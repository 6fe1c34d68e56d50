#!/usr/bin/env python
"""Materialise the six VR relations as parquet (one file per dataset).

Not required by the benchmarks (which generate in-process) but useful
for inspecting the substrate output.
"""
import os

from repro.bench import DATASET_ORDER, dataset_frames, results_dir
from repro.videogen.datasets import build_vr, vr_stats


def main() -> None:
    d = os.path.join(results_dir(), "vr")
    os.makedirs(d, exist_ok=True)
    for name in DATASET_ORDER:
        n = dataset_frames(name)
        vr = build_vr(name, n_frames=n)
        path = os.path.join(d, f"{name}.parquet")
        vr.to_parquet(path, index=False)
        print(name, vr_stats(vr, n), "->", path, flush=True)


if __name__ == "__main__":
    main()
