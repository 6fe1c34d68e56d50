"""Run the benchmark over several seeds and workloads into one result set.

    python3 perfbench/sweep.py --seeds 1-10 --out runs.jsonl

Runs the command of ``BENCHMARK.json`` untraced once per seed and
workload of ``BENCHMARK.json``, one run at a time, from the root of the
checkout.  Each run's JSON result is appended to ``--out`` as
``{"workload", "seed", "result"}``; ``compare.py`` reads these files.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for seed in parse_seeds(args.seeds):
        for name in [w["name"] for w in bench["workloads"]]:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": name, "seed": seed, "result": result}) + "\n")
            print(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
