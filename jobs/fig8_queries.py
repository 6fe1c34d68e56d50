#!/usr/bin/env python
"""Figure 8 — MCOS generation + query evaluation time vs #queries."""
import os as _os
import sys as _sys

_sys.path.insert(0, _os.path.dirname(_os.path.dirname(_os.path.abspath(__file__))))

from jobs._common import emit, save_csv
from repro.bench import fig8_rows, format_rows


def main() -> None:
    rows = fig8_rows()
    emit(
        "Figure 8: generation + evaluation time (s) vs #queries",
        format_rows(rows, ["dataset", "n_queries", "method", "seconds", "matches", "evaluations"]),
    )
    save_csv(rows, "fig8.csv")


if __name__ == "__main__":
    main()
