#!/usr/bin/env python
"""Figure 9 — 100 >=-only queries, varying n_min; _O variants add the
Section 5.3 termination pruning."""
import os as _os
import sys as _sys

_sys.path.insert(0, _os.path.dirname(_os.path.dirname(_os.path.abspath(__file__))))

from jobs._common import emit, save_csv
from repro.bench import fig9_rows, format_rows


def main() -> None:
    rows = fig9_rows()
    emit(
        "Figure 9: evaluation time (s) vs n_min (>=-only queries)",
        format_rows(
            rows,
            ["dataset", "n_min", "method", "seconds", "matches", "peak_states", "terminated", "evaluations"],
        ),
    )
    save_csv(rows, "fig9.csv")


if __name__ == "__main__":
    main()
