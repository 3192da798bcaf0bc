#!/usr/bin/env python3
"""Classify all connected graphs on 4..7 vertices and print the tables.

Each column lists, per automorphism-group order, how many graphs exist
and how many of them have quantum symmetries.  Pass --n to restrict the
sizes, --jobs for parallel classification, and --out to persist records.

    python3 scripts/reproduce_tables.py --n 4 5 6 7
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qsymgraph.pipeline import RunConfig, render_table, run_batch


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+", default=[4, 5, 6, 7])
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None,
                        help="base path; per-size suffixes are appended")
    args = parser.parse_args()
    for n in args.n:
        start = time.perf_counter()
        out = Path(f"{args.out}-n{n}") if args.out else None
        report = run_batch(RunConfig(n=n, jobs=args.jobs, out=out))
        elapsed = time.perf_counter() - start
        print(f"connected graphs on {n} vertices ({elapsed:.1f}s)")
        print(render_table(report))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
