"""One timed batch in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --out OUT (--n N | --graph6 FILE) [--spans FILE]

Imports qsymgraph from the checkout's ``src`` and nowhere else, then times
``pipeline.run_batch`` from the call until the report, its NDJSON and
its summary are written.  With ``--spans`` the public functions are
traced (see tracing.py), the spans are written to that file after the
batch, and the per-layer metrics join the output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", type=Path, required=True)
    source = ap.add_mutually_exclusive_group(required=True)
    source.add_argument("--n", type=int)
    source.add_argument("--graph6", type=Path)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import qsymgraph
    from qsymgraph import pipeline

    if Path(qsymgraph.__file__).resolve().parent != SRC / "qsymgraph":
        print(f"qsymgraph imported from {qsymgraph.__file__}, not {SRC}", file=sys.stderr)
        return 1

    tracer = None
    if args.spans is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    cfg = pipeline.RunConfig(n=args.n, graph6_path=args.graph6, out=args.out)
    start = time.perf_counter()
    report = pipeline.run_batch(cfg)
    wall = time.perf_counter() - start

    result = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "input_errors": list(report.input_errors),
        "cap_failures": list(report.cap_failures),
    }
    if tracer is not None:
        tracer.write_spans(args.spans)
        result["layers"] = tracer.layer_metrics()
        result["graph_ms"] = tracer.graph_times_ms()
        result["absent_layers"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
