#!/usr/bin/env python3
"""Check that a traced benchmark run passed its checks and reports every
per-layer metric.

    python3 perfbench/run.py --workload all --seconds 1 --trace 1 > trace.out 2> trace.err
    python3 scripts/check_trace.py trace.out trace.err

The tracer drops a metric without failing the run when its probed
function is gone (an ``absent layer`` line on standard error) or when
its counter cannot read the function's result.  This script exits 1,
naming each problem, when the last line of the run's standard output is
not a result, when that result is not ``correct`` or counts ``failed``
graphs (the traced outputs failed the benchmark's checks), when a
workload in BENCHMARK.json lacks one of the per-layer metrics listed
there, when a workload ran completions (``groebner.complete_calls``
above 0) but counted no relations (``classify.relations`` of 0), which
means the package built its presentations past the probed
``classify.build_relations``, or when standard error has an ``absent
layer`` line.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def problems(stdout: str, stderr: str, spec: dict) -> list[str]:
    """Every problem of a ``--workload all --trace 1`` run against ``spec``,
    the parsed BENCHMARK.json."""
    found = [line for line in stderr.splitlines() if "absent layer" in line]
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        return found + ["the last line of standard output is not a result"]
    if result.get("correct") is not True:
        found.append(f"the outputs failed the benchmark's checks: correct is "
                     f"{result.get('correct')!r}")
    if result.get("failed") != 0:
        found.append(f"failed counts {result.get('failed')!r} graphs, not 0")
    for workload in spec["workloads"]:
        for metric in spec["per_layer"]:
            name = f"{workload['name']}.{metric['name']}"
            if name not in metrics:
                found.append(f"missing per-layer metric {name}")
        calls, relations = (metrics.get(f"{workload['name']}.{m}", {}).get("value")
                            for m in ("groebner.complete_calls", "classify.relations"))
        if calls and relations == 0:
            found.append(f"{workload['name']}: groebner.complete_calls is {calls} but "
                         "classify.relations is 0")
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("stdout", type=Path, help="standard output of the traced run")
    ap.add_argument("stderr", type=Path, help="standard error of the traced run")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    found = problems(args.stdout.read_text(), args.stderr.read_text(), spec)
    for problem in found:
        print(problem, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
