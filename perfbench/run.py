"""Benchmark for qsymgraph: end-to-end and per-layer metrics, checked outputs.

    python3 perfbench/run.py --workload batch-n7 --seconds 30 --trace 0
    python3 perfbench/run.py                 # every workload, one after another

Run from the root of a source checkout; qsymgraph is imported from its
``src`` directory.  Each round classifies the workload's graphs with one
``pipeline.run_batch`` call in a fresh interpreter (``--jobs 1``).  A run
makes the number of whole rounds whose total time is closest to
``--seconds``, at least one.  Every round's output is then checked (see
checks.py); the timed region holds no check.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, the median
of several fresh interpreters importing ``qsymgraph`` and
``qsymgraph.cli``; ``wall_s``, the median batch time; and
``peak_rss_mb``, the median peak resident memory of a batch process.
``--trace 1`` alternates untraced and traced rounds, until at least 40
graphs have been traced, and reports the per-layer metrics of tracing.py
with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--seed`` is
accepted and ignored: the inputs are fixed.  Outputs go to
``.perfbench-out/`` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}
SETUP_REPEATS = 11
# A run of one workload ends within 180 s; stop waiting for rounds before.
RUN_LIMIT_S = 170
# Record fields that may differ between two rounds of the same batch.
UNSTABLE_FIELDS = ("wall_time_ms",)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
    return left


def measure_setup(deadline: float) -> float:
    """Median time for a fresh interpreter to import qsymgraph and its CLI."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = "import qsymgraph, qsymgraph.cli; print(qsymgraph.__file__)"
    first = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                           capture_output=True, text=True, check=True,
                           timeout=_remaining(deadline))
    if not Path(first.stdout.strip()).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"qsymgraph imported from {first.stdout.strip()}")
    cmd = [sys.executable, "-c", "import qsymgraph, qsymgraph.cli"]
    times = []
    for _ in range(SETUP_REPEATS):
        # With pipes the wait ends when the child exits; without them,
        # subprocess polls for the exit at up to 50 ms intervals.
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, check=True,
                       timeout=_remaining(deadline))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_worker(source: list[str], base: Path, spans: Path | None, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--out", str(base), *source]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=_remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"batch worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def read_records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def check_rounds(wl, bases: list[Path], results: list[dict]) -> tuple[bool, int, list]:
    """``(correct, failed graphs, problems)`` over every round.

    The first round gets every check; each later round must repeat its
    records exactly, apart from ``wall_time_ms``.
    """
    import checks

    correct, failed, shown = True, 0, []
    reference = None
    for base, result in zip(bases, results):
        problems = checks.Problems()
        try:
            records = read_records(Path(f"{base}.ndjson"))
        except (OSError, ValueError) as exc:
            problems.add(None, f"unreadable records: {exc}")
            records = []
        checks.check_summary(Path(f"{base}.summary.txt"), records, problems)
        if reference is None:
            try:
                graphs = [checks.to_nx(rec["graph6"]) for rec in records]
            except (KeyError, TypeError, ValueError, UnicodeError) as exc:
                problems.add(None, f"unreadable graph6 in records: {exc}")
            else:
                checks.check_verdicts(records, graphs, problems)
                wl.check(records, graphs, problems)
            reference = [_stable(rec) for rec in records]
        else:
            if len(records) != len(reference):
                problems.add(None, f"{len(records)} records, first round had {len(reference)}")
            for i, (rec, ref) in enumerate(zip(records, reference)):
                if _stable(rec) != ref:
                    problems.add(i, "record differs from the first round's")
        missing = max(0, wl.size - len(records))
        failed += min(wl.size, missing + len(problems.failed_indices()))
        correct = correct and not problems
        shown += problems[:10]
        shown += [(None, msg) for msg in result["input_errors"] + result["cap_failures"]]
    return correct, failed, shown


def _stable(rec: dict) -> dict:
    return {k: v for k, v in rec.items() if k not in UNSTABLE_FIELDS}


def run_workload(wl, seconds: float, trace: bool, out_root: Path = OUT) -> dict:
    """Run rounds of one workload for ``seconds``, check them, and summarise."""
    from tracing import LAYER_METRICS, MIN_TRACED_GRAPHS

    deadline = time.monotonic() + RUN_LIMIT_S
    out = out_root / wl.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if wl.n is not None:
        source = ["--n", str(wl.n)]
    else:
        inputs = out / "inputs.g6"
        inputs.write_text("".join(line + "\n" for line in wl.graph6))
        source = ["--graph6", str(inputs)]

    metrics: dict[str, float] = {}
    if not trace:
        metrics["setup_s"] = measure_setup(deadline)

    bases: list[Path] = []
    results: list[dict] = []
    traced_flags: list[bool] = []
    measured = 0.0
    traced_graphs = 0
    steps = 0
    while True:
        for traced in ((False, True) if trace else (False,)):
            base = out / f"round{len(bases)}"
            start = time.perf_counter()
            results.append(run_worker(source, base, out / "spans.ndjson" if traced else None,
                                      deadline))
            measured += time.perf_counter() - start
            bases.append(base)
            traced_flags.append(traced)
            traced_graphs += wl.size if traced else 0
        steps += 1
        # A step is one round, or an untraced and a traced round.  Stop at
        # the number of whole steps whose total time is closest to --seconds.
        if (measured + measured / steps / 2 >= seconds
                and (not trace or traced_graphs >= MIN_TRACED_GRAPHS)):
            break

    correct, failed, problems = check_rounds(wl, bases, results)
    for index, message in problems:
        where = "batch" if index is None else f"record {index}"
        print(f"{wl.name}: {where}: {message}", file=sys.stderr)

    plain = [r for r, t in zip(results, traced_flags) if not t]
    if trace:
        traced = [r for r, t in zip(results, traced_flags) if t]
        # median_low keeps counts whole: they are the same in every round.
        for name in sorted({k for r in traced for k in r["layers"]}):
            metrics[name] = statistics.median_low(r["layers"][name] for r in traced
                                                  if name in r["layers"])
        graph_ms = [ms for r in traced for ms in r["graph_ms"]]
        if graph_ms:
            metrics["classify.graph_p50_ms"] = statistics.median(graph_ms)
            metrics["classify.graph_p98_ms"] = statistics.quantiles(
                graph_ms, n=50, method="inclusive")[-1]
        metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                       - statistics.median(r["wall_s"] for r in plain))
        for layer in sorted({a for r in traced for a in r["absent_layers"]}):
            print(f"{wl.name}: absent layer {layer}", file=sys.stderr)
        units = LAYER_METRICS
    else:
        metrics["wall_s"] = statistics.median(r["wall_s"] for r in plain)
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
        units = END_TO_END

    summary = {
        "correct": correct,
        "attempted": wl.size * len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }
    rounds = [{"traced": t, "wall_s": r["wall_s"], "peak_rss_mb": r["peak_rss_mb"]}
              for r, t in zip(results, traced_flags)]
    (out / "result.json").write_text(json.dumps({**summary, "rounds": rounds}, indent=1) + "\n")
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    help="batch-n7, atlas-g6, highsym-8to9, or all (default)")
    ap.add_argument("--seed", type=int, default=0,
                    help="accepted and ignored: the inputs are fixed")
    ap.add_argument("--seconds", type=float, default=30,
                    help="time to measure, rounded to whole rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report the per-layer metrics of a traced run")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qsymgraph" / "__init__.py").is_file():
        print(f"error: no qsymgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: the benchmark needs networkx: {exc}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    summaries = {}
    for name in names:
        try:
            summary = run_workload(WORKLOADS[name](), args.seconds, bool(args.trace))
        except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        for metric, m in summary["metrics"].items():
            print(f"{name}  {metric} = {m['value']} {m['unit']}")
        print(f"{name}  attempted {summary['attempted']} graphs, failed {summary['failed']},"
              f" correct {summary['correct']}")
        summaries[name] = summary
    if len(summaries) == 1:
        print(json.dumps(summary))
        return 0
    for summary in summaries.values():
        print(json.dumps(summary))
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": {f"{name}.{metric}": m for name, s in summaries.items()
                    for metric, m in s["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
