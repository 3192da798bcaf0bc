"""Self-test of the benchmark, about 15 s:

    python3 perfbench/selftest.py

Runs each workload on a reduced input (n = 5 for ``batch-n7``, the atlas
up to 5 vertices for ``atlas-g6``, a 5- and 6-vertex family for
``highsym-8to9``), untraced and traced, with every correctness check on.
Then shows that the checks reject tampered records, that the benchmark
refuses to run without the qsymgraph sources, that a probed function
that has gone is reported as an absent layer, and that BENCHMARK.json
lists exactly the metrics the benchmark prints.  Exits 0 when all pass.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import checks
import run
from tracing import LAYER_METRICS, Tracer
from workloads import REDUCED, WORKLOADS

SELFTEST_OUT = run.OUT / "selftest"


def check_reduced_runs() -> dict:
    """Every reduced workload passes its checks and reports every metric."""
    first_rounds = {}
    for name, build in REDUCED.items():
        wl = build()
        for trace in (False, True):
            summary = run.run_workload(wl, 0, trace, SELFTEST_OUT)
            assert summary["correct"] and summary["failed"] == 0, (wl.name, summary)
            expected = LAYER_METRICS if trace else run.END_TO_END
            assert set(summary["metrics"]) == set(expected), (wl.name, trace)
        records = run.read_records(SELFTEST_OUT / wl.name / "round0.ndjson")
        first_rounds[name] = (wl, records)
        print(f"[ok] {wl.name}: {wl.size} graphs, untraced and traced runs correct")
    return first_rounds


def _problems(wl, records) -> checks.Problems:
    problems = checks.Problems()
    graphs = [checks.to_nx(rec["graph6"]) for rec in records]
    checks.check_verdicts(records, graphs, problems)
    wl.check(records, graphs, problems)
    return problems


def _first(records, predicate) -> int:
    return next(i for i, rec in enumerate(records) if predicate(rec))


def check_tampering(first_rounds) -> None:
    """Each kind of wrong record is caught."""
    qsym = lambda rec: rec["verdict"] == checks.QSYM
    small = lambda rec: rec["aut_order"] == 2
    tamperings = {
        "batch-n7": [
            ("aut_order off by one", qsym, lambda r, i: r[i].update(aut_order=r[i]["aut_order"] + 1)),
            ("pair sharing a point", qsym, lambda r, i: r[i].update(disjoint_pair=["(1,2)", "(2,3)"])),
            ("identity in the pair", qsym, lambda r, i: r[i].update(disjoint_pair=["()", "(1,2)"])),
            ("pair of non-automorphisms", small,
             lambda r, i: r[i].update(verdict=checks.QSYM, disjoint_pair=["(1,2)", "(3,4)"])),
            ("NotQuantumSymmetric with a pair", qsym,
             lambda r, i: r[i].update(verdict=checks.NOT_QSYM, qsym_output=1)),
            ("qsym_output 0", small, lambda r, i: r[i].update(qsym_output=0)),
            ("Undecided", small, lambda r, i: r[i].update(verdict="Undecided")),
            ("one graph missing", small, lambda r, i: r.pop(i)),
            ("one graph twice", small, lambda r, i: r.__setitem__(i, dict(r[i - 1]))),
        ],
        "atlas-g6": [
            ("relabelled input", small, lambda r, i: r[i].update(graph6=r[i - 1]["graph6"])),
            ("n = 5 table changed", lambda rec: rec["n"] == 5 and rec["aut_order"] == 120,
             lambda r, i: r[i].update(aut_order=24)),
        ],
        "highsym-8to9": [
            ("closed form missed", qsym, lambda r, i: r[i].update(aut_order=r[i]["aut_order"] * 2)),
        ],
    }
    for name, cases in tamperings.items():
        wl, records = first_rounds[name]
        assert not _problems(wl, records), name
        for label, where, tamper in cases:
            bad = copy.deepcopy(records)
            tamper(bad, _first(bad, where))
            assert _problems(wl, bad), (wl.name, label)
        print(f"[ok] {wl.name}: {len(cases)} tampered variants rejected")


def check_bare_directory() -> None:
    """Without the program's sources the benchmark fails and prints no result."""
    bare = SELFTEST_OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "batch-n7",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    shutil.rmtree(bare)
    print("[ok] without src/qsymgraph the benchmark exits", proc.returncode)


def check_absent_layer() -> None:
    """A probed function that no longer exists is reported, not fatal."""
    sys.path.insert(0, str(run.ROOT / "src"))
    from qsymgraph import fulton

    original = fulton.zero_pattern
    del fulton.zero_pattern
    try:
        tracer = Tracer()
        tracer.install()
    finally:
        fulton.zero_pattern = original
    metrics = tracer.layer_metrics()
    assert tracer.absent == ["fulton.zero_pattern"], tracer.absent
    assert not any(name.startswith("fulton.") for name in metrics), metrics
    assert "groebner.complete_s" in metrics
    print("[ok] a missing probed function is reported as an absent layer")


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", LAYER_METRICS)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == table, key
    print("[ok] BENCHMARK.json lists the workloads and metrics printed")


def main() -> int:
    first_rounds = check_reduced_runs()
    check_tampering(first_rounds)
    check_bare_directory()
    check_absent_layer()
    check_benchmark_json()
    shutil.rmtree(SELFTEST_OUT)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
