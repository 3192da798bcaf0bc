"""scripts/check_trace.py, the check on a traced benchmark run, on made-up
runs, and the names the benchmark's tracer probes and its counters, read on
real results."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


check_trace = _load("check_trace", ROOT / "scripts" / "check_trace.py")
tracing = _load("perfbench_tracing", ROOT / "perfbench" / "tracing.py")

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(drop=(), **fields):
    """Standard output of a run whose last line holds every per-layer
    metric of every workload, except those named in ``drop``, and passed
    its checks, unless ``fields`` says otherwise."""
    metrics = {f"{w['name']}.{m['name']}": {"value": 0, "unit": m["unit"]}
               for w in SPEC["workloads"] for m in SPEC["per_layer"]}
    for name in drop:
        del metrics[name]
    last = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics, **fields}
    return "batch-n7  graphs.count = 853 count\n" + json.dumps(last) + "\n"


def test_complete_run_passes():
    assert check_trace.problems(_run(), "", SPEC) == []


def test_missing_metric_is_named():
    assert check_trace.problems(_run(["atlas-g6.graphs.count"]), "", SPEC) == [
        "missing per-layer metric atlas-g6.graphs.count"]


def test_absent_layer_fails():
    err = "batch-n7: absent layer classify.qsym_check\n"
    assert check_trace.problems(_run(), err, SPEC) == [err.strip()]


def test_completions_without_relations_fail():
    # a completion runs on relations, so a workload that traced one but
    # counted none built its presentations where the tracer does not look
    out = json.loads(_run().splitlines()[-1])
    out["metrics"]["atlas-g6.groebner.complete_calls"]["value"] = 30
    assert check_trace.problems(json.dumps(out) + "\n", "", SPEC) == [
        "atlas-g6: groebner.complete_calls is 30 but classify.relations is 0"]
    out["metrics"]["atlas-g6.classify.relations"]["value"] = 4322
    assert check_trace.problems(json.dumps(out) + "\n", "", SPEC) == []


def test_failed_checks_fail():
    assert check_trace.problems(_run(correct=False, failed=3), "", SPEC) == [
        "the outputs failed the benchmark's checks: correct is False",
        "failed counts 3 graphs, not 0"]
    # a run can fail a check on no graph in particular
    assert check_trace.problems(_run(correct=False), "", SPEC) == [
        "the outputs failed the benchmark's checks: correct is False"]
    assert check_trace.problems(_run(failed=1), "", SPEC) == ["failed counts 1 graphs, not 0"]


def test_result_without_check_fields_fails():
    out = json.dumps({"metrics": json.loads(_run().splitlines()[-1])["metrics"]}) + "\n"
    assert check_trace.problems(out, "", SPEC) == [
        "the outputs failed the benchmark's checks: correct is None",
        "failed counts None graphs, not 0"]


def test_last_line_not_a_result_fails():
    for out in ("", "Traceback (most recent call last):\n", _run() + "done\n"):
        assert check_trace.problems(out, "", SPEC) == [
            "the last line of standard output is not a result"]


def test_main_exit_code(tmp_path):
    out, err = tmp_path / "out", tmp_path / "err"
    err.write_text("")
    out.write_text(_run())
    assert check_trace.main([str(out), str(err)]) == 0
    out.write_text(_run(["highsym-8to9.trace.spans"]))
    assert check_trace.main([str(out), str(err)]) == 1
    out.write_text(_run(correct=False))
    assert check_trace.main([str(out), str(err)]) == 1


def test_every_probe_names_a_package_function():
    # the tracer reports a probe whose target is gone as an absent layer,
    # which fails the traced run; resolve each target as it would, without
    # installing the tracer
    for probe in tracing.PROBES:
        target = importlib.import_module(f"qsymgraph.{probe.layer}")
        for attr in probe.target.split("."):
            target = getattr(target, attr)
        assert callable(target), probe.name
    # the Groebner probe keeps its old name, an alias of the one rewriting class
    groebner = importlib.import_module("qsymgraph.groebner")
    assert groebner.Reducer.normal_form is groebner.GBasis.normal_form


def test_every_probe_counter_reads_a_real_result(tmp_path):
    # the tracer drops a counter that raises on its result; read each one
    # on the result of one real call of its probe on a small input
    from qsymgraph.automorphisms import automorphism_group
    from qsymgraph.classify import build_relations
    from qsymgraph.fulton import zero_pattern
    from qsymgraph.graphs import enumerate_connected, parse_graph6
    from qsymgraph.groebner import complete
    from qsymgraph.pipeline import RunConfig, run_batch

    p4, k4 = parse_graph6("Ch"), parse_graph6("C~")
    pres = build_relations(p4, zero_pattern(p4))
    basis = complete(pres.relations, degree_bound=4)
    batch = tmp_path / "three.g6"
    batch.write_text("Bw\nCh\nC~\n")
    results = {
        "graphs.enumerate_connected": enumerate_connected(4),
        "graphs.parse_graph6": k4,
        "automorphisms.automorphism_group": automorphism_group(k4),
        "fulton.zero_pattern": zero_pattern(p4),
        "classify.build_relations": pres,
        "groebner.complete": basis,
        "groebner.Reducer.normal_form": basis.normal_form(pres.relations[-1]),
        "pipeline.run_batch": run_batch(RunConfig(graph6_path=batch)),
    }
    counted = {probe.name: probe for probe in tracing.PROBES if probe.counters}
    assert sorted(counted) == sorted(results)
    counts = {}  # summed as the tracer sums them, since probes share a key
    for name, probe in counted.items():
        for key, count in probe.counters:
            value = count(results[name])
            assert type(value) is int and value >= 0, (name, key, value)
            counts[key] = counts.get(key, 0) + value
    assert counts["graphs.count"] == 6 + 1
    assert counts["automorphisms.elements"] == 24
    assert counts["groebner.basis_size"] == basis.size > 0
    assert counts["pipeline.records"] == 3
