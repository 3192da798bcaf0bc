"""Batch runs, aggregation, rendering, persistence, and the CLI."""

import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qsymgraph
from qsymgraph import RunConfig, render_table, run_batch, to_graph6
from qsymgraph.classify import ClassifyConfig
from qsymgraph.cli import main as cli_main
from qsymgraph.groebner import EngineLimits
from qsymgraph.pipeline import (
    GraphRecord,
    OrderRow,
    read_records,
    report_from_records,
    report_to_json,
    write_records,
)

from conftest import atlas_graphs, complete_graph, house_x
from walk_oracle import adjacency

EXPECTED_N4_ROWS = (
    OrderRow(24, 1, 1, 0),
    OrderRow(8, 1, 1, 0),
    OrderRow(6, 1, 0, 0),
    OrderRow(4, 1, 1, 0),
    OrderRow(2, 2, 0, 0),
)


@pytest.fixture(scope="module")
def n4_report():
    return run_batch(RunConfig(n=4))


def strip_times(report_json):
    for rec in report_json["records"]:
        rec["wall_time_ms"] = 0
    return report_json


def test_run_config_validation(tmp_path):
    with pytest.raises(ValueError, match="input source"):
        RunConfig()
    with pytest.raises(ValueError, match="input source"):
        RunConfig(n=4, graph6_path=tmp_path / "x")
    with pytest.raises(ValueError, match="jobs"):
        RunConfig(n=4, jobs=0)
    with pytest.raises(ValueError, match="format"):
        RunConfig(n=4, fmt="yaml")
    for cap in (1, 0, -1):
        with pytest.raises(ValueError, match="gb_degree_cap"):
            ClassifyConfig(gb_degree_cap=cap)
    assert ClassifyConfig(gb_degree_cap=2).gb_degree_cap == 2


def test_four_vertex_batch_matches_expected_rows(n4_report):
    assert n4_report.rows == EXPECTED_N4_ROWS
    assert (n4_report.total, n4_report.total_qsym) == (6, 3)
    assert n4_report.total_undecided == 0


def test_records_carry_evidence(n4_report):
    by_order = {rec.aut_order: rec for rec in n4_report.records}
    assert by_order[24].disjoint_pair is not None
    assert by_order[24].qsym_output is None
    assert by_order[6].qsym_output == 1
    assert by_order[6].gb_degree_bound is not None
    assert by_order[6].gb_size is not None


def test_empty_input_file(tmp_path):
    src = tmp_path / "empty.g6"
    src.write_text("\n\n")
    report = run_batch(RunConfig(graph6_path=src))
    assert report.records == ()
    assert report.rows == ()
    assert render_table(report).splitlines()[-1].split() == ["total", "0", "0", "0"]


def test_malformed_lines_reported_and_batch_continues(tmp_path):
    src = tmp_path / "mixed.g6"
    src.write_text("C~\nnot-a-graph\nA_\n")
    report = run_batch(RunConfig(graph6_path=src))
    assert len(report.records) == 2
    assert len(report.input_errors) == 1
    assert "line 2" in report.input_errors[0]


def test_adjacency_batch_input(tmp_path, house):
    src = tmp_path / "graphs.adj"
    blocks = ["0 1\n1 0", "\n".join("".join(str(x) for x in row) for row in adjacency(house))]
    src.write_text("\n\n".join(blocks) + "\n")
    report = run_batch(RunConfig(graph6_path=src))  # the content says adjacency
    assert [rec.n for rec in report.records] == [2, 5]
    assert report.records[1].verdict == "QuantumSymmetric"


def test_input_errors_number_blocks_not_separators(tmp_path):
    # a good 2x2 block, three blank lines, a bad 2x2 block, two blank lines
    # and a 3-row block: the bad ones are the 2nd and the 3rd block
    src = tmp_path / "blocks.adj"
    src.write_text("0 1\n1 0\n\n\n\n0 1\n1 1\n\n\n01\n10\n11\n")
    report = run_batch(RunConfig(graph6_path=src))
    assert [rec.n for rec in report.records] == [2]
    assert report.input_errors == (
        "block 2: nonzero diagonal at vertex 2",
        "block 3: non-square matrix: 3 rows but row lengths [2, 2, 2]",
    )
    # graph6 lines keep their numbers, blank ones included
    src = tmp_path / "blank-lines.g6"
    src.write_text("C~\n\n\n!!!\nA_\n")
    report = run_batch(RunConfig(graph6_path=src))
    assert [rec.n for rec in report.records] == [4, 2]
    assert report.input_errors == ("line 4: malformed header byte '!'",)


def test_disconnected_file_input_still_classified(tmp_path):
    from qsymgraph import Graph

    two_edges = to_graph6(Graph.from_edges(4, [(1, 2), (3, 4)]))
    src = tmp_path / "disc.g6"
    src.write_text(two_edges + "\n")
    report = run_batch(RunConfig(graph6_path=src))
    assert len(report.records) == 1
    assert report.records[0].verdict == "QuantumSymmetric"


def test_determinism_modulo_wall_time():
    a = strip_times(report_to_json(run_batch(RunConfig(n=4))))
    b = strip_times(report_to_json(run_batch(RunConfig(n=4))))
    assert json.dumps(a) == json.dumps(b)


def test_parallel_serial_equivalence():
    serial = strip_times(report_to_json(run_batch(RunConfig(n=4, jobs=1))))
    parallel = strip_times(report_to_json(run_batch(RunConfig(n=4, jobs=3))))
    assert serial == parallel


def test_worker_pool_is_bounded_by_graphs_and_cpus(monkeypatch):
    # a fake pool records the processes asked for and maps in-process, so
    # a large --jobs starts nothing; n = 4 has 6 connected graphs
    import multiprocessing
    import os

    asked = []

    class FakePool:
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return list(map(fn, tasks))

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    serial = strip_times(report_to_json(run_batch(RunConfig(n=4))))
    assert asked == []
    run_batch(RunConfig(n=4, jobs=1000))
    assert all(k <= min(6, os.cpu_count() or 1) for k in asked), asked
    for cpus, expected in ((64, [6]), (2, [2]), (1, []), (None, [])):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        asked.clear()
        report = run_batch(RunConfig(n=4, jobs=1000))
        assert asked == expected, cpus
        assert strip_times(report_to_json(report)) == serial
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    asked.clear()
    run_batch(RunConfig(n=3, jobs=1000))  # 2 graphs
    assert asked == [2]


def test_json_round_trip(n4_report):
    data = json.loads(json.dumps(report_to_json(n4_report)))
    records = tuple(GraphRecord.from_json_dict(d) for d in data["records"])
    assert report_from_records(records) == n4_report
    assert data["table"] == [dataclasses.asdict(row) for row in n4_report.rows]


@pytest.mark.parametrize("verdict", ["Quantum", "quantumsymmetric", ""])
def test_record_rejects_a_verdict_outside_verdict_kind(n4_report, verdict):
    fields = n4_report.records[0].to_json_dict()
    fields["verdict"] = verdict
    with pytest.raises(ValueError, match="field 'verdict'"):
        GraphRecord.from_json_dict(fields)


@pytest.mark.parametrize("changes, message", [
    ({"aut_order": 7}, "field 'aut_order' is 7, but graph6 'C~' has |Aut| = 24"),
    ({"aut_order": 12}, "field 'aut_order' is 12, but graph6 'C~' has |Aut| = 24"),
    ({"graph6": ">>graph6<<C~"}, "field 'graph6' is '>>graph6<<C~', not bare graph6 'C~'"),
    ({"graph6": "C~\n"}, "field 'graph6' is 'C~\\n', not bare graph6 'C~'"),
])
def test_record_rejects_a_graph6_or_order_a_batch_never_writes(n4_report, changes, message):
    # K4: no 4-vertex graph has 7 automorphisms, and a record holds bare graph6
    k4 = next(r for r in n4_report.records if r.graph6 == "C~")
    fields = json.loads(json.dumps(k4.to_json_dict()))
    assert GraphRecord.from_json_dict(fields) == k4
    fields.update(changes)
    with pytest.raises(ValueError, match=re.escape(message)):
        GraphRecord.from_json_dict(fields)


def test_records_round_trip_byte_for_byte(tmp_path, n4_report):
    first = tmp_path / "first.ndjson"
    write_records(n4_report.records, first)
    records = read_records(first)
    assert tuple(records) == n4_report.records
    second = tmp_path / "second.ndjson"
    write_records(records, second)
    assert second.read_bytes() == first.read_bytes()
    pairs = [rec.disjoint_pair for rec in records]
    assert None in pairs
    assert all(type(pair) is tuple for pair in pairs if pair is not None)


def test_render_formats(n4_report):
    text = render_table(n4_report, "text")
    assert text.splitlines()[1].split() == ["24", "1", "1", "0"]
    assert text.splitlines()[-1].split() == ["total", "6", "3", "0"]
    csv = render_table(n4_report, "csv")
    assert csv.splitlines()[0] == "order,total,qsym,undecided"
    assert csv.splitlines()[1] == "24,1,1,0"
    assert csv.splitlines()[-1] == "total,6,3,0"
    with pytest.raises(ValueError):
        render_table(n4_report, "yaml")


def test_persistence_and_reaggregation(tmp_path, n4_report):
    out = tmp_path / "runs" / "n4"
    report = run_batch(RunConfig(n=4, out=out, fmt="csv"))
    records_path = tmp_path / "runs" / "n4.ndjson"
    summary_path = tmp_path / "runs" / "n4.summary.csv"
    assert records_path.exists() and summary_path.exists()
    assert summary_path.read_text().rstrip("\n") == render_table(report, "csv")
    recovered = report_from_records(read_records(records_path))
    assert recovered.rows == report.rows


def test_resource_cap_produces_partial_report(tmp_path):
    src = tmp_path / "graphs.g6"
    src.write_text(to_graph6(house_x()) + "\n" + "Bw" + "\n")  # house then triangle
    tight = ClassifyConfig(limits=EngineLimits(max_basis=1))
    report = run_batch(RunConfig(graph6_path=src, classify=tight))
    assert len(report.cap_failures) >= 1
    assert len(report.records) + len(report.cap_failures) == 2


def test_resource_cap_failures_same_with_worker_pool():
    # the three 4-vertex graphs without a disjoint pair trip the cap
    tight = ClassifyConfig(limits=EngineLimits(max_basis=1))
    serial = run_batch(RunConfig(n=4, classify=tight, jobs=1))
    parallel = run_batch(RunConfig(n=4, classify=tight, jobs=2))
    assert [msg.split(":")[0] for msg in serial.cap_failures] == ["CF", "CL", "CN"]
    assert len(serial.records) == 3
    assert strip_times(report_to_json(parallel)) == strip_times(report_to_json(serial))


# command-line interface


def test_cli_check_text(tmp_path, capsys):
    src = tmp_path / "k4.g6"
    src.write_text("C~\n")
    assert cli_main(["check", "--input", str(src)]) == 0
    out = capsys.readouterr().out
    assert "QuantumSymmetric" in out
    assert "|Aut|:      24" in out


def test_cli_check_k12_json(tmp_path, capsys):
    # 12! automorphisms: found from the stabiliser chain, never listed
    src = tmp_path / "k12.g6"
    src.write_text(to_graph6(complete_graph(12)) + "\n")
    assert cli_main(["check", "--input", str(src), "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["aut_order"] == 479001600
    assert record["disjoint_pair"] == ["(11,12)", "(9,10)"]
    assert record["verdict"] == "QuantumSymmetric"


def test_cli_check_adjacency_json(tmp_path, capsys):
    src = tmp_path / "p2.adj"
    src.write_text("0 1\n1 0\n")
    assert cli_main(["check", "--input", str(src), "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["n"] == 2
    assert record["verdict"] == "NotQuantumSymmetric"
    assert record["qsym_output"] == 1


def test_cli_check_shows_generator_pattern(tmp_path, capsys):
    src = tmp_path / "p3.adj"
    src.write_text("010\n101\n010\n")
    assert cli_main(["check", "--input", str(src)]) == 0
    out = capsys.readouterr().out
    assert "generators:" in out
    assert "u_22" in out and out.count("0") >= 4


def test_cli_check_computes_pattern_once(tmp_path, capsys, monkeypatch):
    # the package exports a function named classify, so fetch the module
    classify = importlib.import_module("qsymgraph.classify")
    fulton = importlib.import_module("qsymgraph.fulton")
    calls = []
    original = fulton.zero_pattern

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(classify, "zero_pattern", counting)
    monkeypatch.setattr(fulton, "zero_pattern", counting)
    src = tmp_path / "p3.g6"
    src.write_text("Bw\n")
    assert cli_main(["check", "--input", str(src)]) == 0
    assert "generators:" in capsys.readouterr().out
    assert len(calls) == 1


def test_cli_check_out_writes_record(tmp_path, capsys):
    src = tmp_path / "k4.g6"
    src.write_text("C~\n")
    out_base = tmp_path / "result"
    assert cli_main(["check", "--input", str(src), "--out", str(out_base)]) == 0
    capsys.readouterr()
    text = (tmp_path / "result.ndjson").read_text()
    record = json.loads(text)
    assert text == json.dumps(record) + "\n"  # one NDJSON line, as batch writes it
    assert record["graph6"] == "C~"
    assert record["verdict"] == "QuantumSymmetric"


def _out_command(tmp_path, command, n4_report):
    """``command`` reading K4 (``check``, ``batch``) or the n = 4 records (``table``)."""
    src = tmp_path / "k4.g6"
    src.write_text("C~\n")
    if command == "table":
        src = tmp_path / "n4.ndjson"
        write_records(n4_report.records, src)
    return [command, "--input", str(src)]


@pytest.mark.parametrize("command", ["check", "batch", "table"])
def test_cli_out_creates_missing_directories(tmp_path, capsys, n4_report, command):
    out = tmp_path / "new" / "deeper" / "x"
    assert cli_main(_out_command(tmp_path, command, n4_report) + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert (tmp_path / "new" / "deeper" / "x.ndjson").is_file()
    assert (tmp_path / "new" / "deeper" / "x.summary.txt").is_file() is (command != "check")


@pytest.mark.parametrize("command", ["check", "batch", "table"])
def test_cli_out_under_a_regular_file_is_an_error_line(tmp_path, capsys, n4_report, command):
    args = _out_command(tmp_path, command, n4_report)
    out = tmp_path / "k4.g6" / "x"  # k4.g6 is a file, so no directory can be made there
    assert cli_main(args + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command, writes", [
    ("check", "write the graph's record to <out>.ndjson"),
    ("batch", "base path for <out>.ndjson and <out>.summary.<ext>"),
    ("table", "base path for <out>.ndjson and <out>.summary.<ext>"),
])
def test_cli_out_help_names_what_is_written(capsys, command, writes):
    # check writes no summary, so its help must not promise one
    with pytest.raises(SystemExit) as exit_info:
        cli_main([command, "--help"])
    assert exit_info.value.code == 0
    out = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
    assert f"--out OUT {writes}" in out
    assert ("summary" in out) is (command != "check")


def test_cli_check_malformed_exits_one(tmp_path, capsys):
    src = tmp_path / "bad.g6"
    src.write_text("!!!\n")
    assert cli_main(["check", "--input", str(src)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("name, data, sizes, input_errors", [
    ("bad-first-line.g6", b"!!!\nC~\nBw\n", [4, 3],
     ["input error: line 1: malformed header byte '!'"]),
    ("two-blocks.adj", b"0 1\n1 0\n\n010\n101\n010\n", [2, 3], []),
    ("empty.g6", b"", [], []),
    ("not-utf8.g6", b"C~\n\xe9\n", None, None),
    # a separator line that holds only whitespace, in a file with CRLF ends
    ("space-separated.adj", b"0 1\r\n1 0\r\n \r\n010\r\n101\r\n010\r\n", [2, 3], []),
])
def test_cli_check_and_batch_read_a_file_alike(tmp_path, capsys, name, data, sizes,
                                               input_errors):
    # both read through load_graphs: the same graphs and the same errors
    src = tmp_path / name
    src.write_bytes(data)
    batch_code = cli_main(["batch", "--input", str(src), "--format", "json"])
    batch = capsys.readouterr()
    check_code = cli_main(["check", "--input", str(src), "--format", "json"])
    check = capsys.readouterr()
    if sizes is None:  # the file cannot be read at all
        assert batch_code == check_code == 1
        assert batch.out == check.out == ""
        assert batch.err == check.err
        assert batch.err.startswith("error: ") and "not UTF-8 text" in batch.err
        return
    records = json.loads(batch.out)["records"]
    assert [rec["n"] for rec in records] == sizes
    assert batch.err.splitlines() == input_errors
    assert batch_code == (1 if input_errors else 0)
    if records:
        assert json.loads(check.out)["graph6"] == records[0]["graph6"]
        assert check.err.splitlines() == input_errors
        assert check_code == batch_code
    else:
        assert check.out == ""
        assert check.err.splitlines() == input_errors + ["error: no graph found in input"]
        assert check_code == 1


@pytest.mark.parametrize("kind, message", [
    ("array", "record is a JSON list, not an object"),
    ("missing", "record lacks fields ['gb_size']"),
    ("extra", "record has unknown fields ['extra']"),
    # a string sorts against no int, so aggregate would raise TypeError
    ("string-order", "field 'aut_order' is a JSON str, not int"),
    # an unknown verdict would be counted in no column but the total
    ("unknown-verdict", "field 'verdict' is 'Quantum', not one of "
                        "['QuantumSymmetric', 'NotQuantumSymmetric', 'Undecided']"),
])
def test_cli_table_names_a_malformed_line(tmp_path, capsys, n4_report, kind, message):
    good, fields = (rec.to_json_dict() for rec in n4_report.records[:2])
    if kind == "array":
        fields = [1, 2]
    elif kind == "missing":
        del fields["gb_size"]
    elif kind == "extra":
        fields["extra"] = 0
    elif kind == "unknown-verdict":
        fields["verdict"] = "Quantum"
    else:
        fields["aut_order"] = "6"
    src = tmp_path / "runs.ndjson"
    src.write_text(json.dumps(good) + "\n" + json.dumps(fields) + "\n")
    assert cli_main(["table", "--input", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 2: {message}\n"


@pytest.mark.parametrize("name, value, message", [
    ("n", 0, "field 'n' is 0, not in 1..16"),
    ("n", 17, "field 'n' is 17, not in 1..16"),
    ("aut_order", -3, "field 'aut_order' is -3, not >= 1"),
    ("aut_order", 0, "field 'aut_order' is 0, not >= 1"),
    ("qsym_output", 7, "field 'qsym_output' is 7, not 0, 1 or null"),
    ("qsym_output", -1, "field 'qsym_output' is -1, not 0, 1 or null"),
    ("gb_degree_bound", -4, "field 'gb_degree_bound' is -4, not >= 0"),
    ("gb_size", -1, "field 'gb_size' is -1, not >= 0"),
    ("wall_time_ms", -1, "field 'wall_time_ms' is -1, not >= 0"),
])
def test_cli_table_rejects_an_out_of_range_value(tmp_path, capsys, n4_report, name, value,
                                                 message):
    # a value out of range would be tallied, e.g. as an order row "-3"
    good, bad = (rec.to_json_dict() for rec in n4_report.records[:2])
    bad[name] = value
    src = tmp_path / "runs.ndjson"
    src.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    assert cli_main(["table", "--input", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 2: {message}\n"


@pytest.mark.parametrize("base, changes, message", [
    ("C~", {"graph6": "!!"}, "field 'graph6' is '!!': malformed header byte '!'"),
    ("C~", {"n": 5}, "field 'n' is 5, but graph6 'C~' has 4 vertices"),
    ("C~", {"disjoint_pair": None},
     "field 'disjoint_pair' is None with verdict 'QuantumSymmetric'; "
     "QuantumSymmetric comes with a pair, and only it does"),
    ("CF", {"disjoint_pair": ["(3,4)", "(1,2)"]},
     "field 'disjoint_pair' is ['(3,4)', '(1,2)'] with verdict 'NotQuantumSymmetric'; "
     "QuantumSymmetric comes with a pair, and only it does"),
    ("C~", {"qsym_output": 0},
     "field 'qsym_output' is 0 with verdict 'QuantumSymmetric', not null"),
    ("C~", {"gb_degree_bound": 4},
     "field 'gb_degree_bound' is 4 with verdict 'QuantumSymmetric', not null"),
    ("C~", {"gb_size": 21}, "field 'gb_size' is 21 with verdict 'QuantumSymmetric', not null"),
    ("CF", {"qsym_output": 0},
     "field 'qsym_output' is 0 with verdict 'NotQuantumSymmetric'; "
     "NotQuantumSymmetric comes with 1, and only it does"),
    ("CF", {"qsym_output": None},
     "field 'qsym_output' is None with verdict 'NotQuantumSymmetric'; "
     "NotQuantumSymmetric comes with 1, and only it does"),
    ("CF", {"verdict": "Undecided"},
     "field 'qsym_output' is 1 with verdict 'Undecided'; "
     "NotQuantumSymmetric comes with 1, and only it does"),
    ("C~", {"graph6": ">>graph6<<C~"},
     "field 'graph6' is '>>graph6<<C~', not bare graph6 'C~'"),
    ("C~", {"aut_order": 7}, "field 'aut_order' is 7, but graph6 'C~' has |Aut| = 24"),
    ("CF", {"aut_order": 2}, "field 'aut_order' is 2, but graph6 'CF' has |Aut| = 6"),
    # a batch writes the pair in the order find_disjoint_pair gives it
    ("C~", {"disjoint_pair": ["(1,2)", "(3,4)"]},
     "field 'disjoint_pair' is ['(1,2)', '(3,4)'], "
     "but the disjoint pair of graph6 'C~' is ['(3,4)', '(1,2)']"),
])
def test_cli_table_rejects_fields_that_disagree(tmp_path, capsys, n4_report, base, changes,
                                                message):
    # such a record would be tallied by its verdict alone
    good = n4_report.records[0].to_json_dict()
    bad = next(r for r in n4_report.records if r.graph6 == base).to_json_dict()
    bad.update(changes)
    src = tmp_path / "runs.ndjson"
    src.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    assert cli_main(["table", "--input", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 2: {message}\n"


@pytest.mark.parametrize("record, message", [
    # P4 has |Aut| = 2, so no disjoint pair; a made-up one must not make it quantum
    ({"graph6": "Ch", "n": 4, "aut_order": 2, "disjoint_pair": ["(1,4)(2,3)", "nonsense"],
      "qsym_output": None, "verdict": "QuantumSymmetric", "gb_degree_bound": None,
      "gb_size": None, "wall_time_ms": 0},
     "field 'disjoint_pair' is ['(1,4)(2,3)', 'nonsense'], "
     "but the disjoint pair of graph6 'Ch' is None"),
    # K4 has the pair (3,4), (1,2); dropping it must not make it classical
    ({"graph6": "C~", "n": 4, "aut_order": 24, "disjoint_pair": None, "qsym_output": 1,
      "verdict": "NotQuantumSymmetric", "gb_degree_bound": None, "gb_size": None,
      "wall_time_ms": 0},
     "field 'disjoint_pair' is None, "
     "but the disjoint pair of graph6 'C~' is ['(3,4)', '(1,2)']"),
])
def test_cli_table_rejects_a_pair_the_graph_does_not_have(tmp_path, capsys, record, message):
    # the pair is derived as classify derives it and compared in cycle notation
    src = tmp_path / "runs.ndjson"
    src.write_text(json.dumps(record) + "\n")
    assert cli_main(["table", "--input", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 1: {message}\n"


def test_cli_table_on_a_file_that_is_not_utf8_names_it(tmp_path, capsys):
    # the same message batch and check print for such a file
    src = tmp_path / "latin1.ndjson"
    src.write_bytes(b"\xe9\n")
    assert cli_main(["table", "--input", str(src)]) == 1
    table = capsys.readouterr()
    assert table.out == ""
    assert table.err == f"error: {src}: not UTF-8 text (invalid continuation byte at byte 0)\n"
    assert cli_main(["batch", "--input", str(src)]) == 1
    assert capsys.readouterr().err == table.err


def test_record_of_an_undecided_graph_reads_back(n4_report):
    # an algebra check that ended truncated or not shown commutative
    for qsym_output in (None, 0):
        fields = n4_report.records[0].to_json_dict()
        fields.update(verdict="Undecided", qsym_output=qsym_output)
        assert GraphRecord.from_json_dict(fields).verdict == "Undecided"


@pytest.mark.parametrize("source", ["n7", "atlas"])
def test_batch_records_read_back(tmp_path, source):
    # every record a batch writes passes the checks on reading it back
    if source == "n7":
        cfg = RunConfig(n=7)
    else:
        atlas = tmp_path / "atlas.g6"
        atlas.write_text("".join(to_graph6(g) + "\n" for g in atlas_graphs()))
        cfg = RunConfig(graph6_path=atlas)
    report = run_batch(cfg)
    assert len(report.records) == (853 if source == "n7" else 996)
    path = tmp_path / "records.ndjson"
    write_records(report.records, path)
    assert tuple(read_records(path)) == report.records


def test_cli_batch_enumerate_and_table_roundtrip(tmp_path, capsys):
    out = tmp_path / "n4"
    assert cli_main(["batch", "--n", "4", "--out", str(out), "--format", "csv"]) == 0
    first = capsys.readouterr().out
    assert "24,1,1,0" in first
    assert cli_main(["table", "--input", str(out) + ".ndjson", "--format", "csv"]) == 0
    second = capsys.readouterr().out
    assert second == first


def test_cli_batch_malformed_line_exits_one(tmp_path, capsys):
    src = tmp_path / "mixed.g6"
    src.write_text("C~\nnope\n")
    assert cli_main(["batch", "--input", str(src)]) == 1
    captured = capsys.readouterr()
    assert "input error" in captured.err


@pytest.mark.parametrize("name, text, rows", [
    ("two.g6", "C~\nBw\n", ["24,1,1,0", "6,1,0,0"]),
    ("two.adj", "0 1\n1 0\n\n010\n101\n010\n", ["2,2,0,0"]),
])
def test_cli_batch_reads_its_input_once(tmp_path, capsys, monkeypatch, name, text, rows):
    # the input kind is decided from the same read that loads the graphs
    src = tmp_path / name
    src.write_text(text)
    reads = []
    original = Path.read_text

    def counting(self, *args, **kwargs):
        reads.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting)
    assert cli_main(["batch", "--input", str(src), "--format", "csv"]) == 0
    assert reads == [src]
    assert capsys.readouterr().out.splitlines()[1:-1] == rows


@pytest.mark.parametrize("setup, source, status, messages", [
    ("", ["--n", "7"], 0, []),
    ("", ["--input", "mixed.g6"], 1, ["input error: line 2: "]),
    # a basis cap of one rule stops the house's completion
    ("groebner.EngineLimits.__init__.__defaults__ = (1, 2_000_000)",
     ["--input", "house.g6"], 2, ["resource cap: "]),
])
def test_cli_batch_into_a_closed_pipe(tmp_path, setup, source, status, messages):
    # a reader that stops early (| head -1) ends the output, not the run:
    # no traceback, the --out files and the stderr lines all there, and
    # the exit code of the run
    (tmp_path / "mixed.g6").write_text("C~\nnope\n")
    (tmp_path / "house.g6").write_text(to_graph6(house_x()) + "\nBw\n")
    script = "\n".join(["import sys", "from qsymgraph import cli, groebner", setup,
                         "sys.exit(cli.main(sys.argv[1:]))"])
    src = str(Path(qsymgraph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-c", script, "batch", *source, "--format", "json",
         "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()  # before the run writes anything
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == status, err
    assert "Traceback" not in err and "Exception ignored" not in err, err
    lines = err.splitlines()
    assert len(lines) == len(messages)
    assert all(line.startswith(m) for line, m in zip(lines, messages)), err
    assert (tmp_path / "out.ndjson").exists() and (tmp_path / "out.summary.json").exists()


def test_cli_missing_file_exits_one(tmp_path, capsys):
    assert cli_main(["batch", "--input", str(tmp_path / "absent.g6")]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["1", "0"])
def test_cli_check_rejects_a_gb_cap_below_two(tmp_path, capsys, cap):
    src = tmp_path / "p3.g6"
    src.write_text("Bw\n")
    assert cli_main(["check", "--input", str(src), "--gb-cap", cap]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "gb_degree_cap" in captured.err


@pytest.mark.parametrize("flag, value, message", [
    ("--gb-cap", "0", "gb_degree_cap"),
    ("--jobs", "0", "jobs"),
])
def test_cli_batch_rejects_bad_config(tmp_path, capsys, flag, value, message):
    out = tmp_path / "n3"
    assert cli_main(["batch", "--n", "3", flag, value, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert not (tmp_path / "n3.ndjson").exists()


@pytest.mark.parametrize("argv", [
    ["batch", "--n", "five"],
    ["batch", "--n", "3", "--format", "xml"],
    ["batch", "--n", "3", "--gb-cap", "x"],
    [],  # no subcommand
    # check prints text or a JSON record, so it takes no csv
    ["check", "--input", "graphs.g6", "--format", "csv"],
])
def test_cli_usage_error_exits_one(capsys, argv):
    # exit 2 belongs to the resource cap, so argparse's own code is not used
    with pytest.raises(SystemExit) as exited:
        cli_main(argv)
    assert exited.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: qsymgraph")
    assert captured.err.splitlines()[-1].startswith("error: ")
