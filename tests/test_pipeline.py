"""Batch runs, aggregation, rendering, persistence, and the CLI."""

import dataclasses
import importlib
import json
from pathlib import Path

import pytest

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

from conftest import complete_graph, house_x

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
    blocks = ["0 1\n1 0", "\n".join("".join(str(x) for x in row) for row in house.adj)]
    src.write_text("\n\n".join(blocks) + "\n")
    report = run_batch(RunConfig(graph6_path=src))  # the content says adjacency
    assert [rec.n for rec in report.records] == [2, 5]
    assert report.records[1].verdict == "QuantumSymmetric"


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


def test_json_round_trip(n4_report):
    data = json.loads(json.dumps(report_to_json(n4_report)))
    records = tuple(GraphRecord.from_json_dict(d) for d in data["records"])
    assert report_from_records(records) == n4_report
    assert data["table"] == [dataclasses.asdict(row) for row in n4_report.rows]


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
])
def test_cli_table_names_a_malformed_line(tmp_path, capsys, n4_report, kind, message):
    good, fields = (rec.to_json_dict() for rec in n4_report.records[:2])
    if kind == "array":
        fields = [1, 2]
    elif kind == "missing":
        del fields["gb_size"]
    else:
        fields["extra"] = 0
    src = tmp_path / "runs.ndjson"
    src.write_text(json.dumps(good) + "\n" + json.dumps(fields) + "\n")
    assert cli_main(["table", "--input", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 2: {message}\n"


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
