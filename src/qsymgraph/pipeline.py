"""Batch orchestration, Table-style aggregation, and persistence.

Per-graph results are newline-delimited JSON records; the aggregate table
groups graphs by automorphism-group order.  Reports are deterministic for
a fixed configuration except for the wall_time_ms fields.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from .automorphisms import cycle_notation
from .classify import ClassifyConfig, Verdict, classify
from .graphs import (
    Graph,
    GraphError,
    looks_like_adjacency,
    parse_adjacency,
    parse_graph6,
    to_graph6,
)
from .groebner import ResourceCapError

FORMATS = ("text", "json", "csv")


@dataclass(frozen=True)
class RunConfig:
    """One input source, classification knobs, and output destination.

    A ``graph6_path`` file whose text is only 0/1 digits and whitespace
    holds adjacency blocks, since no graph6 line can, and is read as such.
    """

    n: int | None = None
    graph6_path: Path | None = None
    adjacency_path: Path | None = None
    classify: ClassifyConfig = field(default_factory=ClassifyConfig)
    jobs: int = 1
    fmt: str = "text"
    out: Path | None = None

    def __post_init__(self):
        sources = sum(x is not None for x in (self.n, self.graph6_path, self.adjacency_path))
        if sources != 1:
            raise ValueError("exactly one input source required")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.fmt not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")


@dataclass(frozen=True)
class GraphRecord:
    graph6: str
    n: int
    aut_order: int
    disjoint_pair: tuple[str, str] | None
    qsym_output: int | None
    verdict: str
    gb_degree_bound: int | None
    gb_size: int | None
    wall_time_ms: int

    def to_json_dict(self) -> dict:
        return {
            "graph6": self.graph6,
            "n": self.n,
            "aut_order": self.aut_order,
            "disjoint_pair": list(self.disjoint_pair) if self.disjoint_pair else None,
            "qsym_output": self.qsym_output,
            "verdict": self.verdict,
            "gb_degree_bound": self.gb_degree_bound,
            "gb_size": self.gb_size,
            "wall_time_ms": self.wall_time_ms,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "GraphRecord":
        pair = d["disjoint_pair"]
        return GraphRecord(
            graph6=d["graph6"],
            n=d["n"],
            aut_order=d["aut_order"],
            disjoint_pair=tuple(pair) if pair else None,
            qsym_output=d["qsym_output"],
            verdict=d["verdict"],
            gb_degree_bound=d["gb_degree_bound"],
            gb_size=d["gb_size"],
            wall_time_ms=d["wall_time_ms"],
        )


@dataclass(frozen=True)
class OrderRow:
    order: int
    total: int
    qsym: int
    undecided: int


@dataclass(frozen=True)
class BatchReport:
    records: tuple[GraphRecord, ...]
    rows: tuple[OrderRow, ...]
    input_errors: tuple[str, ...] = ()
    cap_failures: tuple[str, ...] = ()

    @property
    def total(self) -> int:
        return sum(r.total for r in self.rows)

    @property
    def total_qsym(self) -> int:
        return sum(r.qsym for r in self.rows)

    @property
    def total_undecided(self) -> int:
        return sum(r.undecided for r in self.rows)


def classify_with_record(g: Graph, cfg: ClassifyConfig) -> tuple[Verdict, GraphRecord]:
    start = time.perf_counter()
    verdict = classify(g, cfg)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return verdict, _to_record(g, verdict, elapsed_ms)


def _to_record(g: Graph, verdict: Verdict, elapsed_ms: int) -> GraphRecord:
    pair = verdict.disjoint_pair
    algebra = verdict.algebra
    return GraphRecord(
        graph6=to_graph6(g),
        n=g.n,
        aut_order=verdict.aut_order,
        disjoint_pair=(cycle_notation(pair[0]), cycle_notation(pair[1])) if pair else None,
        qsym_output=verdict.qsym_output,
        verdict=verdict.kind.value,
        gb_degree_bound=algebra.degree_bound if algebra else None,
        gb_size=algebra.basis_size if algebra else None,
        wall_time_ms=elapsed_ms,
    )


def _worker(args):
    g, cfg = args
    try:
        return "ok", classify_with_record(g, cfg)[1]
    except ResourceCapError as exc:
        return "cap", f"{to_graph6(g)}: {exc}"


def load_graphs(cfg: RunConfig) -> tuple[list[Graph], list[str]]:
    """Graphs from the configured source plus per-item error messages."""
    errors: list[str] = []
    graphs: list[Graph] = []
    if cfg.n is not None:
        from .graphs import enumerate_connected

        graphs = enumerate_connected(cfg.n)
    else:
        text = Path(cfg.graph6_path or cfg.adjacency_path).read_text()
        if cfg.adjacency_path is not None or looks_like_adjacency(text):
            for bno, block in enumerate(text.split("\n\n"), start=1):
                if not block.strip():
                    continue
                try:
                    graphs.append(parse_adjacency(block))
                except GraphError as exc:
                    errors.append(f"block {bno}: {exc}")
        else:
            for lineno, line in enumerate(text.splitlines(), start=1):
                if not line.strip():
                    continue
                try:
                    graphs.append(parse_graph6(line))
                except GraphError as exc:
                    errors.append(f"line {lineno}: {exc}")
    return graphs, errors


def aggregate(records) -> tuple[OrderRow, ...]:
    """Rows keyed by automorphism-group order, descending."""
    by_order: dict[int, list[GraphRecord]] = {}
    for rec in records:
        by_order.setdefault(rec.aut_order, []).append(rec)
    rows = []
    for order in sorted(by_order, reverse=True):
        group = by_order[order]
        rows.append(OrderRow(
            order=order,
            total=len(group),
            qsym=sum(r.verdict == "QuantumSymmetric" for r in group),
            undecided=sum(r.verdict == "Undecided" for r in group),
        ))
    return tuple(rows)


def run_batch(cfg: RunConfig) -> BatchReport:
    """Classify every input graph, aggregate, and persist if configured.

    Graphs that trip an engine resource cap are reported in
    ``cap_failures``; the remaining records still form a partial report.
    """
    graphs, errors = load_graphs(cfg)
    tasks = [(g, cfg.classify) for g in graphs]
    if cfg.jobs > 1 and len(graphs) > 1:
        import multiprocessing  # only worker pools need it

        with multiprocessing.Pool(cfg.jobs) as pool:
            results = pool.map(_worker, tasks)
    else:
        results = map(_worker, tasks)
    records: list[GraphRecord] = []
    failures: list[str] = []
    for kind, payload in results:
        if kind == "ok":
            records.append(payload)
        else:
            failures.append(payload)
    report = BatchReport(tuple(records), aggregate(records),
                         tuple(errors), tuple(failures))
    if sum(r.total for r in report.rows) != len(records):
        raise AssertionError("aggregation does not conserve the record count")
    if cfg.out is not None:
        persist_report(report, cfg.out, cfg.fmt)
    return report


def persist_report(report: BatchReport, out: Path, fmt: str) -> None:
    """Write ``<out>.ndjson`` records and a ``<out>.summary.<ext>`` table."""
    out = Path(out)
    if out.parent != Path("."):
        out.parent.mkdir(parents=True, exist_ok=True)
    write_records(report.records, Path(str(out) + ".ndjson"))
    ext = {"text": "txt", "json": "json", "csv": "csv"}[fmt]
    Path(str(out) + f".summary.{ext}").write_text(render_table(report, fmt) + "\n")


def write_records(records, path: Path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json_dict()) + "\n")


def read_records(path: Path) -> list[GraphRecord]:
    records = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            records.append(GraphRecord.from_json_dict(json.loads(line)))
    return records


def report_from_records(records) -> BatchReport:
    return BatchReport(tuple(records), aggregate(records))


def render_table(report: BatchReport, fmt: str = "text") -> str:
    """Aggregate table, rows by descending order, trailing totals row."""
    if fmt == "text":
        lines = [f"{'order':>6} {'total':>6} {'qsym':>6} {'undecided':>10}"]
        for row in report.rows:
            lines.append(f"{row.order:>6} {row.total:>6} {row.qsym:>6} {row.undecided:>10}")
        lines.append(
            f"{'total':>6} {report.total:>6} {report.total_qsym:>6} "
            f"{report.total_undecided:>10}")
        return "\n".join(lines)
    if fmt == "csv":
        lines = ["order,total,qsym,undecided"]
        for row in report.rows:
            lines.append(f"{row.order},{row.total},{row.qsym},{row.undecided}")
        lines.append(f"total,{report.total},{report.total_qsym},{report.total_undecided}")
        return "\n".join(lines)
    if fmt == "json":
        return json.dumps(report_to_json(report), indent=2, sort_keys=False)
    raise ValueError(f"unknown format {fmt!r}")


def report_to_json(report: BatchReport) -> dict:
    return {
        "records": [r.to_json_dict() for r in report.records],
        "table": [
            {"order": r.order, "total": r.total, "qsym": r.qsym, "undecided": r.undecided}
            for r in report.rows
        ],
        "totals": {
            "total": report.total,
            "qsym": report.total_qsym,
            "undecided": report.total_undecided,
        },
        "input_errors": list(report.input_errors),
        "cap_failures": list(report.cap_failures),
    }


def report_from_json(data: dict) -> BatchReport:
    records = tuple(GraphRecord.from_json_dict(d) for d in data["records"])
    rows = tuple(
        OrderRow(d["order"], d["total"], d["qsym"], d["undecided"]) for d in data["table"]
    )
    return BatchReport(records, rows,
                       tuple(data.get("input_errors", ())),
                       tuple(data.get("cap_failures", ())))
