"""Batch orchestration, Table-style aggregation, and persistence.

Per-graph results are newline-delimited JSON records; the aggregate table
groups graphs by automorphism-group order.  Reports are deterministic for
a fixed configuration except for the wall_time_ms fields.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, fields
from itertools import groupby
from pathlib import Path

from .automorphisms import automorphism_group, cycle_notation, find_disjoint_pair
from .classify import ClassifyConfig, Verdict, VerdictKind, classify
from .graphs import (
    MAX_VERTICES,
    Graph,
    GraphError,
    enumerate_connected,
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

    The source is ``n`` (every connected graph on n vertices) or a file.
    The file field keeps the name ``graph6_path`` because
    ``perfbench/worker.py`` passes it, but the file's content decides its
    format: text of only 0/1 digits and whitespace holds adjacency blocks,
    since no graph6 line can; any other text holds graph6 lines.
    """

    n: int | None = None
    graph6_path: Path | None = None
    classify: ClassifyConfig = field(default_factory=ClassifyConfig)
    jobs: int = 1
    fmt: str = "text"
    out: Path | None = None

    def __post_init__(self):
        if (self.n is None) == (self.graph6_path is None):
            raise ValueError("exactly one input source required")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.fmt not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")


@dataclass(frozen=True)
class GraphRecord:
    """One classified graph.  Its fields, in this order, are the NDJSON
    record schema; no other code lists them."""

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
        # a shallow walk: dataclasses.asdict would deep-copy every value
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json_dict(cls, d) -> "GraphRecord":
        """Inverse of :meth:`to_json_dict` on a decoded JSON value; anything
        but an object with exactly the record's fields, each holding a
        value of its field's type in the range a classified graph gives,
        with a verdict that names a :class:`VerdictKind` and fields that
        agree as :func:`_to_record` writes them, raises ValueError."""
        if not isinstance(d, dict):
            raise ValueError(f"record is a JSON {type(d).__name__}, not an object")
        names = [f.name for f in fields(cls)]
        missing = [k for k in names if k not in d]
        if missing:
            raise ValueError(f"record lacks fields {missing}")
        extra = [k for k in d if k not in names]
        if extra:
            raise ValueError(f"record has unknown fields {extra}")
        for f in fields(cls):
            if not _fits(d[f.name], f.type):
                raise ValueError(
                    f"field {f.name!r} is a JSON {type(d[f.name]).__name__}, not {f.type}")
        kinds = [k.value for k in VerdictKind]
        if d["verdict"] not in kinds:
            raise ValueError(f"field 'verdict' is {d['verdict']!r}, not one of {kinds}")
        if not 1 <= d["n"] <= MAX_VERTICES:
            raise ValueError(f"field 'n' is {d['n']}, not in 1..{MAX_VERTICES}")
        if d["aut_order"] < 1:
            raise ValueError(f"field 'aut_order' is {d['aut_order']}, not >= 1")
        if d["qsym_output"] not in (0, 1, None):
            raise ValueError(f"field 'qsym_output' is {d['qsym_output']}, not 0, 1 or null")
        for name in ("gb_degree_bound", "gb_size", "wall_time_ms"):
            if (d[name] or 0) < 0:
                raise ValueError(f"field {name!r} is {d[name]}, not >= 0")
        _check_agreement(d)
        # JSON has no tuples, so the disjoint pair comes back as a list
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})


def _check_agreement(d: dict) -> None:
    """Raise ValueError unless the fields of a record agree as
    :func:`_to_record` writes them: ``graph6`` is bare graph6, with no
    header and nothing around it; ``n`` is its vertex count and
    ``aut_order`` the order of its automorphism group; ``disjoint_pair``
    is the cycle notation of the pair :func:`find_disjoint_pair` finds
    there, or null; a pair comes with ``QuantumSymmetric`` and only with
    it, and then the algebra fields are null, since the check never ran;
    ``qsym_output`` is 1 with ``NotQuantumSymmetric`` and only with it,
    since that verdict rests on an algebra shown commutative."""
    try:
        g = parse_graph6(d["graph6"])
    except GraphError as exc:
        raise ValueError(f"field 'graph6' is {d['graph6']!r}: {exc}") from None
    if d["graph6"] != to_graph6(g):
        raise ValueError(f"field 'graph6' is {d['graph6']!r}, not bare graph6 {to_graph6(g)!r}")
    if d["n"] != g.n:
        raise ValueError(f"field 'n' is {d['n']}, but graph6 {d['graph6']!r} has {g.n} vertices")
    group = automorphism_group(g)
    if d["aut_order"] != group.order:
        raise ValueError(f"field 'aut_order' is {d['aut_order']}, "
                         f"but graph6 {d['graph6']!r} has |Aut| = {group.order}")
    verdict = d["verdict"]
    quantum = verdict == VerdictKind.QUANTUM_SYMMETRIC.value
    if (d["disjoint_pair"] is not None) != quantum:
        raise ValueError(
            f"field 'disjoint_pair' is {d['disjoint_pair']} with verdict {verdict!r}; "
            "QuantumSymmetric comes with a pair, and only it does")
    pair = find_disjoint_pair(group)
    expected = [cycle_notation(s) for s in pair] if pair else None
    if d["disjoint_pair"] != expected:
        raise ValueError(f"field 'disjoint_pair' is {d['disjoint_pair']}, "
                         f"but the disjoint pair of graph6 {d['graph6']!r} is {expected}")
    if quantum:
        for name in ("qsym_output", "gb_degree_bound", "gb_size"):
            if d[name] is not None:
                raise ValueError(f"field {name!r} is {d[name]} with verdict {verdict!r}, not null")
    if (d["qsym_output"] == 1) != (verdict == VerdictKind.NOT_QUANTUM_SYMMETRIC.value):
        raise ValueError(
            f"field 'qsym_output' is {d['qsym_output']} with verdict {verdict!r}; "
            "NotQuantumSymmetric comes with 1, and only it does")


def _fits(value, annotation: str) -> bool:
    """Whether a decoded JSON value fits a record field's annotation; a
    bool is not an int here, though Python counts it as one."""
    if value is None:
        return annotation.endswith(" | None")
    base = annotation.removesuffix(" | None")
    if base == "tuple[str, str]":
        return type(value) is list and len(value) == 2 and all(type(x) is str for x in value)
    return type(value).__name__ == base


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
    """Graphs from the configured source plus per-item error messages.

    The one reader of graph files, for ``check`` and ``batch`` alike.  A
    line or block that does not parse is reported and skipped; a file
    that is not UTF-8 text raises GraphError.
    """
    if cfg.n is not None:
        return enumerate_connected(cfg.n), []
    text = _read_utf8(Path(cfg.graph6_path))
    if looks_like_adjacency(text):
        # a block is a run of lines that are not blank after strip()
        runs = groupby(text.splitlines(), key=lambda line: bool(line.strip()))
        unit, items, parse = "block", ["\n".join(r) for full, r in runs if full], parse_adjacency
    else:
        unit, items, parse = "line", text.splitlines(), parse_graph6
    graphs: list[Graph] = []
    errors: list[str] = []
    for no, item in enumerate(items, start=1):
        if not item.strip():
            continue
        try:
            graphs.append(parse(item))
        except GraphError as exc:
            errors.append(f"{unit} {no}: {exc}")
    return graphs, errors


def _read_utf8(path: Path) -> str:
    """The text of a file; one that is not UTF-8 raises GraphError naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


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
            qsym=sum(r.verdict == VerdictKind.QUANTUM_SYMMETRIC.value for r in group),
            undecided=sum(r.verdict == VerdictKind.UNDECIDED.value for r in group),
        ))
    return tuple(rows)


def run_batch(cfg: RunConfig) -> BatchReport:
    """Classify every input graph, aggregate, and persist if configured.

    Graphs that trip an engine resource cap are reported in
    ``cap_failures``; the remaining records still form a partial report.
    A worker pool has at most ``cfg.jobs`` processes, and no more than
    there are graphs or CPUs; with one, the graphs run in this process.
    """
    graphs, errors = load_graphs(cfg)
    tasks = [(g, cfg.classify) for g in graphs]
    workers = min(cfg.jobs, len(graphs), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing  # only worker pools need it

        with multiprocessing.Pool(workers) as pool:
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
    write_records(report.records, Path(str(out) + ".ndjson"))
    ext = {"text": "txt", "json": "json", "csv": "csv"}[fmt]
    Path(str(out) + f".summary.{ext}").write_text(render_table(report, fmt) + "\n")


def write_records(records, path: Path) -> None:
    """Write one JSON record per line, creating the file's directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json_dict()) + "\n")


def read_records(path: Path) -> list[GraphRecord]:
    """The records of an NDJSON file; a malformed line raises ValueError
    naming the line, and a file that is not UTF-8 one naming the file
    (a GraphError, as :func:`load_graphs` raises)."""
    records = []
    for lineno, line in enumerate(_read_utf8(Path(path)).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(GraphRecord.from_json_dict(json.loads(line)))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
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
