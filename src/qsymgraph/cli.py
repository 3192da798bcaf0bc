"""Command-line interface.

Subcommands:

* ``check``  -- classify the first graph of a file, read as ``batch``
  reads it (graph6 lines or adjacency blocks).
* ``batch``  -- classify an enumerated family (``--n``) or every graph in
  a file, then print/persist an aggregate table.
* ``table``  -- re-aggregate previously stored NDJSON records.

Exit codes: 0 success, 1 malformed input, 2 engine resource cap exceeded
(a partial report is still written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .classify import ClassifyConfig
from .graphs import GraphError
from .groebner import ResourceCapError
from .pipeline import (
    FORMATS,
    RunConfig,
    classify_with_record,
    load_graphs,
    read_records,
    render_table,
    report_from_records,
    run_batch,
    write_records,
)


def _add_classify_flags(p: argparse.ArgumentParser):
    p.add_argument("--gb-cap", type=int, default=12, metavar="D",
                   help="max Groebner truncation degree, at least 2 (default: 12)")


def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=FORMATS, default="text", dest="fmt")
    p.add_argument("--out", type=Path, default=None,
                   help="base path for <out>.ndjson and <out>.summary.<ext>")


def cmd_check(args) -> int:
    try:
        cfg = ClassifyConfig(gb_degree_cap=args.gb_cap)
        graphs, errors = load_graphs(RunConfig(graph6_path=args.input))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for msg in errors:
        print(f"input error: {msg}", file=sys.stderr)
    if not graphs:
        print("error: no graph found in input", file=sys.stderr)
        return 1
    g = graphs[0]
    try:
        verdict, record = classify_with_record(g, cfg)
    except ResourceCapError as exc:
        print(f"error: resource cap: {exc}", file=sys.stderr)
        return 2
    if args.fmt == "text":
        from .fulton import render_pattern, zero_pattern

        print(f"graph6:     {record.graph6}")
        print(f"vertices:   {record.n}")
        print(f"|Aut|:      {record.aut_order}")
        pair = " ".join(record.disjoint_pair) if record.disjoint_pair else "none"
        print(f"disjoint:   {pair}")
        output = "-" if record.qsym_output is None else record.qsym_output
        print(f"qsym:       {output}")
        print(f"verdict:    {record.verdict}")
        print("generators:")
        pattern = verdict.pattern or zero_pattern(g)
        for line in render_pattern(pattern).splitlines():
            print(f"  {line}")
    else:
        print(json.dumps(record.to_json_dict()))
    if args.out is not None:
        write_records([record], Path(str(args.out) + ".ndjson"))
    return 1 if errors else 0


def cmd_batch(args) -> int:
    try:
        cfg = RunConfig(
            n=args.n,
            # load_graphs tells graph6 lines from adjacency blocks as it reads
            graph6_path=args.input,
            classify=ClassifyConfig(gb_degree_cap=args.gb_cap),
            jobs=args.jobs,
            fmt=args.fmt,
            out=args.out,
        )
    except ValueError as exc:  # a bad --gb-cap or --jobs
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        report = run_batch(cfg)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render_table(report, args.fmt))
    for msg in report.input_errors:
        print(f"input error: {msg}", file=sys.stderr)
    for msg in report.cap_failures:
        print(f"resource cap: {msg}", file=sys.stderr)
    if report.cap_failures:
        return 2
    if report.input_errors:
        return 1
    return 0


def cmd_table(args) -> int:
    try:
        records = read_records(args.input)
    except (OSError, ValueError) as exc:  # a malformed line names itself
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = report_from_records(records)
    print(render_table(report, args.fmt))
    if args.out is not None:
        from .pipeline import persist_report

        persist_report(report, args.out, args.fmt)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsymgraph",
        description="Decide whether finite simple graphs have quantum symmetries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="classify a single graph")
    p_check.add_argument("--input", type=Path, required=True,
                         help="graph6 lines or adjacency blocks; the first graph is classified")
    _add_classify_flags(p_check)
    _add_output_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    p_batch = sub.add_parser("batch", help="classify a family of graphs")
    src = p_batch.add_mutually_exclusive_group(required=True)
    src.add_argument("--n", type=int, default=None,
                     help="enumerate all connected graphs on n vertices")
    src.add_argument("--input", type=Path, default=None,
                     help="graph6 file (one per line) or adjacency blocks")
    p_batch.add_argument("--jobs", type=int, default=1)
    _add_classify_flags(p_batch)
    _add_output_flags(p_batch)
    p_batch.set_defaults(func=cmd_batch)

    p_table = sub.add_parser("table", help="re-aggregate stored NDJSON records")
    p_table.add_argument("--input", type=Path, required=True)
    _add_output_flags(p_table)
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
