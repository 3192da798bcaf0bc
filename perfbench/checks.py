"""Correctness checks that do not trust qsymgraph.

Every check re-derives its answer from networkx (graph6 decoding, VF2,
the graph atlas), a published count, a closed form or the paper's
tables.  None compares against a stored copy of an earlier run.

Records are the program's NDJSON lines, read as plain JSON dicts.  A
check appends ``(index, message)`` pairs to a :class:`Problems` list; the
index names the record at fault, or is None for a fault of the whole
batch.
"""

from __future__ import annotations

import re
import warnings
from collections import Counter, defaultdict

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

# Connected graphs on n unlabelled vertices, OEIS A001349.
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

# The paper's tables for n = 4, 5 and 6: |Aut| -> (graphs, graphs with
# quantum symmetries).
PAPER_TABLES = {
    4: {24: (1, 1), 8: (1, 1), 6: (1, 0), 4: (1, 1), 2: (2, 0)},
    5: {120: (1, 1), 24: (1, 1), 12: (3, 3), 10: (1, 0), 8: (2, 2),
        6: (1, 0), 4: (3, 3), 2: (9, 0)},
    6: {720: (1, 1), 120: (1, 1), 72: (1, 1), 48: (4, 4), 36: (1, 1),
        24: (1, 1), 16: (3, 3), 12: (10, 8), 10: (1, 0), 8: (9, 9),
        6: (7, 0), 4: (28, 26), 2: (37, 0), 1: (8, 0)},
}

QSYM = "QuantumSymmetric"
NOT_QSYM = "NotQuantumSymmetric"

# networkx 3.5 changed these hashes; they are only compared with each other.
warnings.filterwarnings("ignore", message="The hashes produced", category=UserWarning)

_CYCLES = re.compile(r"(\(\d+(,\d+)+\))+")


class Problems(list):
    """``(record index or None, message)`` pairs."""

    def add(self, index: int | None, message: str) -> None:
        self.append((index, message))

    def failed_indices(self) -> set[int]:
        return {i for i, _ in self if i is not None}


def to_nx(graph6: str) -> nx.Graph:
    try:
        return nx.from_graph6_bytes(graph6.encode("ascii"))
    except nx.NetworkXError as exc:
        raise ValueError(f"graph6 {graph6!r}: {exc}") from exc


def automorphisms(G: nx.Graph):
    """Every automorphism of ``G`` as a tuple of images, found by VF2."""
    n = G.number_of_nodes()
    for mapping in GraphMatcher(G, G).isomorphisms_iter():
        yield tuple(mapping[v] for v in range(n))


def parse_cycles(text: str, n: int) -> tuple[int, ...] | None:
    """A 1-based cycle string such as "(1,2)(3,4)" as 0-based images.

    Returns None for anything but disjoint cycles of length >= 2 on 1..n,
    so the identity "()" is rejected too.
    """
    if not isinstance(text, str) or not _CYCLES.fullmatch(text):
        return None
    perm = list(range(n))
    seen: set[int] = set()
    for body in re.findall(r"\(([^)]*)\)", text):
        points = [int(x) - 1 for x in body.split(",")]
        if any(not 0 <= p < n for p in points) or len(set(points)) != len(points):
            return None
        if seen.intersection(points):
            return None
        seen.update(points)
        for a, b in zip(points, points[1:] + points[:1]):
            perm[a] = b
    return tuple(perm)


def is_automorphism(G: nx.Graph, perm: tuple[int, ...]) -> bool:
    return all(G.has_edge(perm[u], perm[v]) for u, v in G.edges())


def _support(perm) -> int:
    return sum(1 << i for i, image in enumerate(perm) if image != i)


def has_disjoint_pair(perms) -> bool:
    """True iff two non-identity permutations have disjoint moved points.

    Stops at the first such pair, so it is cheap on large groups, which
    have one early in VF2 order.
    """
    supports: list[int] = []
    for perm in perms:
        s = _support(perm)
        if not s:
            continue
        if any(not s & t for t in supports):
            return True
        supports.append(s)
    return False


def check_verdicts(records, graphs, problems: Problems) -> None:
    """The checks every workload runs on every record."""
    for i, (rec, G) in enumerate(zip(records, graphs)):
        verdict = rec.get("verdict")
        if verdict == QSYM:
            pair = rec.get("disjoint_pair") or ()
            perms = [parse_cycles(c, len(G)) for c in pair]
            if len(perms) != 2 or None in perms:
                problems.add(i, f"unreadable disjoint pair {pair!r}")
            elif not all(is_automorphism(G, p) for p in perms):
                problems.add(i, f"disjoint pair {pair!r} is not a pair of automorphisms")
            elif _support(perms[0]) & _support(perms[1]):
                problems.add(i, f"disjoint pair {pair!r} shares moved points")
        elif verdict == NOT_QSYM:
            if rec.get("qsym_output") != 1:
                problems.add(i, f"NotQuantumSymmetric with qsym_output {rec.get('qsym_output')!r}")
            if has_disjoint_pair(automorphisms(G)):
                problems.add(i, "NotQuantumSymmetric but networkx finds a disjoint pair")
        else:
            problems.add(i, f"verdict {verdict!r}")
        if rec.get("aut_order") in (1, 2) and verdict != NOT_QSYM:
            problems.add(i, f"|Aut| = {rec.get('aut_order')} but verdict {verdict!r}")
        if rec.get("n") != len(G):
            problems.add(i, f"n = {rec.get('n')!r} for a graph on {len(G)} vertices")


def check_vf2_orders(records, graphs, problems: Problems) -> None:
    for i, (rec, G) in enumerate(zip(records, graphs)):
        count = sum(1 for _ in GraphMatcher(G, G).isomorphisms_iter())
        if rec.get("aut_order") != count:
            problems.add(i, f"aut_order {rec.get('aut_order')!r}, VF2 counts {count}")


def check_closed_forms(records, orders, problems: Problems) -> None:
    for i, (rec, order) in enumerate(zip(records, orders)):
        if rec.get("aut_order") != order:
            problems.add(i, f"aut_order {rec.get('aut_order')!r}, closed form {order}")


def check_inputs(records, lines, problems: Problems) -> None:
    """One record per input line, in input order, with the same graph6."""
    if len(records) != len(lines):
        problems.add(None, f"{len(records)} records for {len(lines)} input graphs")
    for i, (rec, line) in enumerate(zip(records, lines)):
        if rec.get("graph6") != line:
            problems.add(i, f"record graph6 {rec.get('graph6')!r} for input {line!r}")


def atlas_connected(n: int) -> list[nx.Graph]:
    """The atlas's connected graphs on n vertices, in atlas order."""
    return [G for G in nx.graph_atlas_g() if len(G) == n and nx.is_connected(G)]


def check_enumeration(records, graphs, n: int, problems: Problems) -> None:
    """The graphs are the connected graphs on n vertices, once each."""
    if len(records) != CONNECTED_COUNTS[n]:
        problems.add(None, f"{len(records)} graphs, A001349 gives {CONNECTED_COUNTS[n]}")
    for i, G in enumerate(graphs):
        if len(G) != n or not nx.is_connected(G):
            problems.add(i, "graph is not connected on n vertices")
    buckets = defaultdict(list)
    for G in atlas_connected(n):
        buckets[nx.weisfeiler_lehman_graph_hash(G)].append(G)
    for i, G in enumerate(graphs):
        bucket = buckets[nx.weisfeiler_lehman_graph_hash(G)]
        match = next((k for k, H in enumerate(bucket) if nx.is_isomorphic(G, H)), None)
        if match is None:
            problems.add(i, "no unmatched atlas graph is isomorphic to it")
        else:
            del bucket[match]
    left = sum(len(b) for b in buckets.values())
    if left:
        problems.add(None, f"{left} atlas graphs on {n} vertices have no match")


def check_paper_tables(records, problems: Problems) -> None:
    """Per-order counts for each n in PAPER_TABLES that the batch covers."""
    by_n = defaultdict(list)
    for i, rec in enumerate(records):
        by_n[rec.get("n")].append(rec)
    for n, table in PAPER_TABLES.items():
        if n not in by_n:
            continue
        totals = Counter(r.get("aut_order") for r in by_n[n])
        qsym = Counter(r.get("aut_order") for r in by_n[n] if r.get("verdict") == QSYM)
        got = {order: (totals[order], qsym[order]) for order in totals}
        if got != table:
            problems.add(None, f"n = {n} table {got} differs from the paper's {table}")


def check_summary(path, records, problems: Problems) -> None:
    """The text summary's totals row counts every record."""
    try:
        last = path.read_text().splitlines()[-1].split()
    except (OSError, IndexError):
        problems.add(None, f"summary {path.name} missing or empty")
        return
    qsym = sum(r.get("verdict") == QSYM for r in records)
    if last[:3] != ["total", str(len(records)), str(qsym)]:
        problems.add(None, f"summary totals {last} for {len(records)} records, {qsym} qsym")
