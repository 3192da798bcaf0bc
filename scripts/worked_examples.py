#!/usr/bin/env python3
"""Walk through three instructive graphs end to end.

Shows the adjacency power that splits the walk counts, the surviving
generator pattern, and the final verdict with its evidence:

* the house with both roof diagonals (quantum symmetric via a disjoint
  automorphism pair),
* the same house minus one roof edge (no quantum symmetries, proved by
  the commutativity check),
* a rigid 6-vertex graph whose pattern collapses to the identity.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qsymgraph import (
    Graph,
    classify,
    cycle_notation,
    render_pattern,
    zero_pattern,
)

HOUSE = Graph.from_edges(
    5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4), (4, 5)])
BROKEN = Graph.from_edges(
    5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4)])
RIGID = Graph.from_edges(6, [(1, 2), (2, 3), (2, 4), (3, 4), (4, 5), (5, 6)])


def walk_counts(g: Graph, length: int) -> list[list[int]]:
    """A^length: entry (i, j) counts the walks of that length from i to j."""
    hoods = [[] for _ in range(g.n)]
    for i, j in g.edges():
        hoods[i].append(j)
        hoods[j].append(i)
    rows = [[int(i == j) for j in range(g.n)] for i in range(g.n)]
    for _ in range(length):
        rows = [[sum(rows[l][j] for l in hood) for j in range(g.n)] for hood in hoods]
    return rows


def show(name: str, g: Graph, power: int) -> None:
    print(f"=== {name}")
    print(f"adjacency power {power}:")
    for row in walk_counts(g, power):
        print("  " + " ".join(f"{x:3d}" for x in row))
    pattern = zero_pattern(g)
    print("surviving generators:")
    for line in render_pattern(pattern).splitlines():
        print("  " + line)
    verdict = classify(g)
    print(f"verdict: {verdict.kind.value}  (|Aut| = {verdict.aut_order})")
    if verdict.disjoint_pair:
        s, t = verdict.disjoint_pair
        print(f"  disjoint automorphisms: {cycle_notation(s)} and {cycle_notation(t)}")
    if verdict.algebra:
        a = verdict.algebra
        how = "vacuous" if a.vacuous else f"bound {a.degree_bound}, basis size {a.basis_size}"
        print(f"  algebra check: {a.status.value}, {how}")
    print()


def main() -> int:
    show("house with both diagonals", HOUSE, 2)
    show("house with a broken roof", BROKEN, 2)
    show("rigid graph on 6 vertices", RIGID, 4)
    return 0


if __name__ == "__main__":
    sys.exit(main())
