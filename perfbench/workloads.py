"""The benchmark's workloads: fixed inputs and the checks that fit them.

No workload uses a random seed.  ``batch-n7`` hands the program an n;
the other two hand it graph6 lines written here with networkx, so the
program sees only graph6 text.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import factorial, prod
from typing import Callable

import networkx as nx

import checks


@dataclass(frozen=True)
class Workload:
    name: str
    n: int | None  # classify every connected graph on n vertices ...
    graph6: tuple[str, ...]  # ... or these graph6 lines
    check: Callable[[list, list, checks.Problems], None]

    @property
    def size(self) -> int:
        """Graphs classified in one batch."""
        return checks.CONNECTED_COUNTS[self.n] if self.n is not None else len(self.graph6)


def enumeration(name: str, n: int) -> Workload:
    """``run_batch(RunConfig(n=n))``: the program enumerates the graphs."""

    def check(records, graphs, problems):
        checks.check_enumeration(records, graphs, n, problems)
        checks.check_vf2_orders(records, graphs, problems)

    return Workload(name, n, (), check)


def atlas(name: str, max_n: int) -> Workload:
    """The atlas's connected graphs on 1..max_n vertices, atlas labelling."""
    lines = tuple(
        nx.to_graph6_bytes(G, header=False).decode("ascii").strip()
        for G in nx.graph_atlas_g()
        if 1 <= len(G) <= max_n and nx.is_connected(G))

    def check(records, graphs, problems):
        checks.check_inputs(records, lines, problems)
        checks.check_vf2_orders(records, graphs, problems)
        checks.check_paper_tables(records, problems)

    return Workload(name, None, lines, check)


def complete_multipartite(*parts: int) -> tuple[nx.Graph, int]:
    """K_{parts} and its |Aut| = prod (s!)^m * m! over part sizes s used m times."""
    order = prod(factorial(s) ** m * factorial(m) for s, m in Counter(parts).items())
    return nx.complete_multipartite_graph(*parts), order


def friendship(k: int) -> tuple[nx.Graph, int]:
    """k triangles sharing vertex 0; |Aut| = (2!)^k * k!."""
    G = nx.Graph()
    for t in range(k):
        G.add_edges_from([(0, 2 * t + 1), (0, 2 * t + 2), (2 * t + 1, 2 * t + 2)])
    return G, 2 ** k * factorial(k)


def cube() -> tuple[nx.Graph, int]:
    """The 3-cube; |Aut| = 2^3 * 3! = 48."""
    return nx.convert_node_labels_to_integers(nx.hypercube_graph(3)), 48


# Connected graphs on 8 and 9 vertices, each with two disjoint non-trivial
# automorphisms by construction: two swaps inside one part of size >= 4,
# or inside two parts of size >= 2, or of two triangles (friendship), or
# the two commuting cube reflections that fix complementary squares.
HIGH_SYMMETRY_8_9 = (
    complete_multipartite(*[1] * 8),  # K8
    complete_multipartite(*[1] * 9),  # K9
    complete_multipartite(1, 7),
    complete_multipartite(1, 8),
    complete_multipartite(2, 6),
    complete_multipartite(2, 7),
    complete_multipartite(3, 5),
    complete_multipartite(3, 6),
    complete_multipartite(4, 4),
    complete_multipartite(4, 5),
    complete_multipartite(3, 3, 3),
    complete_multipartite(2, 2, 2, 2),
    friendship(4),
    cube(),
)

# The same shapes on 5 and 6 vertices, for the self-test.
HIGH_SYMMETRY_5_6 = (
    complete_multipartite(*[1] * 5),
    complete_multipartite(*[1] * 6),
    complete_multipartite(1, 5),
    complete_multipartite(2, 3),
    complete_multipartite(3, 3),
    complete_multipartite(2, 2, 2),
    friendship(2),
)


def high_symmetry(name: str, family, repeats: int) -> Workload:
    """The family's graph6 lines, the whole family ``repeats`` times."""
    lines = tuple(nx.to_graph6_bytes(G, header=False).decode("ascii").strip()
                  for G, _ in family) * repeats
    orders = tuple(order for _, order in family) * repeats

    def check(records, graphs, problems):
        checks.check_inputs(records, lines, problems)
        checks.check_closed_forms(records, orders, problems)

    return Workload(name, None, lines, check)


# Name -> function making the workload; the atlas one reads the whole atlas.
WORKLOADS = {
    "batch-n7": lambda: enumeration("batch-n7", 7),
    "atlas-g6": lambda: atlas("atlas-g6", 7),
    "highsym-8to9": lambda: high_symmetry("highsym-8to9", HIGH_SYMMETRY_8_9, repeats=1),
}

# The same workloads on reduced inputs, for the self-test.
REDUCED = {
    "batch-n7": lambda: enumeration("batch-n5", 5),
    "atlas-g6": lambda: atlas("atlas-g6-to5", 5),
    "highsym-8to9": lambda: high_symmetry("highsym-5to6", HIGH_SYMMETRY_5_6, repeats=2),
}
