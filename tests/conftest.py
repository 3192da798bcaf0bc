"""Shared fixture graphs, the n <= 5 run of both criteria, and the word order.

The two 5-vertex "house" graphs are K4 plus an apex vertex joined to two
(resp. one) of its vertices; the rigid 6-vertex graph has trivial
automorphism group and a fully split walk-count spectrum.
"""

import functools
import importlib
from dataclasses import replace

import pytest

from qsymgraph import (
    Graph,
    automorphism_group,
    build_relations,
    classify,
    enumerate_connected,
    find_disjoint_pair,
    qsym_check,
    zero_pattern,
)

from polyring import Poly, key, leading_term


def permute(g: Graph, perm) -> Graph:
    """Relabel vertices: edge (i,j) becomes (perm[i], perm[j]), 0-based."""
    return Graph.from_edges(g.n, [(perm[i], perm[j]) for i, j in g.edges()], one_based=False)


def twinned_graph(rng, n: int) -> Graph:
    """A random graph on n vertices in which each vertex past a random
    first few copies the neighbours of an earlier one, so that the group
    is seldom trivial, in a random labelling."""
    first = rng.randint(1, n)
    edges = [(i, j) for i in range(first) for j in range(i + 1, first) if rng.random() < 0.5]
    for v in range(first, n):
        u = rng.randrange(v)
        edges += [(w, v) for a, w in edges if a == u] + [(a, v) for a, w in edges if w == u]
        if rng.random() < 0.5:
            edges.append((u, v))
    perm = list(range(n))
    rng.shuffle(perm)
    return permute(Graph.from_edges(n, edges, one_based=False), perm)


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def star4() -> Graph:
    return Graph.from_edges(4, [(1, 4), (2, 4), (3, 4)])


def paw() -> Graph:
    """Triangle with a pendant vertex."""
    return Graph.from_edges(4, [(1, 4), (2, 3), (2, 4), (3, 4)])


def diamond() -> Graph:
    """K4 minus one edge."""
    return Graph.from_edges(4, [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])


def house_x() -> Graph:
    """K4 on {1,2,3,4} plus apex 5 joined to 1 and 4 (house with both
    roof diagonals drawn)."""
    return Graph.from_edges(
        5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4), (4, 5)])


def house_x_broken() -> Graph:
    """Same graph with the (4,5) roof edge removed; the apex hangs off 1."""
    return Graph.from_edges(
        5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4)])


def rigid6() -> Graph:
    """Asymmetric 6-vertex graph; every walk-count class is a singleton."""
    return Graph.from_edges(6, [(1, 2), (2, 3), (2, 4), (3, 4), (4, 5), (5, 6)])


def four_vertex_path() -> Graph:
    return Graph.from_edges(4, [(1, 4), (2, 3), (3, 4)])


def four_vertex_cycle() -> Graph:
    return Graph.from_edges(4, [(1, 3), (1, 4), (2, 3), (2, 4)])


# (name, builder, |Aut|, has quantum symmetries), in a fixed reporting order
FOUR_VERTEX_CASES = (
    ("star", star4, 6, False),
    ("path", four_vertex_path, 2, False),
    ("paw", paw, 2, False),
    ("cycle", four_vertex_cycle, 8, True),
    ("diamond", diamond, 4, True),
    ("complete", lambda: complete_graph(4), 24, True),
)


def atlas_graphs() -> list[Graph]:
    """The 996 connected graphs on 1..7 vertices of networkx's graph atlas,
    in atlas order and labelling; skips the calling test without networkx."""
    nx = pytest.importorskip("networkx")
    return [Graph.from_edges(G.number_of_nodes(), list(G.edges()), one_based=False)
            for G in nx.graph_atlas_g() if G.number_of_nodes() and nx.is_connected(G)]


@functools.cache
def pairless_presentations(labelling: str) -> tuple:
    """Every distinct presentation classify checks for n <= 7, once each:
    those of the connected graphs with no disjoint automorphism pair, in
    the canonical labelling of ``enumerate_connected`` or (``"atlas"``)
    in networkx's atlas labelling."""
    graphs = ([g for n in range(1, 8) for g in enumerate_connected(n)]
              if labelling == "canonical" else atlas_graphs())
    out = {}
    for g in graphs:
        if find_disjoint_pair(automorphism_group(g)) is None:
            p = build_relations(g, zero_pattern(g))
            out.setdefault((p.positions, tuple(map(key, p.relations))), p)
    return tuple(out.values())


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    """Each test starts with an empty algebra memo in ``classify``, so no
    result stored by an earlier test stands in for a stubbed or counted
    check."""
    monkeypatch.setattr(importlib.import_module("qsymgraph.classify"), "_memo", {})


@pytest.fixture(scope="session")
def house():
    return house_x()


@pytest.fixture(scope="session")
def broken_house():
    return house_x_broken()


@pytest.fixture(scope="session")
def five_vertex_run():
    """Every connected graph on <= 5 vertices with both criteria computed.

    ``classify`` skips the algebra check once it finds a disjoint pair;
    here the check result and the zero pattern are filled in for those
    graphs too.
    """
    results = []
    for n in range(1, 6):
        for g in enumerate_connected(n):
            verdict = classify(g)
            if verdict.algebra is None:
                pattern = zero_pattern(g)
                verdict = replace(verdict, pattern=pattern,
                                  algebra=qsym_check(build_relations(g, pattern)))
            results.append((g, verdict))
    return results


def word_cmp(a: bytes, b: bytes) -> int:
    """-1, 0 or 1 as ``a`` compares to ``b`` in the order that picks
    leading terms, which is the one order the engine uses."""
    if a == b:
        return 0
    return 1 if leading_term(Poly({a: 1, b: 1}))[0] == a else -1
