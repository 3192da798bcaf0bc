"""Cross-validation against networkx, when it happens to be installed.

Not a dependency of the package or the core suite; these tests skip
silently in environments without networkx.
"""

import random
from collections import Counter

import pytest

nx = pytest.importorskip("networkx")

from qsymgraph import (
    Graph,
    automorphism_group,
    enumerate_connected,
    find_disjoint_pair,
    parse_graph6,
    to_graph6,
)
from qsymgraph.automorphisms import is_automorphism
from qsymgraph.graphs import Search, generators

import automorphism_oracle
from conftest import twinned_graph


def random_graph(rng, n):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return Graph.from_edges(n, edges, one_based=False), edges


def test_graph6_codec_against_networkx():
    # seeded random graphs for every n, so every payload length and every
    # padding of 0 to 5 bits; the densities include the empty and the
    # complete graph
    rng = random.Random(99)
    for n in range(1, 17):
        for density in (0.0, 0.1, 0.5, 0.9, 1.0, *(rng.random() for _ in range(10))):
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
            g = Graph.from_edges(n, edges, one_based=False)
            decoded = nx.from_graph6_bytes(to_graph6(g).encode())
            assert set(decoded.nodes) == set(range(n))
            assert sorted(tuple(sorted(e)) for e in decoded.edges) == g.edges()
            external = nx.to_graph6_bytes(decoded, header=False).decode().strip()
            assert external == to_graph6(g)
            assert parse_graph6(external) == g


def test_is_automorphism_against_a_networkx_edge_check():
    # random permutations, most of them not automorphisms, and products of
    # the group's generators, which are; twinned graphs seldom have a
    # trivial group
    rng = random.Random(103)
    verdicts = Counter()
    for _ in range(400):
        n = rng.randint(1, 12)
        g = twinned_graph(rng, n)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(g.edges())
        gens, _, _ = generators(Search(g.nbr))
        perms = [tuple(rng.sample(range(n), n)) for _ in range(5)]
        for _ in range(5 if gens else 0):
            perm = tuple(range(n))
            for s in rng.choices(gens, k=rng.randint(1, 4)):
                perm = tuple(s[v] for v in perm)
            perms.append(perm)
        for perm in perms:
            # a permutation that maps every edge to an edge is an automorphism
            expected = all(G.has_edge(perm[u], perm[v]) for u, v in G.edges)
            assert is_automorphism(g, perm) == expected, (g, perm)
            verdicts[expected] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 1000


def test_automorphism_orders_against_vf2():
    rng = random.Random(101)
    for _ in range(120):
        n = rng.randint(2, 7)
        g, edges = random_graph(rng, n)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(edges)
        assert automorphism_group(g).order == vf2_order(G)


def vf2_order(G) -> int:
    from networkx.algorithms.isomorphism import GraphMatcher

    return sum(1 for _ in GraphMatcher(G, G).isomorphisms_iter())


def test_order_and_pair_match_oracle_on_atlas_labellings():
    # the pair is the first in lex order, so it depends on the labelling
    checked = 0
    for G in nx.graph_atlas_g():
        n = G.number_of_nodes()
        if n == 0 or not nx.is_connected(G):
            continue
        g = Graph.from_edges(n, list(G.edges()), one_based=False)
        group = automorphism_group(g)
        assert (group.order, find_disjoint_pair(group)) == automorphism_oracle.order_and_pair(g)
        checked += 1
    assert checked == 996


@pytest.mark.parametrize("name, G", [
    ("Paley(13)", nx.paley_graph(13).to_undirected()),
    ("C16", nx.cycle_graph(16)),
])
def test_vertex_transitive_graphs_without_pair(name, G):
    n = G.number_of_nodes()
    g = Graph.from_edges(n, list(G.edges()), one_based=False)
    group = automorphism_group(g)
    assert group.order == vf2_order(G)
    assert find_disjoint_pair(group) is None


def test_enumeration_classes_pairwise_nonisomorphic():
    for n in (4, 5):
        as_nx = []
        for g in enumerate_connected(n):
            G = nx.Graph()
            G.add_nodes_from(range(n))
            G.add_edges_from(g.edges())
            assert nx.is_connected(G)
            as_nx.append(G)
        for i in range(len(as_nx)):
            for j in range(i + 1, len(as_nx)):
                assert not nx.is_isomorphic(as_nx[i], as_nx[j])
