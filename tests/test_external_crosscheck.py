"""Cross-validation against networkx, when it happens to be installed.

Not a dependency of the package or the core suite; these tests skip
silently in environments without networkx.
"""

import random

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

import automorphism_oracle


def random_graph(rng, n):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return Graph.from_edges(n, edges, one_based=False), edges


def test_graph6_codec_against_networkx():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 16)
        g, edges = random_graph(rng, n)
        decoded = nx.from_graph6_bytes(to_graph6(g).encode())
        assert set(decoded.nodes) == set(range(n))
        assert {tuple(sorted(e)) for e in decoded.edges} == set(g.edges())
        external = nx.to_graph6_bytes(decoded, header=False).decode().strip()
        assert set(parse_graph6(external).edges()) == set(g.edges())


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
