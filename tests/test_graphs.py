"""Graph representation, graph6 codec, powers, canonical forms, enumeration."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsymgraph import (
    Graph,
    canonical_form,
    enumerate_connected,
    is_connected,
    matrix_power,
    parse_adjacency,
    parse_graph6,
    to_graph6,
)
from qsymgraph.graphs import AdjacencyError, Graph6Error, GraphError

from conftest import (
    complete_graph,
    cycle_graph,
    house_x,
    house_x_broken,
    path_graph,
    permute,
    rigid6,
)
from enumeration_oracle import brute_force_canonical_mask, orbit_sweep_masks

HOUSE_ADJACENCY = """\
0 1 1 1 1
1 0 1 1 0
1 1 0 1 0
1 1 1 0 1
1 0 0 1 0
"""


def random_graph(rng: random.Random, n: int) -> Graph:
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


# graph6 codec


def test_graph6_complete_graph():
    g = parse_graph6("C~")
    assert g.n == 4
    assert all(g.adj[i][j] == 1 for i in range(4) for j in range(4) if i != j)


def test_graph6_single_edge():
    g = parse_graph6("A_")
    assert g.n == 2
    assert g.adj[0][1] == 1


def test_graph6_isolated_vertex():
    g = parse_graph6("@")
    assert g.n == 1
    assert g.edge_count() == 0


def test_graph6_header_prefix_stripped():
    assert parse_graph6(">>graph6<<C~") == parse_graph6("C~")


@pytest.mark.parametrize("bad, message", [
    ("", "empty"),
    ("~~~", "multi-byte"),
    ("C", "truncated"),
    ("C~~", "trailing"),
    (chr(63 + 17), "outside"),      # n = 17
    ("B" + chr(200), "malformed payload"),
    ("A" + chr(95 + 16), "padding"),  # nonzero bit below the single edge bit
])
def test_graph6_errors(bad, message):
    with pytest.raises(Graph6Error, match=message):
        parse_graph6(bad)


def test_graph6_round_trip_known():
    for builder in (lambda: complete_graph(4), lambda: cycle_graph(5), house_x, rigid6):
        g = builder()
        assert parse_graph6(to_graph6(g)) == g


def test_graph6_independent_bit_decoder():
    # cross-check against a separate bit-unpacking of the format
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 16)
        g = random_graph(rng, n)
        s = to_graph6(g)
        assert ord(s[0]) - 63 == n
        bitstring = "".join(format(ord(c) - 63, "06b") for c in s[1:])
        p = 0
        for j in range(1, n):
            for i in range(j):
                assert int(bitstring[p]) == g.adj[i][j]
                p += 1
        assert all(b == "0" for b in bitstring[p:])
        assert parse_graph6(s) == g


@given(st.integers(1, 16), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_graph6_round_trip_property(n, rnd):
    g = random_graph(random.Random(rnd.randint(0, 10**9)), n)
    assert parse_graph6(to_graph6(g)) == g


# adjacency text


def test_parse_adjacency_house(house):
    g = parse_adjacency(HOUSE_ADJACENCY)
    assert g == house
    assert g.edge_count() == 8


def test_parse_adjacency_single_vertex():
    g = parse_adjacency("0")
    assert g.n == 1


def test_parse_adjacency_compact_format():
    assert parse_adjacency("011\n101\n110") == complete_graph(3)


def test_parse_adjacency_distinct_errors():
    with pytest.raises(AdjacencyError, match="non-square"):
        parse_adjacency("0 1\n1 0\n0 0")
    with pytest.raises(AdjacencyError, match="asymmetric"):
        parse_adjacency("0 1 0 0\n0 0 0 0\n0 0 0 1\n0 0 1 0")
    with pytest.raises(AdjacencyError, match="diagonal"):
        parse_adjacency("1 0\n0 0")
    with pytest.raises(AdjacencyError, match="invalid character"):
        parse_adjacency("0 2\n2 0")
    with pytest.raises(AdjacencyError, match="empty"):
        parse_adjacency("   \n ")


def test_graph_validation():
    with pytest.raises(GraphError, match="self-loop"):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(GraphError, match="asymmetric"):
        Graph(2, ((0, 1), (0, 0)))
    with pytest.raises(GraphError, match="outside"):
        Graph.from_edges(17, [(1, 2)])
    with pytest.raises(GraphError, match="vertex range"):
        Graph.from_edges(3, [(1, 4)])
    with pytest.raises(GraphError, match="vertex range"):
        Graph.from_edges(3, [(0, 2)])  # 1-based input must not wrap


# connectivity


def test_is_connected_examples(house):
    assert is_connected(complete_graph(4))
    assert not is_connected(Graph.from_edges(4, [(1, 2), (3, 4)]))
    assert is_connected(house)
    assert is_connected(Graph(1, ((0,),)))


# matrix powers


def test_house_square(house):
    sq = matrix_power(house, 2)
    assert sq == (
        (4, 2, 2, 3, 1),
        (2, 3, 2, 2, 2),
        (2, 2, 3, 2, 2),
        (3, 2, 2, 4, 1),
        (1, 2, 2, 1, 2),
    )


def test_broken_house_square(broken_house):
    sq = matrix_power(broken_house, 2)
    assert sq[4] == (0, 1, 1, 1, 1)
    assert sq == (
        (4, 2, 2, 2, 0),
        (2, 3, 2, 2, 1),
        (2, 2, 3, 2, 1),
        (2, 2, 2, 3, 1),
        (0, 1, 1, 1, 1),
    )


def test_power_one_is_adjacency(house):
    assert matrix_power(house, 1) == house.adj


def test_power_requires_positive_exponent(house):
    with pytest.raises(ValueError):
        matrix_power(house, 0)


def test_power_addition_law():
    rng = random.Random(11)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 6))
        l1, l2 = rng.randint(1, 4), rng.randint(1, 4)
        a = matrix_power(g, l1)
        b = matrix_power(g, l2)
        prod = tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(g.n)) for j in range(g.n))
            for i in range(g.n)
        )
        assert prod == matrix_power(g, l1 + l2)


def test_trace_of_square_counts_edges():
    rng = random.Random(13)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8))
        sq = matrix_power(g, 2)
        assert sum(sq[i][i] for i in range(g.n)) == 2 * g.edge_count()


# canonical forms


def test_canonical_invariant_under_relabeling():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(2, 7)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(permute(g, perm)) == canonical_form(g)


def test_canonical_idempotent():
    rng = random.Random(19)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 6))
        c = canonical_form(g)
        assert canonical_form(c) == c


def test_canonical_path_relabelings():
    p = Graph.from_edges(3, [(1, 2), (2, 3)])
    q = Graph.from_edges(3, [(2, 1), (1, 3)])
    assert canonical_form(p) == canonical_form(q)


def test_canonical_distinguishes_four_vertex_classes():
    from conftest import FOUR_VERTEX_CASES

    forms = {canonical_form(build()).mask() for _, build, _, _ in FOUR_VERTEX_CASES}
    assert len(forms) == 6


def test_canonical_matches_brute_force_oracle():
    rng = random.Random(23)
    for _ in range(120):
        n = rng.randint(1, 8)
        density = rng.random()
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < density]
        g = Graph.from_edges(n, edges)
        assert canonical_form(g).mask() == brute_force_canonical_mask(g)


def test_canonical_large_n_invariant_and_bounded():
    rng = random.Random(29)
    for n in range(9, 17):
        for _ in range(3):
            g = random_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(permute(g, perm)) == canonical_form(g)
    # the largest state sets: every vertex choice ties at every level
    assert canonical_form(complete_graph(16)) == complete_graph(16)
    empty = Graph.from_edges(16, [])
    assert canonical_form(empty) == empty


# enumeration


@pytest.mark.parametrize("n, count", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112)])
def test_enumerate_counts(n, count):
    assert len(enumerate_connected(n)) == count


def test_enumerate_three_vertices_by_brute_force():
    # independent check: all 8 labeled graphs, filter connected, dedup manually
    labeled = []
    for mask in range(8):
        edges = [e for bit, e in enumerate([(1, 2), (1, 3), (2, 3)]) if mask >> bit & 1]
        g = Graph.from_edges(3, edges)
        if is_connected(g):
            labeled.append(canonical_form(g))
    assert len({g.mask() for g in labeled}) == 2
    assert {g.mask() for g in enumerate_connected(3)} == {g.mask() for g in labeled}


def test_enumerate_output_is_canonical_connected_and_distinct():
    for n in range(1, 6):
        graphs = enumerate_connected(n)
        masks = [g.mask() for g in graphs]
        assert len(set(masks)) == len(masks)
        assert masks == sorted(masks)
        for g in graphs:
            assert is_connected(g)
            assert canonical_form(g) == g


@pytest.mark.parametrize("n", range(1, 7))
def test_enumerate_matches_orbit_sweep_oracle(n):
    assert [g.mask() for g in enumerate_connected(n)] == orbit_sweep_masks(n)


def test_enumerate_rejects_unsupported_n():
    with pytest.raises(GraphError):
        enumerate_connected(8)
