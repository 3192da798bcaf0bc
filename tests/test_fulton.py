"""Walk-count zero patterns."""

import random

import pytest

from qsymgraph import (
    Graph,
    ZeroPattern,
    automorphism_group,
    enumerate_connected,
    render_pattern,
    zero_pattern,
)
from qsymgraph.graphs import _connected_masks

from conftest import complete_graph, cycle_graph, rigid6
from walk_oracle import adjacency, matrix_power


def is_identity_forced(pattern) -> bool:
    """Every off-diagonal generator is forced, so the algebra is trivial."""
    return pattern.forced_count() == pattern.n * (pattern.n - 1)


def test_house_pattern_leaves_two_blocks_and_apex(house):
    pattern = zero_pattern(house)
    alive = set(pattern.alive())
    expected = {(i, j) for i in (0, 3) for j in (0, 3)}
    expected |= {(i, j) for i in (1, 2) for j in (1, 2)}
    expected |= {(4, 4)}
    assert alive == expected
    assert not is_identity_forced(pattern)


def test_broken_house_pattern_is_block_diagonal(broken_house):
    pattern = zero_pattern(broken_house)
    alive = set(pattern.alive())
    expected = {(0, 0), (4, 4)} | {(i, j) for i in (1, 2, 3) for j in (1, 2, 3)}
    assert alive == expected


def test_rigid6_fourth_power_diagonal_splits_everything():
    g = rigid6()
    p4 = matrix_power(g, 4)
    assert tuple(p4[i][i] for i in range(6)) == (3, 12, 8, 13, 6, 2)
    pattern = zero_pattern(g)
    assert is_identity_forced(pattern)
    assert pattern.alive() == [(i, i) for i in range(6)]


@pytest.mark.parametrize("build", [
    lambda: cycle_graph(4),
    lambda: complete_graph(4),
    lambda: complete_graph(5),
    lambda: cycle_graph(5),
    lambda: cycle_graph(6),
])
def test_vertex_transitive_graphs_force_nothing(build):
    pattern = zero_pattern(build())
    assert pattern.forced_count() == 0
    assert not is_identity_forced(pattern)


def test_identity_not_forced_on_house(house):
    assert not is_identity_forced(zero_pattern(house))


def test_pattern_symmetric_and_diagonal_free():
    # the alive positions are exactly the pairs in one class: the diagonal,
    # symmetric, and counted by forced_count
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(2, 7)
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        pattern = zero_pattern(g)
        alive = set(pattern.alive())
        assert len(alive) == n * n - pattern.forced_count()
        for i in range(n):
            assert (i, i) in alive
            for j in range(n):
                same = pattern.classes[i] == pattern.classes[j]
                assert ((i, j) in alive) == ((j, i) in alive) == same


@pytest.mark.parametrize("classes", [
    (1, 1),  # the class {0, 1} named by its largest vertex
    (0, 0, 1),  # vertex 2 named by vertex 1, whose class is 0
    (0, 2, 2),
    (0, 3),  # a name past the vertex it names
    (-1,),
])
def test_pattern_rejects_classes_not_named_by_least_vertex(classes):
    with pytest.raises(ValueError, match="least vertex"):
        ZeroPattern(classes, 1)


def test_square_diagonal_is_degree_sequence():
    rng = random.Random(47)
    for _ in range(30):
        n = rng.randint(2, 7)
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        sq = matrix_power(g, 2)
        assert [sq[i][i] for i in range(n)] == [sum(i + 1 in e for e in edges) for i in range(n)]


def _split_pairs(g, cap):
    """Pairs whose closed-walk counts differ at some power 1..cap."""
    n = g.n
    split = set()
    adj = p = adjacency(g)
    for _ in range(cap):
        split |= {(i, j) for i in range(n) for j in range(n) if p[i][i] != p[j][j]}
        p = [[sum(p[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
    return split


def _forced_pairs(pattern):
    cl = pattern.classes
    return {(i, j) for i, ci in enumerate(cl) for j, cj in enumerate(cl) if ci != cj}


def test_default_cap_agrees_with_n_squared_powers():
    # Cayley-Hamilton: powers beyond n - 1 split no further pairs
    graphs = [g for n in range(1, 7) for g in enumerate_connected(n)]
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(2, 9)
        graphs.append(Graph.from_edges(n, [
            (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            if rng.random() < 0.4]))
    # dense graphs up to n = 16, where walk counts come closest to the
    # (n-1)^(n-1) bound that sets the field width of the packed rows
    graphs.append(complete_graph(16))
    graphs.append(Graph.from_edges(16, [
        (i, j) for i in range(1, 17) for j in range(i + 1, 17) if (i + 1) // 2 != (j + 1) // 2]))
    for n in (12, 14, 16, 16):
        graphs.append(Graph.from_edges(n, [
            (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            if rng.random() < 0.9]))
    for g in graphs:
        pattern = zero_pattern(g)
        assert pattern.max_power_used <= max(g.n - 1, 1)
        assert _forced_pairs(pattern) == _split_pairs(g, g.n * g.n)


def test_stopping_at_the_orbits_keeps_the_classes():
    # walk classes are unions of orbits, so once there are as many as
    # orbits no later power splits one; the stop only saves powers
    graphs = [Graph.from_mask(n, m) for n in range(1, 9) for m in _connected_masks(n)]
    assert len(graphs) == 11117 + 853 + 112 + 21 + 6 + 2 + 1 + 1
    rng = random.Random(59)
    for _ in range(200):
        n = rng.randint(2, 16)
        p = rng.choice((0.2, 0.5, 0.8))
        graphs.append(Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                           if rng.random() < p], one_based=False))
    saved = 0
    for g in graphs:
        full, stopped = zero_pattern(g), zero_pattern(g, automorphism_group(g).orbits)
        assert stopped.classes == full.classes, g
        assert stopped.max_power_used <= full.max_power_used, g
        saved += full.max_power_used - stopped.max_power_used
    assert saved > 0


def test_first_power_already_splits_degree_one_vertices():
    # path on 3 vertices: center vs leaves split at power 2
    g = Graph.from_edges(3, [(1, 2), (2, 3)])
    pattern = zero_pattern(g)
    assert set(pattern.alive()) == {(0, 0), (0, 2), (2, 0), (2, 2), (1, 1)}


def test_render_pattern(broken_house):
    text = render_pattern(zero_pattern(broken_house))
    rows = text.splitlines()
    assert rows[0].split() == ["u_11", "0", "0", "0", "0"]
    assert rows[1].split() == ["0", "u_22", "u_23", "u_24", "0"]
    assert rows[4].split() == ["0", "0", "0", "0", "u_55"]
