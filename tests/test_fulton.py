"""Walk-count zero patterns."""

import random

import pytest

from qsymgraph import (
    Graph,
    enumerate_connected,
    matrix_power,
    render_pattern,
    zero_pattern,
)

from conftest import complete_graph, cycle_graph, rigid6


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
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(2, 7)
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        pattern = zero_pattern(g)
        for i in range(n):
            assert not pattern.forced_zero[i][i]
            for j in range(n):
                assert pattern.forced_zero[i][j] == pattern.forced_zero[j][i]


def test_square_diagonal_is_degree_sequence():
    rng = random.Random(47)
    for _ in range(30):
        n = rng.randint(2, 7)
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        sq = matrix_power(g, 2)
        assert [sq[i][i] for i in range(n)] == [g.degree(i) for i in range(n)]


def _split_pairs(g, cap):
    """Pairs whose closed-walk counts differ at some power 1..cap."""
    n = g.n
    split = set()
    p = g.adj
    for _ in range(cap):
        split |= {(i, j) for i in range(n) for j in range(n) if p[i][i] != p[j][j]}
        p = [[sum(p[i][k] * g.adj[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
    return split


def _forced_pairs(pattern):
    n = pattern.n
    return {(i, j) for i in range(n) for j in range(n) if pattern.forced_zero[i][j]}


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
