"""Automorphism groups, group axioms, and the disjoint-pair search."""

import gc
import random
import sys
from collections import Counter

import pytest

from qsymgraph import (
    Graph,
    are_disjoint,
    automorphism_group,
    cycle_notation,
    enumerate_connected,
    find_disjoint_pair,
    group_order,
    permute,
)
from qsymgraph.automorphisms import is_automorphism, moved_points
from qsymgraph.fulton import zero_pattern

from conftest import complete_graph, cycle_graph, four_vertex_path, star4


def random_graph(rng, n):
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


def compose(s, t):
    return tuple(s[t[i]] for i in range(len(s)))


def invert(s):
    out = [0] * len(s)
    for i, img in enumerate(s):
        out[img] = i
    return tuple(out)


def test_group_is_freed_without_garbage_collection():
    # a reference cycle would keep each call's 5,040 elements alive
    # until a full collection
    k7 = complete_graph(7)
    automorphism_group(k7)
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        for _ in range(3):
            assert automorphism_group(k7).order == 5040
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert grown < 1000


def test_group_orders():
    assert automorphism_group(cycle_graph(4)).order == 8
    assert automorphism_group(complete_graph(4)).order == 24
    assert automorphism_group(star4()).order == 6
    assert automorphism_group(four_vertex_path()).order == 2
    assert group_order(automorphism_group(Graph(1, ((0,),)))) == 1


def test_house_contains_expected_transpositions(house):
    group = automorphism_group(house)
    swap23 = (0, 2, 1, 3, 4)
    swap14 = (3, 1, 2, 0, 4)
    assert swap23 in group.elements
    assert swap14 in group.elements


def test_every_element_commutes_with_adjacency():
    rng = random.Random(3)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 6))
        for s in automorphism_group(g).elements:
            assert is_automorphism(g, s)
            assert permute(g, s) == g


def test_group_axioms_exhaustively():
    rng = random.Random(5)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 5))
        group = automorphism_group(g)
        elems = set(group.elements)
        assert group.identity() in elems
        for s in elems:
            assert invert(s) in elems
            for t in elems:
                assert compose(s, t) in elems


def test_order_divides_factorial():
    import math

    rng = random.Random(23)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 6))
        assert math.factorial(g.n) % automorphism_group(g).order == 0


def test_are_disjoint():
    s = (2, 1, 0, 3)  # swaps 1,3 (1-based)
    t = (0, 3, 2, 1)  # swaps 2,4
    assert are_disjoint(s, t)
    assert not are_disjoint((1, 0, 2, 3), (0, 2, 1, 3))  # both move vertex 2
    ident = (0, 1, 2, 3)
    assert are_disjoint(ident, s)
    with pytest.raises(ValueError, match="degree"):
        are_disjoint((0, 1), (0, 1, 2))


def test_find_disjoint_pair_cycle():
    pair = find_disjoint_pair(automorphism_group(cycle_graph(4)))
    assert pair is not None
    s, t = pair
    assert are_disjoint(s, t)
    assert {moved_points(s), moved_points(t)} == {frozenset({0, 2}), frozenset({1, 3})}


def test_find_disjoint_pair_path_absent():
    assert find_disjoint_pair(automorphism_group(four_vertex_path())) is None


def test_find_disjoint_pair_house(house):
    pair = find_disjoint_pair(automorphism_group(house))
    assert pair is not None
    supports = {moved_points(p) for p in pair}
    assert supports == {frozenset({1, 2}), frozenset({0, 3})}


def test_find_disjoint_pair_never_identity():
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 6))
        group = automorphism_group(g)
        pair = find_disjoint_pair(group)
        if pair is not None:
            s, t = pair
            assert s != group.identity() and t != group.identity()
            assert are_disjoint(s, t)


def test_forced_zero_blocks_automorphism_images():
    rng = random.Random(37)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 6))
        pattern = zero_pattern(g)
        group = automorphism_group(g)
        for s in group.elements:
            for i in range(g.n):
                assert not pattern.is_forced(i, s[i])


@pytest.mark.parametrize("n, expected", [
    (4, {24: 1, 8: 1, 6: 1, 4: 1, 2: 2}),
    (5, {120: 1, 24: 1, 12: 3, 10: 1, 8: 2, 6: 1, 4: 3, 2: 9}),
    (6, {720: 1, 120: 1, 72: 1, 48: 4, 36: 1, 24: 1, 16: 3, 12: 10,
         10: 1, 8: 9, 6: 7, 4: 28, 2: 37, 1: 8}),
])
def test_order_histograms_for_connected_graphs(n, expected):
    hist = Counter(automorphism_group(g).order for g in enumerate_connected(n))
    assert dict(hist) == expected


def test_cycle_notation():
    assert cycle_notation((0, 1, 2, 3)) == "()"
    assert cycle_notation((1, 0, 3, 2)) == "(1,2)(3,4)"
    assert cycle_notation((2, 1, 0, 3)) == "(1,3)"
    assert cycle_notation((1, 2, 0)) == "(1,2,3)"
