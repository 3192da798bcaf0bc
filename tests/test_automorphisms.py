"""Automorphism groups, group axioms, and the disjoint-pair search."""

import gc
import math
import random
import sys
import time
from collections import Counter

import pytest

from qsymgraph import (
    Graph,
    VerdictKind,
    are_disjoint,
    automorphism_group,
    classify,
    cycle_notation,
    enumerate_connected,
    find_disjoint_pair,
)
from qsymgraph.automorphisms import is_automorphism, moved_points
from qsymgraph.fulton import zero_pattern

import automorphism_oracle
from conftest import complete_graph, cycle_graph, four_vertex_path, permute, star4


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
    # a reference cycle would keep each call's search state alive until
    # a full collection
    k7 = complete_graph(7)
    find_disjoint_pair(automorphism_group(k7))
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        for _ in range(3):
            group = automorphism_group(k7)
            assert group.order == 5040
            assert find_disjoint_pair(group) is not None
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert grown < 1000


def test_group_orders():
    assert automorphism_group(cycle_graph(4)).order == 8
    assert automorphism_group(complete_graph(4)).order == 24
    assert automorphism_group(star4()).order == 6
    assert automorphism_group(four_vertex_path()).order == 2
    assert automorphism_group(Graph(1, ((0,),))).order == 1


def test_house_contains_expected_transpositions(house):
    elements = automorphism_oracle.elements(house)
    swap23 = (0, 2, 1, 3, 4)
    swap14 = (3, 1, 2, 0, 4)
    assert swap23 in elements
    assert swap14 in elements
    assert automorphism_group(house).order == len(elements)


def test_every_element_commutes_with_adjacency():
    rng = random.Random(3)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 6))
        elements = automorphism_oracle.elements(g)
        assert automorphism_group(g).order == len(elements)
        for s in elements:
            assert is_automorphism(g, s)
            assert permute(g, s) == g


def test_group_axioms_exhaustively():
    rng = random.Random(5)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 5))
        elems = set(automorphism_oracle.elements(g))
        assert automorphism_group(g).order == len(elems)
        assert tuple(range(g.n)) in elems
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
        # the pair is the first in lex order, so it depends on the labelling
        assert (group.order, pair) == automorphism_oracle.order_and_pair(g)
        if pair is not None:
            s, t = pair
            assert s != tuple(range(g.n)) and t != tuple(range(g.n))
            assert are_disjoint(s, t)


def test_forced_zero_blocks_automorphism_images():
    rng = random.Random(37)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 6))
        pattern = zero_pattern(g)
        for s in automorphism_oracle.elements(g):
            for i in range(g.n):
                assert not pattern.forced_zero[i][s[i]]


def test_order_and_pair_match_oracle_on_connected_graphs():
    for n in range(1, 7):
        for g in enumerate_connected(n):
            group = automorphism_group(g)
            assert (group.order, find_disjoint_pair(group)) == automorphism_oracle.order_and_pair(g)


def disjoint_edges(k):
    return Graph.from_edges(2 * k, [(2 * i + 1, 2 * i + 2) for i in range(k)])


@pytest.mark.parametrize("name, g, order", [
    ("K10", complete_graph(10), math.factorial(10)),
    ("K12", complete_graph(12), math.factorial(12)),
    ("K16", complete_graph(16), math.factorial(16)),
    ("empty16", Graph.from_edges(16, []), math.factorial(16)),
    ("8K2", disjoint_edges(8), 2 ** 8 * math.factorial(8)),
])
def test_large_groups_without_listing_elements(name, g, order):
    start = time.perf_counter()
    group = automorphism_group(g)
    pair = find_disjoint_pair(group)
    verdict = classify(g)
    elapsed = time.perf_counter() - start
    assert group.order == order
    assert pair is not None
    s, t = pair
    assert is_automorphism(g, s) and is_automorphism(g, t)
    assert are_disjoint(s, t) and moved_points(s) and moved_points(t)
    assert verdict.kind is VerdictKind.QUANTUM_SYMMETRIC
    assert verdict.aut_order == order and verdict.disjoint_pair == pair
    assert elapsed < 1.0, f"{name} took {elapsed:.2f} s"


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
