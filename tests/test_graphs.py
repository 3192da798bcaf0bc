"""Graph representation, graph6 codec, walk counts, canonical forms, enumeration."""

import ast
import inspect
import itertools
import os
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsymgraph import (
    Graph,
    canonical_form,
    enumerate_connected,
    is_connected,
    parse_adjacency,
    parse_graph6,
    to_graph6,
)
from qsymgraph import graphs, groebner
from qsymgraph.graphs import AdjacencyError, Graph6Error, GraphError

from conftest import (
    complete_graph,
    cycle_graph,
    house_x,
    house_x_broken,
    path_graph,
    permute,
    rigid6,
    twinned_graph,
)
import automorphism_oracle
from enumeration_oracle import (
    all_children_masks,
    brute_force_canonical_mask,
    degree_bound_keeps,
    deletes_canonically_labelling_every_tie,
    orbit_sweep_masks,
)
from graph_oracle import validation_error
from walk_oracle import adjacency, matrix_power

NIGHTLY = os.environ.get("RUN_NIGHTLY") == "1"

HOUSE_ADJACENCY = """\
0 1 1 1 1
1 0 1 1 0
1 1 0 1 0
1 1 1 0 1
1 0 0 1 0
"""
HOUSE_MATRIX = tuple(tuple(int(x) for x in line.split()) for line in HOUSE_ADJACENCY.splitlines())


def random_graph(rng: random.Random, n: int) -> Graph:
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


# graph6 codec


def test_graph6_complete_graph():
    g = parse_graph6("C~")
    assert g.n == 4
    assert all(adjacency(g)[i][j] == 1 for i in range(4) for j in range(4) if i != j)


def test_graph6_single_edge():
    g = parse_graph6("A_")
    assert g.n == 2
    assert adjacency(g)[0][1] == 1


def test_graph6_isolated_vertex():
    g = parse_graph6("@")
    assert g.n == 1
    assert g.edges() == []


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
        adj = adjacency(g)
        assert ord(s[0]) - 63 == n
        bitstring = "".join(format(ord(c) - 63, "06b") for c in s[1:])
        p = 0
        for j in range(1, n):
            for i in range(j):
                assert int(bitstring[p]) == adj[i][j]
                p += 1
        assert all(b == "0" for b in bitstring[p:])
        assert parse_graph6(s) == g


@given(st.integers(1, 16), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_graph6_round_trip_property(n, rnd):
    # every encoding the graph has: graph6, the edge mask and the edge list
    rng = random.Random(rnd.randint(0, 10**9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [pair for pair in pairs if rng.random() < 0.5]
    g = Graph.from_edges(n, edges, one_based=False)
    assert g.edges() == edges
    assert g.mask() == int("0" + "".join("01"[pair in edges] for pair in pairs), 2)
    assert Graph.from_mask(n, g.mask()) == g
    assert parse_graph6(to_graph6(g)) == g


# adjacency text


def test_parse_adjacency_house(house):
    g = parse_adjacency(HOUSE_ADJACENCY)
    assert g == house
    assert adjacency(g) == HOUSE_MATRIX
    assert len(g.edges()) == 8


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
    with pytest.raises(GraphError, match=r"asymmetric adjacency at \(1,2\)"):
        Graph(2, (0b10, 0b00))
    # the first asymmetric entry in row-major order, here below the diagonal
    with pytest.raises(GraphError, match=r"asymmetric adjacency at \(1,3\)"):
        Graph(3, (0b000, 0b000, 0b001))
    with pytest.raises(GraphError, match="self-loop at vertex 2"):
        Graph(2, (0b00, 0b10))
    with pytest.raises(GraphError, match="not n x n"):
        Graph(3, (0b10, 0b01))  # two masks for three vertices
    with pytest.raises(GraphError, match="not n x n"):
        Graph(2, (0b100, 0b000))  # bit 2 names a third vertex
    with pytest.raises(GraphError, match="not n x n"):
        Graph(2, (-2, 0b01))  # bit 1 set as in K2, and every bit above it
    with pytest.raises(GraphError, match="outside"):
        Graph(0, ())
    with pytest.raises(GraphError, match="outside"):
        Graph.from_edges(17, [(1, 2)])
    with pytest.raises(GraphError, match="vertex range"):
        Graph.from_edges(3, [(1, 4)])
    with pytest.raises(GraphError, match="vertex range"):
        Graph.from_edges(3, [(0, 2)])  # 1-based input must not wrap


def test_graph_validation_matches_the_entry_by_entry_reference():
    # seeded corruptions of valid masks: one to three entries flipped,
    # the diagonal and both triangles alike, sometimes a bit past n or a
    # negative mask; the message names the first fault in row-major order
    rng = random.Random(41)
    seen = Counter()
    for _ in range(3000):
        n = rng.randint(1, 16)
        nbr = list(random_graph(rng, n).nbr)
        for _ in range(rng.randint(1, 3)):
            i, kind = rng.randrange(n), rng.random()
            if kind < 0.9:
                nbr[i] ^= 1 << rng.randrange(n)
            elif kind < 0.95:
                nbr[i] |= 1 << rng.randrange(n, n + 3)
            else:
                nbr[i] = ~nbr[i]
        expected = validation_error(n, nbr)
        try:
            Graph(n, tuple(nbr))
            got = None
        except GraphError as exc:
            got = str(exc)
        assert got == expected, (n, nbr)
        seen[(expected or "valid").split(" at")[0]] += 1
    assert sorted(seen) == ["adjacency matrix is not n x n", "asymmetric adjacency",
                            "self-loop", "valid"]
    assert min(seen.values()) > 50


# the automorphism search


def _first_from_level_0(search, forced, nonidentity, prune):
    """``Search.first`` without skipping its identity prefix."""
    return search._extend(0, [0] * search.n, 0, 0, forced, nonidentity, prune)


def test_search_skips_its_identity_prefix_without_changing_a_result():
    # the same automorphism, and prune called with the same moved sets in
    # the same order, as the search that walks every level from 0
    rng = random.Random(43)
    found = 0
    for _ in range(600):
        n = rng.randint(1, 10)
        search = graphs.Search(twinned_graph(rng, n).nbr)
        prefix = rng.randint(0, n)
        forced = {v: v for v in range(prefix)}
        for v in rng.sample(range(prefix, n), rng.randint(0, n - prefix)):
            forced[v] = v if rng.random() < 0.5 else rng.randrange(n)
        nonidentity = rng.random() < 0.5
        limit = rng.randint(1, n + 1)

        def pruner(log):
            return lambda moved: log.append(moved) or moved.bit_count() > limit

        skipped, walked = [], []
        got = search.first(forced, nonidentity, pruner(skipped))
        assert got == _first_from_level_0(search, forced, nonidentity, pruner(walked))
        assert skipped == walked, (search.nbr, forced)
        found += got is not None
    assert 100 < found < 500


def _generators_from_level_0(search):
    """``generators`` with each search walking every level from 0, and the
    orbits counted by closing each vertex under the generators."""
    gens, order = [], 1
    for i in reversed(range(search.n)):
        fixed = {v: v for v in range(i)}
        basic = {i}
        for j in range(i + 1, search.n):
            if search.nbr[j].bit_count() == search.nbr[i].bit_count() and j not in basic:
                perm = _first_from_level_0(search, {**fixed, i: j}, False, None)
                if perm is not None:
                    gens.append(perm)
                    basic = graphs.orbit(i, gens)
        order *= len(basic)
    return gens, order, len({min(graphs.orbit(v, gens)) for v in range(search.n)})


def test_generators_list_the_same_generators_as_searches_from_level_0():
    rng = random.Random(47)
    graphs_ = [twinned_graph(rng, rng.randint(1, 12)) for _ in range(300)]
    graphs_ += [complete_graph(9), cycle_graph(8), rigid6()]
    for g in graphs_:
        search = graphs.Search(g.nbr)
        assert graphs.generators(search) == _generators_from_level_0(search), g


# connectivity


def test_is_connected_examples(house):
    assert is_connected(complete_graph(4))
    assert not is_connected(Graph.from_edges(4, [(1, 2), (3, 4)]))
    assert is_connected(house)
    assert is_connected(Graph(1, (0,)))


# walk counts of the matrix reference


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
    assert matrix_power(house, 1) == HOUSE_MATRIX


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
        assert sum(sq[i][i] for i in range(g.n)) == 2 * len(g.edges())


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


def test_canonical_order_relabels_onto_the_canonical_form():
    # every connected graph on <= 7 vertices in a seeded relabelling,
    # random graphs on up to 16 vertices, and graphs where every vertex
    # choice ties at every level
    rng = random.Random(31)
    cases = [complete_graph(12), Graph.from_edges(12, []), cycle_graph(16)]
    for n in range(1, 8):
        for g in enumerate_connected(n):
            perm = list(range(n))
            rng.shuffle(perm)
            cases.append(permute(g, perm))
    cases += [random_graph(rng, n) for n in range(1, 17) for _ in range(4)]
    for g in cases:
        mask, order = graphs._canonical_labelling(g.nbr)
        assert sorted(order) == list(range(g.n))
        target = canonical_form(g)
        assert mask == target.mask()
        # vertex order[p] goes to position p
        assert permute(g, [order.index(v) for v in range(g.n)]) == target, to_graph6(g)


def test_canonical_order_from_cells_matches_brute_force():
    # from an ordered partition, the least mask over the relabelings that
    # keep each cell before the next, and an order that reaches it
    rng = random.Random(37)
    for _ in range(150):
        n = rng.randint(1, 7)
        g = random_graph(rng, n)
        cut = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        shuffled = rng.sample(range(n), n)
        cells = [shuffled[a:b] for a, b in zip([0] + cut, cut + [n])]
        mask, order = graphs._canonical_labelling(
            g.nbr, tuple(sum(1 << v for v in cell) for cell in cells))
        assert [sorted(order[a:b]) for a, b in zip([0] + cut, cut + [n])] == [
            sorted(cell) for cell in cells]
        assert permute(g, [order.index(v) for v in range(n)]).mask() == mask
        least = min(permute(g, [flat.index(v) for v in range(n)]).mask()
                    for flat in (sum(p, []) for p in itertools.product(
                        *[[list(q) for q in itertools.permutations(cell)] for cell in cells])))
        assert mask == least, (to_graph6(g), cells)


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


@pytest.mark.parametrize("n", range(1, 8))
def test_enumerate_matches_every_child_oracle(n):
    assert [g.mask() for g in enumerate_connected(n)] == all_children_masks(n)


@pytest.mark.skipif(not NIGHTLY, reason="extended check, set RUN_NIGHTLY=1")
def test_eight_vertex_enumeration_matches_every_child_oracle():
    assert graphs._connected_masks(8) == all_children_masks(8)


@pytest.mark.skipif(not NIGHTLY, reason="extended check, set RUN_NIGHTLY=1")
def test_connected_counts_past_the_cap():
    # OEIS A001349
    assert len(graphs._connected_masks(8)) == 11117
    assert len(graphs._connected_masks(9)) == 261080


def _accepted(g: Graph) -> set[int]:
    """The vertices w of g that the enumeration would keep as the new
    vertex of the child g, built from the canonical parent g - w."""
    nbr = g.nbr
    kept = set()
    for w in range(g.n):
        if not graphs._connected(nbr, (1 << g.n) - 1 ^ 1 << w):
            continue
        last = [u for u in range(g.n) if u != w] + [w]
        moved = permute(g, [last.index(u) for u in range(g.n)]).nbr
        parent = graphs._canonical_labelling(graphs._delete(nbr, w))[0]
        if graphs._deletes_canonically(moved, parent):
            kept.add(w)
    return kept


def test_canonical_deletion_rule_is_invariant_under_relabeling():
    rng = random.Random(31)
    for n in range(2, 7):
        for g in enumerate_connected(n):
            kept = _accepted(g)
            assert kept
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                assert _accepted(permute(g, perm)) == {perm[w] for w in kept}


def test_canonical_deletion_passes_over_a_cut_vertex_of_least_degree():
    # two K4s joined through a path a - w - b: w alone has degree 2, but
    # it is a cut vertex, so the rule must look past it (the least graph
    # of this kind has 9 vertices, beyond the exhaustive checks above)
    k4 = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    g = Graph.from_edges(9, k4 + [(i + 5, j + 5) for i, j in k4] + [(4, 5), (5, 6)])
    kept = _accepted(g)
    assert kept and 4 not in kept
    assert all(sum(adjacency(g)[w]) == 3 for w in kept)


def test_hood_representatives_are_the_least_of_each_orbit():
    # the least of each orbit of Aut(P), by the element list, on the
    # neighbourhoods the degree bound keeps, which Aut(P) maps onto each other
    for n in range(1, 6):
        for g in enumerate_connected(n):
            elements = automorphism_oracle.elements(g)
            least = {min(sum(1 << s[i] for i in range(n) if hood >> i & 1) for s in elements)
                     for hood in range(1, 1 << n) if degree_bound_keeps(g.nbr, hood)}
            assert graphs._hood_representatives(g.nbr) == sorted(least)


def _check_shortcuts_against_long_forms(n: int) -> None:
    """Every neighbourhood of every canonical parent on n vertices: the
    degree bound skips only children the full rule rejects, and the
    twin-aware rule agrees with labelling every tie."""
    new = 1 << n
    for parent, base in graphs._connected_rows(n).items():
        for hood in range(1, new):
            nbr = [x | new if hood >> i & 1 else x for i, x in enumerate(base)]
            nbr.append(hood)
            full = deletes_canonically_labelling_every_tie(nbr, parent)
            assert graphs._deletes_canonically(nbr, parent) == full, (parent, hood)
            assert degree_bound_keeps(base, hood) or not full, (parent, hood)


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_shortcuts_match_their_long_forms(n):
    _check_shortcuts_against_long_forms(n)


@pytest.mark.skipif(not NIGHTLY, reason="extended check, set RUN_NIGHTLY=1")
def test_enumeration_shortcuts_match_their_long_forms_on_seven_vertex_parents():
    _check_shortcuts_against_long_forms(7)


def test_parents_give_disjoint_children():
    per_parent = [graphs._children(m, rows) for m, rows in graphs._connected_rows(6).items()]
    union = {}
    for kids in per_parent:
        union.update(kids)
    assert sum(len(kids) for kids in per_parent) == len(union)
    assert sorted(union) == [g.mask() for g in enumerate_connected(7)]
    # each child leaves with the rows of its canonical form
    assert all(Graph(7, rows).mask() == mask for mask, rows in union.items())


def test_enumerate_rejects_unsupported_n():
    with pytest.raises(GraphError):
        enumerate_connected(8)


@pytest.mark.parametrize("module", [graphs, groebner], ids=lambda m: m.__name__.split(".")[-1])
def test_graphs_imports_nothing_from_the_package(module):
    # automorphisms, fulton and classify import from graphs, and graphs
    # holds the automorphism search they share, so an import back would
    # form a cycle; groebner, the engine, works on words and term dicts
    # alone
    tree = ast.parse(inspect.getsource(module))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module.split(".")[0] != "qsymgraph", node.module
        elif isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "qsymgraph" for alias in node.names)
