"""Acceptance suite: one test per criterion, strict expected values.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  The 7-vertex enumeration check, the Petersen graph, the
Moebius-Kantor graph and the Heawood graph (about 3.4 s, 1.7 s, 3.7 s
and 30 s on a 2-core machine with Python 3.11; the enumeration itself
takes 0.04 s of the first, the brute-force orbit sweep it is checked
against 3.1 s) only run when RUN_NIGHTLY=1 is set; everything else runs
by default.
"""

import hashlib
import json
import os
import random
from collections import Counter
from fractions import Fraction

import pytest

from qsymgraph import (
    RunConfig,
    VerdictKind,
    automorphism_group,
    classify,
    enumerate_connected,
    find_disjoint_pair,
    run_batch,
    zero_pattern,
)
from qsymgraph.classify import build_relations
from qsymgraph.freealg import EMPTY_WORD
from qsymgraph.groebner import complete
from qsymgraph.pipeline import OrderRow

import automorphism_oracle
from commutator_oracle import commutators
from conftest import FOUR_VERTEX_CASES, house_x, house_x_broken, rigid6, word_cmp
from enumeration_oracle import orbit_sweep_masks
from walk_oracle import matrix_power
from membership_oracle import SpanOracle
from polyring import Poly, word
from relations_oracle import reference_relations
from worklist_oracle import ListReducer, normal_form

NIGHTLY = os.environ.get("RUN_NIGHTLY") == "1"


def _pass(label: str):
    print(f"[PASS] {label}")


def test_criterion_1_small_graphs(five_vertex_run):
    small = [(g, v) for g, v in five_vertex_run if g.n <= 3]
    assert len(small) == 4
    assert all(v.kind is VerdictKind.NOT_QUANTUM_SYMMETRIC for _, v in small)
    _pass("criterion 1: graphs on up to 3 vertices are never quantum symmetric")


def test_criterion_2_four_vertex_classification():
    orders = []
    verdicts = []
    for name, build, _, _ in FOUR_VERTEX_CASES:
        v = classify(build())
        orders.append(v.aut_order)
        verdicts.append(v.kind is VerdictKind.QUANTUM_SYMMETRIC)
    assert orders == [6, 2, 2, 8, 4, 24]
    assert verdicts == [False, False, False, True, True, True]

    report = run_batch(RunConfig(n=4))
    assert report.rows == (
        OrderRow(24, 1, 1, 0), OrderRow(8, 1, 1, 0), OrderRow(6, 1, 0, 0),
        OrderRow(4, 1, 1, 0), OrderRow(2, 2, 0, 0),
    )
    assert (report.total, report.total_qsym, report.total_undecided) == (6, 3, 0)
    _pass("criterion 2: 4-vertex orders, verdicts, and table column reproduced")


def test_criterion_3_five_vertex_table(five_vertex_run):
    five = [(g, v) for g, v in five_vertex_run if g.n == 5]
    assert len(five) == 21
    assert sum(v.kind is VerdictKind.QUANTUM_SYMMETRIC for _, v in five) == 10
    assert not any(v.kind is VerdictKind.UNDECIDED for _, v in five)
    breakdown = Counter()
    qsym = Counter()
    for _, v in five:
        breakdown[v.aut_order] += 1
        qsym[v.aut_order] += v.kind is VerdictKind.QUANTUM_SYMMETRIC
    expected = {120: (1, 1), 24: (1, 1), 12: (3, 3), 10: (1, 0),
                8: (2, 2), 6: (1, 0), 4: (3, 3), 2: (9, 0)}
    assert {o: (breakdown[o], qsym[o]) for o in breakdown} == expected
    _pass("criterion 3: 5-vertex table column exact, zero undecided")


def test_criterion_4_six_vertex_table():
    report = run_batch(RunConfig(n=6))
    expected = (
        OrderRow(720, 1, 1, 0), OrderRow(120, 1, 1, 0), OrderRow(72, 1, 1, 0),
        OrderRow(48, 4, 4, 0), OrderRow(36, 1, 1, 0), OrderRow(24, 1, 1, 0),
        OrderRow(16, 3, 3, 0), OrderRow(12, 10, 8, 0), OrderRow(10, 1, 0, 0),
        OrderRow(8, 9, 9, 0), OrderRow(6, 7, 0, 0), OrderRow(4, 28, 26, 0),
        OrderRow(2, 37, 0, 0), OrderRow(1, 8, 0, 0),
    )
    assert report.rows == expected
    assert (report.total, report.total_qsym, report.total_undecided) == (112, 55, 0)
    _pass("criterion 4: 6-vertex table column exact, zero undecided")


def test_seven_vertex_table_pinned():
    # a regression pin: the rows were derived from this implementation, not
    # checked against a published 7-vertex table
    report = run_batch(RunConfig(n=7))
    expected = (
        OrderRow(5040, 1, 1, 0), OrderRow(720, 1, 1, 0), OrderRow(240, 3, 3, 0),
        OrderRow(144, 3, 3, 0), OrderRow(120, 1, 1, 0), OrderRow(72, 2, 2, 0),
        OrderRow(48, 14, 14, 0), OrderRow(36, 3, 3, 0), OrderRow(24, 14, 14, 0),
        OrderRow(20, 2, 2, 0), OrderRow(16, 10, 10, 0), OrderRow(14, 2, 0, 0),
        OrderRow(12, 51, 49, 0), OrderRow(10, 1, 0, 0), OrderRow(8, 55, 55, 0),
        OrderRow(6, 31, 0, 0), OrderRow(4, 198, 188, 0), OrderRow(2, 317, 0, 0),
        OrderRow(1, 144, 0, 0),
    )
    assert report.rows == expected
    assert (report.total, report.total_qsym, report.total_undecided) == (853, 346, 0)
    assert report.cap_failures == () and report.input_errors == ()
    # every NDJSON record in order, byte for byte, apart from its timing
    digest = hashlib.sha256()
    for rec in report.records:
        fields = rec.to_json_dict()
        del fields["wall_time_ms"]
        digest.update(json.dumps(fields).encode() + b"\n")
    assert digest.hexdigest() == (
        "bd33ce97d5907305ff45ae0d95adce36a54f8f7e827de01c3866bc23c67eac2a")
    _pass("7-vertex table and records pinned, zero undecided")


def test_criterion_5_worked_example_regressions():
    house = house_x()
    assert matrix_power(house, 2) == (
        (4, 2, 2, 3, 1),
        (2, 3, 2, 2, 2),
        (2, 2, 3, 2, 2),
        (3, 2, 2, 4, 1),
        (1, 2, 2, 1, 2),
    )

    broken = house_x_broken()
    pattern = zero_pattern(broken)
    expected_alive = {(0, 0), (4, 4)} | {(i, j) for i in (1, 2, 3) for j in (1, 2, 3)}
    assert set(pattern.alive()) == expected_alive

    g6 = rigid6()
    p4 = matrix_power(g6, 4)
    assert tuple(p4[i][i] for i in range(6)) == (3, 12, 8, 13, 6, 2)
    verdict = classify(g6)
    assert verdict.kind is VerdictKind.NOT_QUANTUM_SYMMETRIC
    assert zero_pattern(g6).alive() == [(i, i) for i in range(6)]  # identity forced
    assert verdict.algebra.vacuous and verdict.algebra.degree_bound is None
    _pass("criterion 5: worked-example regressions exact")


def test_criterion_6_small_groups_block_quantum_symmetry(five_vertex_run):
    by_size = Counter()
    for g, v in five_vertex_run:
        if v.aut_order in (1, 2):
            assert v.kind is VerdictKind.NOT_QUANTUM_SYMMETRIC
            by_size[g.n] += 1
    # single vertex, single edge, and the 3-path qualify below n=4
    assert by_size == {1: 1, 2: 1, 3: 1, 4: 2, 5: 9}
    six_checked = 0
    for g in enumerate_connected(6):
        if automorphism_group(g).order in (1, 2):
            assert classify(g).kind is VerdictKind.NOT_QUANTUM_SYMMETRIC
            six_checked += 1
    assert six_checked == 45
    _pass("criterion 6: |Aut| in {1,2} implies no quantum symmetry through n=6")


def test_criterion_7_mutual_exclusion(five_vertex_run):
    for g, v in five_vertex_run:
        has_pair = v.disjoint_pair is not None
        assert not (has_pair and v.qsym_output == 1)
        if has_pair:
            assert v.qsym_output == 0  # the criteria matched on every graph
    _pass("criterion 7: no graph has both a disjoint pair and a commutative algebra")


def test_criterion_8_oracle_equivalence():
    """GB membership vs the exact linear-algebra span oracle.

    Two-sided agreement for every commutator at degrees 4 and 6,
    except that the complete graph runs at degree 4 only: its
    16-generator presentation has too few vanishing products for the
    projection to bite, and the degree-6 saturation runs to millions
    of dense pivots, far beyond the time budget.
    """
    for name, build, _, _ in FOUR_VERTEX_CASES:
        g = build()
        pres = build_relations(g, zero_pattern(g))
        untrimmed = reference_relations(g, zero_pattern(g))
        m = len(pres.positions)
        coms = commutators(pres)
        for d in (4, 6):
            if d == 6 and name == "complete":
                continue
            basis = complete(pres.relations, degree_bound=d)
            reducer = ListReducer(basis.polys)
            # the untrimmed relations span the same ideal; the oracle's
            # single-word compression needs the monomials left out
            oracle = SpanOracle(untrimmed.relations, m, d)
            for c in coms:
                gb_member = reducer.normal_form(c).is_zero()
                assert gb_member == oracle.contains(c), (name, d, c)
    _pass("criterion 8: GB membership agrees with the span oracle on every commutator")


def test_criterion_9_enumeration_counts():
    assert [len(enumerate_connected(n)) for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]
    _pass("criterion 9: connected-graph counts 1,1,2,6,21,112 for n=1..6")


def test_criterion_10_engine_property_suite():
    rng = random.Random(2024)

    def rand_word(max_len=4):
        return bytes(rng.choices(range(3), k=rng.randint(0, max_len)))

    def rand_poly():
        return Poly({
            rand_word(): rng.choice([c for c in range(-4, 5) if c] + [Fraction(1, 2)])
            for _ in range(rng.randint(1, 4))
        })

    # ring axioms
    for _ in range(1000):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (g + h) * f == g * f + h * f

    # word order admissibility
    for _ in range(1000):
        u, v, a, b = rand_word(), rand_word(), rand_word(3), rand_word(3)
        assert word_cmp(EMPTY_WORD, u) <= 0
        if word_cmp(u, v) < 0:
            assert word_cmp(a + u + b, a + v + b) < 0

    bases = [
        complete([Poly({word(0, 1): 1, word(1, 0): -1}),
                  Poly({word(0, 0): 1, EMPTY_WORD: -1})], degree_bound=8).polys,
        [Poly({word(0, 0): 1, word(0): -1}),
         Poly({word(1, 1): 1, word(1): -1}),
         Poly({word(2, 2): 1, EMPTY_WORD: -1})],
    ]

    reducers = [ListReducer(basis) for basis in bases]

    # normal-form idempotence
    for _ in range(1000):
        reducer = reducers[rng.randrange(len(bases))]
        f = rand_poly()
        nf = reducer.normal_form(f)
        assert reducer.normal_form(nf) == nf

    # reduction soundness via cofactor re-multiplication: the worklist
    # oracle's trace rebuilds f - nf, and its nf is the package's
    for _ in range(1000):
        k = rng.randrange(len(bases))
        basis = bases[k]
        f = rand_poly()
        trace = []
        nf = normal_form(f, basis, trace=trace)
        rebuilt = Poly.zero()
        for coeff, left, rid, right in trace:
            rebuilt = rebuilt + Poly.term(left, coeff) * basis[rid] * Poly.term(right, 1)
        assert f - nf == rebuilt
        assert nf == reducers[k].normal_form(f)
    _pass("criterion 10: 4 x 1000 randomized engine properties hold exactly")


@pytest.mark.skipif(not NIGHTLY, reason="extended check, set RUN_NIGHTLY=1")
def test_extended_seven_vertex_enumeration():
    graphs = enumerate_connected(7)
    assert len(graphs) == 853
    assert [g.mask() for g in graphs] == orbit_sweep_masks(7)
    groups = [automorphism_group(g) for g in graphs]
    for g, group in zip(graphs, groups):
        assert (group.order, find_disjoint_pair(group)) == automorphism_oracle.order_and_pair(g)
    hist = Counter(group.order for group in groups)
    assert hist[1] == 144
    assert hist[2] == 317
    small = [g for g, group in zip(graphs, groups) if group.order in (1, 2)]
    for g in small:
        verdict = classify(g)
        assert verdict.kind is VerdictKind.NOT_QUANTUM_SYMMETRIC
        assert verdict.qsym_output == 1
    _pass("extended: 7-vertex classes match the orbit sweep, orders and pairs "
          "match the element lists, and all 461 small-group graphs are classical")


@pytest.mark.skipif(not NIGHTLY, reason="extended check, set RUN_NIGHTLY=1")
def test_petersen_graph_has_no_quantum_symmetry():
    # Schmidt, "The Petersen graph has no quantum symmetry" (BLMS 2018)
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    from qsymgraph import parse_graph6

    line = "IheA@GUAo"
    external = nx.from_graph6_bytes(line.encode())
    assert sum(1 for _ in GraphMatcher(external, external).isomorphisms_iter()) == 120
    verdict = classify(parse_graph6(line))
    assert verdict.kind is VerdictKind.NOT_QUANTUM_SYMMETRIC
    assert verdict.aut_order == 120
    # the largest completion the package runs: settled at the first bound
    assert verdict.algebra.degree_bound == 4
    assert verdict.algebra.basis_size == 1700
    _pass("extended: the Petersen graph has no quantum symmetry, |Aut| = 120")


@pytest.mark.skipif(not NIGHTLY, reason="extended check, set RUN_NIGHTLY=1")
def test_mobius_kantor_graph_settles_at_the_first_bound():
    # the engine's yardstick on vertex-transitive graphs, where the walk
    # pattern forces nothing and the engine sees all 256 generators; the
    # verdict, bound and basis size are results of this code, not values
    # taken from the literature
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    from qsymgraph import parse_graph6

    external = nx.LCF_graph(16, [5, -5], 8)
    assert sum(1 for _ in GraphMatcher(external, external).isomorphisms_iter()) == 96
    line = nx.to_graph6_bytes(external, header=False).decode("ascii").strip()
    verdict = classify(parse_graph6(line))
    assert verdict.kind is VerdictKind.NOT_QUANTUM_SYMMETRIC
    assert verdict.aut_order == 96
    assert verdict.algebra.degree_bound == 4
    assert verdict.algebra.basis_size == 2762
    _pass("extended: the Moebius-Kantor graph settles at bound 4, |Aut| = 96")


@pytest.mark.skipif(not NIGHTLY, reason="extended check, set RUN_NIGHTLY=1")
def test_heawood_graph_settles_at_the_first_bound():
    # the largest one-class completion measured: the Heawood graph is
    # vertex-transitive, so the walk pattern forces nothing, all 196
    # letters stay, and each family of relations build_relations leaves
    # out applies; the verdict, bound and basis size are results of this
    # code, not values taken from the literature
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    from qsymgraph import parse_graph6

    external = nx.heawood_graph()
    assert sum(1 for _ in GraphMatcher(external, external).isomorphisms_iter()) == 336
    line = nx.to_graph6_bytes(external, header=False).decode("ascii").strip()
    verdict = classify(parse_graph6(line))
    assert verdict.kind is VerdictKind.NOT_QUANTUM_SYMMETRIC
    assert verdict.aut_order == 336
    assert verdict.algebra.degree_bound == 4
    assert verdict.algebra.basis_size == 5390
    _pass("extended: the Heawood graph settles at bound 4, |Aut| = 336")
