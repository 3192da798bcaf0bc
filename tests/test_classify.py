"""Relation building, the commutativity check, and full classification."""

import collections
import hashlib
import importlib
import itertools
import os
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from qsymgraph import (
    CheckStatus,
    ClassifyConfig,
    Graph,
    RunConfig,
    VerdictKind,
    automorphism_group,
    build_relations,
    canonical_form,
    classify,
    enumerate_connected,
    find_disjoint_pair,
    parse_graph6,
    qsym_check,
    render_table,
    run_batch,
    to_graph6,
    zero_pattern,
)
from qsymgraph.classify import CheckResult, Presentation
from qsymgraph.fulton import ZeroPattern
from qsymgraph.graphs import _connected_masks
from qsymgraph.groebner import EMPTY_WORD, EngineLimits, GBasis, ResourceCapError, complete
from qsymgraph.pipeline import OrderRow, classify_with_record

from commutator_oracle import all_pairs_check, commutators
from conftest import (
    FOUR_VERTEX_CASES,
    atlas_graphs,
    complete_graph,
    cycle_graph,
    four_vertex_path,
    pairless_presentations,
    path_graph,
    permute,
    rigid6,
    star4,
)
from polyring import Poly, degree, index, key
from relations_oracle import (
    commutation_matrix,
    explicit_zero_relations,
    key_adjacency,
    linear_consequences,
    magic_unitary_relations,
    left_out,
    reference_relations,
    relabelled,
    relabelled_relations,
)
from walk_oracle import adjacency
from worklist_oracle import ListReducer

NIGHTLY = os.environ.get("RUN_NIGHTLY") == "1"


def brute_force_relation_count(g: Graph) -> int:
    """Independent count of the defining relations via direct enumeration."""
    n = g.n
    seen = set()
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if j == k:
                    seen.add((("idem"), (i, j)))
                else:
                    seen.add(("zero", (i, j), (i, k)))
                    seen.add(("zero", (j, i), (k, i)))
    for i in range(n):
        seen.add(("rowsum", i))
        seen.add(("colsum", i))
    adj = adjacency(g)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if adj[i][j] != adj[k][l]:
                        seen.add(("zero", (i, k), (j, l)))
    return len(seen)


def test_complete_graph_relation_count():
    g = complete_graph(4)
    pres = build_relations(g, zero_pattern(g))
    assert len(pres.positions) == 16
    # K4 is one class whose block is complemented, so the adjacency the
    # relations read is 0 and uA = Au gives no linear relation
    assert _linear_block_of(pres) == []
    assert brute_force_relation_count(g) == 120
    # left out: (a) the 3 * 2 orthogonality words of each line's last
    # letter, in 4 rows and 4 columns; (b) the idempotents of the 7 last
    # letters; no product of (c) or (d), as the adjacency read is 0
    omitted = left_out(g, zero_pattern(g))
    assert len(omitted) == 8 * 3 * 2 + 7
    assert len(pres.relations) == brute_force_relation_count(g) - len(omitted) == 65


def test_relations_use_only_alive_generators(broken_house):
    pres = build_relations(broken_house, zero_pattern(broken_house))
    m = len(pres.positions)
    for rel in pres.relations:
        assert rel
        for w in rel:
            assert all(letter < m for letter in w)


def test_relations_deduplicated(house):
    pres = build_relations(house, zero_pattern(house))
    keys = [key(rel) for rel in pres.relations]
    assert len(set(keys)) == len(keys)


def test_relations_pinned_on_small_graphs():
    # SHA-256 over every relation list, in order, for all connected graphs
    # on <= 6 vertices, with the forced generators deleted and then kept
    # under explicit zero relations, as deduplicated through Poly.key; the
    # lists include the linear relations of uA = Au and leave out the four
    # families of ``left_out`` (with them: 123,154 relations, digest
    # 4d4def03cd8193b28b6036f7572523f7b576c661e32b38937d7d33204fc362a9)
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 7):
        for g in enumerate_connected(n):
            pattern = zero_pattern(g)
            for build in (build_relations, explicit_zero_relations):
                relations = build(g, pattern).relations
                count += len(relations)
                for rel in relations:
                    digest.update(repr(sorted(rel.items())).encode() + b";")
                digest.update(b"|")
    assert count == 67208
    assert digest.hexdigest() == (
        "0a1d8e3d5a1ae0204a4f95488586504b8dcce212e00c241fbf8a7a9ba4f92596")


def _linear_block_of(p):
    """The linear relations of uA = Au in ``p``: those of degree 1 with no
    constant term (every other relation has a product or a constant)."""
    return [r for r in p.relations if degree(r) == 1 and EMPTY_WORD not in r]


def _assert_matches_reference(g, pattern):
    """build_relations equals the Poly-arithmetic builder, whose linear
    relations are the entries of uA - Au for the oracle's own block
    normalisation, without exactly the relations ``left_out`` lists, each
    of which the reference holds once: the same generators, the other
    relations in the same order, and each relation's terms in the same
    dict order."""
    ref = reference_relations(g, pattern)
    pres = build_relations(g, pattern)
    held = collections.Counter(frozenset(r.items()) for r in ref.relations)
    omitted = left_out(g, pattern)
    dropped = {frozenset(r.items()) for r, _ in omitted}
    assert len(dropped) == len(omitted) and all(held[d] == 1 for d in dropped)
    kept = [r for r in ref.relations if frozenset(r.items()) not in dropped]
    assert pres.positions == ref.positions
    assert [repr(r) for r in pres.relations] == [repr(r) for r in kept]


def test_relations_match_reference_on_pairless_graphs():
    # every graph with n <= 7 that classify sends to the relation builder
    count = 0
    for n in range(1, 8):
        for g in enumerate_connected(n):
            if find_disjoint_pair(automorphism_group(g)) is None:
                _assert_matches_reference(g, zero_pattern(g))
                count += 1
    assert count == 582


def _random_partition(rng, n) -> ZeroPattern:
    """A random partition of n vertices into 1..n classes, as a pattern."""
    k = rng.randint(1, n)
    labels = [rng.randrange(k) for _ in range(n)]
    first: dict = {}
    return ZeroPattern(tuple(first.setdefault(x, i) for i, x in enumerate(labels)), 1)


def test_relations_match_reference_on_random_graphs_and_patterns():
    # walk-count patterns of random graphs up to n = 10, and random
    # partitions, among them the one-class pattern with every generator alive
    rng = random.Random(61)
    one_class = 0
    for _ in range(60):
        n = rng.randint(1, 10)
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < rng.choice((0.2, 0.5, 0.8))]
        g = Graph.from_edges(n, edges)
        _assert_matches_reference(g, zero_pattern(g))
        pattern = _random_partition(rng, n)
        one_class += pattern.forced_count() == 0
        _assert_matches_reference(g, pattern)
    assert one_class > 0


def _assert_left_out_replays(g, pattern):
    """Replay each relation ``left_out`` lists, in its order, as an exact
    identity from the relations ``build_relations`` keeps and the ones
    replayed before it; return how many were replayed."""
    held = {frozenset(r.items()) for r in build_relations(g, pattern).relations}
    omitted = left_out(g, pattern)
    for rel, steps in omitted:
        total = Poly()
        for c, left, used, right in steps:
            assert (frozenset(used.items()) in held
                    or frozenset((-used).items()) in held), (rel, used)
            total = total + c * (left * used * right)
        assert total == rel, rel
        held.add(frozenset(rel.items()))
    return len(omitted)


def test_left_out_relations_replay_on_pairless_graphs():
    graphs = [g for g in atlas_graphs() if find_disjoint_pair(automorphism_group(g)) is None]
    assert len(graphs) == 582
    assert sum(_assert_left_out_replays(g, zero_pattern(g)) for g in graphs) == 20389


def test_left_out_relations_replay_on_random_graphs_and_patterns():
    # walk-count patterns of random graphs up to n = 10, and random
    # partitions, among them the one-class pattern with every generator alive
    rng = random.Random(67)
    replayed = one_class = 0
    for _ in range(60):
        n = rng.randint(1, 10)
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < rng.choice((0.2, 0.5, 0.8))]
        g = Graph.from_edges(n, edges)
        pattern = _random_partition(rng, n)
        one_class += pattern.forced_count() == 0
        replayed += _assert_left_out_replays(g, zero_pattern(g))
        replayed += _assert_left_out_replays(g, pattern)
    assert one_class > 0 and replayed == 11143


def test_left_out_relations_leave_every_basis_as_it_was():
    # every omission is a degree-2 consequence of relations that stay, so
    # even the bases truncated at bound 2 do not move; the cases are the
    # 75 presentations of the graphs on <= 6 vertices and the distinct
    # ones of the memo keys of the pairless atlas and 7-vertex graphs:
    # a key's rows are a graph with the key's relations, taken in their
    # own labelling when the key has one class or only singletons, and
    # otherwise relabelled by the key's canonical order
    built = {}
    for g in [*atlas_graphs(), *enumerate_connected(7)]:
        if find_disjoint_pair(automorphism_group(g)) is not None:
            continue
        pattern = zero_pattern(g)
        h = Graph(g.n, classify_module._blocks_up_to_complement(g.nbr, pattern.classes))
        if 1 < len(set(pattern.classes)) < g.n:
            h, pattern = relabelled(h, pattern, classify_module._canonical_order(
                h.nbr, pattern.classes))
        built.setdefault(tuple(map(key, build_relations(h, pattern).relations)), (h, pattern))
    cases = [(g, zero_pattern(g)) for g in _pairless_graphs(6)] + list(built.values())
    assert len(cases) == 75 + 35
    truncated = 0
    for g, pattern in cases:
        trimmed = build_relations(g, pattern).relations
        untrimmed = reference_relations(g, pattern).relations
        assert len(trimmed) < len(untrimmed)
        for bound in (2, 3, 4):
            a = complete(trimmed, degree_bound=bound)
            b = complete(untrimmed, degree_bound=bound)
            assert _typed_polys(a) == _typed_polys(b) and a.complete == b.complete
            truncated += not a.complete
    assert truncated == 98


def _typed_polys(basis):
    return [sorted((w, c, type(c)) for w, c in f.items()) for f in basis.polys]


def test_broken_house_block_matches_triangle_system(broken_house):
    """The surviving 3x3 block presents exactly the triangle's algebra."""
    pres = build_relations(broken_house, zero_pattern(broken_house))
    triangle = complete_graph(3)
    tri_pres = build_relations(triangle, zero_pattern(triangle))

    # indices of block generators (rows/cols 2..4) inside each table
    block = {index(pres.positions, i, j) for i in (2, 3, 4) for j in (2, 3, 4)}
    to_triangle = {
        index(pres.positions, i, j): index(tri_pres.positions, i - 1, j - 1)
        for i in (2, 3, 4)
        for j in (2, 3, 4)
    }

    def map_poly(f):
        return Poly({bytes(to_triangle[x] for x in w): c for w, c in f.items()})

    block_rels = {
        key(map_poly(rel))
        for rel in pres.relations
        if all(all(letter in block for letter in w) for w in rel)
    }
    tri_rels = {key(rel) for rel in tri_pres.relations}
    assert block_rels == tri_rels


def test_single_vertex_graph_forces_unit():
    g = Graph(1, (0,))
    pres = build_relations(g, zero_pattern(g))
    assert len(pres.positions) == 1
    assert Poly({bytes((0,)): 1, EMPTY_WORD: -1}) in pres.relations
    assert commutators(pres) == []
    result = qsym_check(pres)
    assert result.status is CheckStatus.COMMUTATIVE and result.vacuous


def test_commutator_counts():
    g2 = path_graph(3)  # pattern leaves a 2x2 block plus the center
    pres = build_relations(g2, zero_pattern(g2))
    assert len(commutators(pres)) == len(pres.positions) * (len(pres.positions) - 1) // 2

    k4 = complete_graph(4)
    pres4 = build_relations(k4, zero_pattern(k4))
    assert len(commutators(pres4)) == 120

    pres6 = build_relations(rigid6(), zero_pattern(rigid6()))
    assert len(pres6.positions) == 6
    assert commutators(pres6) == []

    # with only diagonal letters the check is vacuous and runs no bound
    assert qsym_check(pres6) == CheckResult(CheckStatus.COMMUTATIVE, vacuous=True)
    assert not qsym_check(pres).vacuous


def test_relations_mode_keeps_all_generators(broken_house):
    # the "relations" mode, now a test oracle: forced zeros as relations
    pattern = zero_pattern(broken_house)
    pres = explicit_zero_relations(broken_house, pattern)
    assert len(pres.positions) == 25
    cl = pattern.classes
    forced = {index(pres.positions, i + 1, j + 1) for i in range(5) for j in range(5)
              if cl[i] != cl[j]}
    assert len(forced) == pattern.forced_count() == 14
    # each forced u_ij is a relation; uA = Au on the full table also gives
    # some one-letter relations, but only on forced positions
    assert all(Poly.gen(a) in pres.relations for a in forced)
    singles = {w[0] for rel in pres.relations if degree(rel) == 1 and len(rel) == 1
               for w in rel}
    assert singles == forced


# commutativity check


def test_path_is_commutative():
    g = four_vertex_path()
    result = qsym_check(build_relations(g, zero_pattern(g)))
    assert result.status is CheckStatus.COMMUTATIVE


def test_star_is_commutative():
    g = star4()
    result = qsym_check(build_relations(g, zero_pattern(g)))
    assert result.status is CheckStatus.COMMUTATIVE


def test_cycle4_is_not_shown_commutative():
    g = cycle_graph(4)
    result = qsym_check(build_relations(g, zero_pattern(g)))
    assert result.status is CheckStatus.NOT_SHOWN_COMMUTATIVE
    assert result.witness is not None
    assert result.degree_bound is not None


def test_truncated_when_cap_too_low():
    g = complete_graph(4)
    cfg = ClassifyConfig(gb_degree_cap=2)
    result = qsym_check(build_relations(g, zero_pattern(g)), cfg)
    assert result.status is CheckStatus.TRUNCATED


def test_truncated_above_the_cap_reports_no_bound():
    # a relation of degree 3 under a cap of 2: no bound runs, so the
    # result names none, and no basis
    u0, u1 = Poly.gen(0), Poly.gen(1)
    p = Presentation(((0, 0), (0, 1)), (u0 * u0 * u1, u0 + u1 - 1))
    assert qsym_check(p, ClassifyConfig(gb_degree_cap=2)) == CheckResult(CheckStatus.TRUNCATED)
    assert qsym_check(p, ClassifyConfig(gb_degree_cap=3)).degree_bound == 3


def test_broken_house_commutators_reduce_to_zero(broken_house):
    from qsymgraph.groebner import complete as gb_complete

    pres = build_relations(broken_house, zero_pattern(broken_house))
    basis = gb_complete(pres.relations, degree_bound=6)
    reducer = ListReducer(basis.polys)
    a = index(pres.positions, 2, 2)
    b = index(pres.positions, 3, 3)
    commutator = Poly({bytes((a, b)): 1, bytes((b, a)): -1})
    assert not reducer.normal_form(commutator)


# full classification


def test_house_is_quantum_symmetric(house):
    verdict = classify(house)
    assert verdict.kind is VerdictKind.QUANTUM_SYMMETRIC
    from qsymgraph.automorphisms import moved_points

    supports = {moved_points(p) for p in verdict.disjoint_pair}
    assert supports == {frozenset({1, 2}), frozenset({0, 3})}
    assert verdict.qsym_output is None  # algebra channel not needed


def test_broken_house_is_not_quantum_symmetric(broken_house):
    verdict = classify(broken_house)
    assert verdict.kind is VerdictKind.NOT_QUANTUM_SYMMETRIC
    assert verdict.aut_order == 6
    assert verdict.qsym_output == 1


def test_rigid6_short_circuits_to_trivial_algebra():
    verdict = classify(rigid6())
    assert verdict.kind is VerdictKind.NOT_QUANTUM_SYMMETRIC
    assert verdict.aut_order == 1
    assert verdict.algebra.vacuous
    assert verdict.algebra.degree_bound is None
    assert verdict.qsym_output == 1


def test_small_graphs_never_quantum_symmetric():
    for n in (1, 2, 3):
        for g in enumerate_connected(n):
            assert classify(g).kind is VerdictKind.NOT_QUANTUM_SYMMETRIC


def test_four_vertex_appendix_verdicts():
    for name, build, order, qsym in FOUR_VERTEX_CASES:
        verdict = classify(build())
        assert verdict.aut_order == order, name
        expected = VerdictKind.QUANTUM_SYMMETRIC if qsym else VerdictKind.NOT_QUANTUM_SYMMETRIC
        assert verdict.kind is expected, name
        if qsym:
            assert verdict.qsym_output is None, name  # the pair settles it first
        else:
            assert verdict.qsym_output == 1, name


def test_undecided_when_pairless_and_truncated(monkeypatch, tmp_path):
    # no real graph reaches Undecided (every connected graph with n <= 7
    # resolves at caps 2 and 3), so the branch runs on a stubbed check
    cfg = ClassifyConfig(gb_degree_cap=2)
    assert classify(star4(), cfg).kind is VerdictKind.NOT_QUANTUM_SYMMETRIC
    truncated = CheckResult(CheckStatus.TRUNCATED, degree_bound=2, basis_size=7)
    monkeypatch.setattr(classify_module, "qsym_check", lambda p, cfg: truncated)
    classify_module._memo.clear()  # else the star's stored result answers

    verdict, record = classify_with_record(star4(), cfg)
    assert verdict.kind is VerdictKind.UNDECIDED
    # the check ran without the star's centre, which is pinned, so its
    # rule u_cc -> 1 comes back in the basis
    assert _fields(verdict.algebra) == _fields(replace(truncated, basis_size=8))
    assert verdict.qsym_output is None and verdict.disjoint_pair is None
    assert verdict.pattern == zero_pattern(star4(), automorphism_group(star4()).orbits)
    assert (record.verdict, record.qsym_output, record.gb_degree_bound, record.gb_size) == (
        "Undecided", None, 2, 8)

    src = tmp_path / "star-k4.g6"
    src.write_text(to_graph6(star4()) + "\n" + to_graph6(complete_graph(4)) + "\n")
    report = run_batch(RunConfig(graph6_path=src, classify=cfg))
    assert report.rows == (OrderRow(24, 1, 1, 0), OrderRow(6, 1, 0, 1))
    assert render_table(report, "csv").splitlines() == [
        "order,total,qsym,undecided", "24,1,1,0", "6,1,0,1", "total,2,1,1"]


def test_fulton_mode_equivalence_through_five_vertices():
    # deleting the forced generators and pinning them by relations give
    # the same algebra check; classify runs it only without a disjoint pair
    for n in range(1, 6):
        for g in enumerate_connected(n):
            if find_disjoint_pair(automorphism_group(g)) is not None:
                continue
            pattern = zero_pattern(g)
            deleted = qsym_check(build_relations(g, pattern))
            explicit = qsym_check(explicit_zero_relations(g, pattern))
            assert deleted.status is explicit.status, to_graph6(g)


def test_cross_check_never_conflicts_up_to_five(five_vertex_run):
    # both criteria on every connected graph with n <= 5: a disjoint pair
    # never comes with an algebra shown commutative
    for g, verdict in five_vertex_run:
        if verdict.disjoint_pair is not None:
            assert verdict.algebra.status is not CheckStatus.COMMUTATIVE, to_graph6(g)
    # the quantum-symmetric 4-vertex cases, one graph per |Aut|, come with
    # an algebra shown noncommutative
    four = {v.aut_order: v for g, v in five_vertex_run
            if g.n == 4 and v.disjoint_pair is not None}
    expected = {order: name for name, _, order, qsym in FOUR_VERTEX_CASES if qsym}
    assert four.keys() == expected.keys()
    for order, name in expected.items():
        assert four[order].qsym_output == 0, name


def test_commutative_spot_check_against_span_oracle():
    from membership_oracle import SpanOracle

    rng = random.Random(79)
    for build in (star4, four_vertex_path, lambda: path_graph(3), lambda: complete_graph(3)):
        g = build()
        pres = build_relations(g, zero_pattern(g))
        result = qsym_check(pres)
        assert result.status is CheckStatus.COMMUTATIVE
        oracle = SpanOracle(pres.relations, len(pres.positions), result.degree_bound)
        coms = commutators(pres)
        for c in rng.sample(coms, min(3, len(coms))):
            assert oracle.contains(c)


# The package exports a function named classify, so fetch the module.
classify_module = importlib.import_module("qsymgraph.classify")


def _commutator(a, b):
    return Poly({bytes((a, b)): 1, bytes((b, a)): -1})


def _fields(r):
    return r.status, r.degree_bound, r.basis_size, r.vacuous, r.witness


def _counting_complete(monkeypatch):
    calls = []
    original = classify_module.complete

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(classify_module, "complete", counting)
    return calls


def _pairless_graphs(max_n):
    """Every connected graph on <= max_n vertices whose algebra check
    classify runs, i.e. with no disjoint pair."""
    return [g for n in range(1, max_n + 1) for g in enumerate_connected(n)
            if find_disjoint_pair(automorphism_group(g)) is None]


def _checked_presentations(max_n):
    """The presentation of every graph of ``_pairless_graphs(max_n)``."""
    return [build_relations(g, zero_pattern(g)) for g in _pairless_graphs(max_n)]


def _memo_key(g, pattern):
    """The memo key of ``classify`` without the config."""
    return pattern.classes, classify_module._blocks_up_to_complement(g.nbr, pattern.classes)


def _complement(g):
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full & ~m & ~(1 << i) for i, m in enumerate(g.nbr)))


def _flip(g, pairs):
    """``g`` with the adjacency of each vertex pair in ``pairs`` flipped."""
    nbr = list(g.nbr)
    for i, j in pairs:
        nbr[i] ^= 1 << j
        nbr[j] ^= 1 << i
    return Graph(g.n, tuple(nbr))


def test_memo_hit_equals_fresh_check_on_small_graphs(monkeypatch):
    calls = _counting_complete(monkeypatch)
    graphs = _pairless_graphs(6)
    assert len(graphs) == 75
    memoised = [classify(g).algebra for g in graphs]
    # 37 keys in the graphs' own labellings: 6 of one class, 1 of
    # singletons only (the 8 rigid 6-vertex graphs share it) and 30 of
    # several classes.  The 1-vertex key and the singletons' key have
    # every vertex pinned, so they are vacuous; 22 of the 30 have pinned
    # vertices and not only those, and strip to 5 keys, 4 of which are
    # own keys too.  The 9 keys of several classes without pinned
    # vertices, 8 own and 1 stripped, lead to 4 keys in the canonical
    # labelling, 3 of which are own or stripped keys, so the memo holds
    # 37 + 1 + 1 = 39 entries.  The engine completes the 5 keys of one
    # class without pinned vertices in their own labellings and the 4
    # canonical keys, each once
    assert len({_memo_key(g, zero_pattern(g)) for g in graphs}) == 37
    assert len(classify_module._memo) == 39
    assert len(calls) == 9
    for g, got in zip(graphs, memoised):
        pattern = zero_pattern(g)
        p = build_relations(g, pattern)
        assert p.positions == tuple(pattern.alive())
        assert _fields(qsym_check(p)) == _fields(got)


def test_memo_separates_configs(monkeypatch):
    g = star4()
    default = ClassifyConfig()
    capped = ClassifyConfig(gb_degree_cap=2)
    limited = ClassifyConfig(limits=EngineLimits(max_basis=19999))
    assert classify(g, default).algebra.degree_bound == 4
    # a shared entry would hand the default config's bound to the capped one
    assert classify(g, capped).algebra.degree_bound == 2
    calls = _counting_complete(monkeypatch)
    assert _fields(classify(g, limited).algebra) == _fields(classify(g, default).algebra)
    # each config stores the star's own key and its canonical one, which
    # puts the centre first
    assert len(classify_module._memo) == 3 * 2
    assert len(calls) == 1  # limited ran; default was a hit


def test_memo_shares_an_entry_between_a_graph_and_its_complement(monkeypatch):
    # DBg is connected, pairless and not self-complementary; so is its
    # complement, D{S, with the same walk classes
    g = parse_graph6("DBg")
    h = _complement(g)
    assert to_graph6(h) == "D{S" and zero_pattern(h) == zero_pattern(g)
    assert _memo_key(h, zero_pattern(h)) == _memo_key(g, zero_pattern(g))
    calls = _counting_complete(monkeypatch)
    assert _fields(classify(h).algebra) == _fields(classify(g).algebra)
    # h stores its own key and the canonical one; g hits the first
    assert len(classify_module._memo) == 2 and len(calls) == 1
    assert build_relations(h, zero_pattern(h)) == build_relations(g, zero_pattern(g))


def test_memo_shares_an_entry_across_a_complemented_block(monkeypatch):
    # DBk has the walk classes {0, 1}, {2}, {3, 4}; complementing the block
    # between {0, 1} and {2} adds the edges 0-2 and 1-2 and gives DZk, which
    # is not isomorphic to DBk and has the same classes
    g = parse_graph6("DBk")
    h = _flip(g, [(0, 2), (1, 2)])
    assert to_graph6(h) == "DZk" and canonical_form(h) != canonical_form(g)
    assert zero_pattern(h) == zero_pattern(g)
    assert _memo_key(h, zero_pattern(h)) == _memo_key(g, zero_pattern(g))
    calls = _counting_complete(monkeypatch)
    assert _fields(classify(h).algebra) == _fields(classify(g).algebra)
    # h stores its own key and the canonical one; g hits the first
    assert len(classify_module._memo) == 2 and len(calls) == 1
    assert build_relations(h, zero_pattern(h)) == build_relations(g, zero_pattern(g))


def test_memo_separates_a_flipped_entry(monkeypatch):
    # adding the edge 0-3 flips one entry of DBk's block between {0, 1} and
    # {3, 4}; the walk classes change too, but under DBk's own classes
    # the blocks alone already tell the two graphs apart
    g = parse_graph6("DBk")
    h = _flip(g, [(0, 3)])
    pattern = zero_pattern(g)
    assert find_disjoint_pair(automorphism_group(h)) is None
    assert _memo_key(h, pattern) != _memo_key(g, pattern)
    assert build_relations(h, pattern) != build_relations(g, pattern)
    calls = _counting_complete(monkeypatch)
    classify(g)
    classify(h)
    # each stores its own key and a canonical one, and each is completed
    assert len(classify_module._memo) == 4 and len(calls) == 2


def test_memo_never_stores_resource_cap_errors(monkeypatch):
    calls = _counting_complete(monkeypatch)
    tight = ClassifyConfig(limits=EngineLimits(max_basis=1))
    for attempt in (1, 2):
        with pytest.raises(ResourceCapError):
            classify(star4(), tight)
        assert len(calls) == attempt
    assert classify_module._memo == {}


def test_memo_holds_at_most_its_bound(monkeypatch):
    monkeypatch.setattr(classify_module, "QSYM_MEMO_MAX", 3)
    graphs = _pairless_graphs(5)
    assert len({_memo_key(g, zero_pattern(g)) for g in graphs}) > 3
    results = []
    stored = []  # the keys each call stored
    for g in graphs:
        before = set(classify_module._memo)
        results.append(classify(g).algebra)
        assert len(classify_module._memo) <= 3
        stored.append(set(classify_module._memo) - before)
    # a miss on several classes stores two entries, and the bound holds
    # across both
    assert max(map(len, stored)) == 2
    # entries evicted to keep the bound give the same result when checked again
    for g, first in zip(graphs, results):
        assert _fields(classify(g).algebra) == _fields(first)
        assert len(classify_module._memo) <= 3


def test_memo_maps_a_witness_back_to_the_graphs_letters(monkeypatch):
    # K2,3 has a disjoint pair; without it, classify checks the algebra,
    # which is not commutative, in the canonical labelling.  Each of its 10
    # labellings must get a witness in its own letters, the first from a
    # fresh check and the other 9 from the stored canonical entry
    monkeypatch.setattr(classify_module, "find_disjoint_pair", lambda group: None)
    calls = _counting_complete(monkeypatch)
    k23 = _complete_bipartite(2, 3)
    labellings = {permute(k23, perm) for perm in itertools.permutations(range(5))}
    assert len(labellings) == 10
    for g in sorted(labellings, key=lambda g: g.nbr):
        result = classify(g).algebra
        assert result.status is CheckStatus.NOT_SHOWN_COMMUTATIVE
        (a, b), = {tuple(sorted(w)) for w in result.witness}
        assert a != b and result.witness in (_commutator(a, b), -_commutator(a, b))
        p = build_relations(g, zero_pattern(g))
        assert b < len(p.positions)
        basis = complete(p.relations, degree_bound=result.degree_bound)
        assert basis.normal_form(result.witness), to_graph6(g)
    assert len(calls) == 1  # the test's own completions are not counted


def test_memo_results_do_not_depend_on_batch_order():
    graphs = [g for g in atlas_graphs() if find_disjoint_pair(automorphism_group(g)) is None]
    assert len(graphs) == 582
    forward = {g: _fields(classify(g).algebra) for g in graphs}
    classify_module._memo.clear()
    shuffled = graphs[:]
    random.Random(89).shuffle(shuffled)
    assert {g: _fields(classify(g).algebra) for g in shuffled} == forward


@pytest.mark.parametrize("labelling, relabelled", [("canonical", 422), ("atlas", 422)])
def test_relabelled_key_gives_the_relabelled_graphs_relations(monkeypatch, labelling,
                                                              relabelled):
    # _check_relabelled builds relations from the memo key relabelled by
    # its canonical order; the reference builds the relabelled Graph and
    # ZeroPattern and reads their relations.  The check is stubbed, to
    # catch the presentation it is handed
    built = []

    def catch(p, cfg):
        built.append(p)
        return CheckResult(CheckStatus.COMMUTATIVE)

    monkeypatch.setattr(classify_module, "qsym_check", catch)
    graphs = (_pairless_graphs(7) if labelling == "canonical" else
              [g for g in atlas_graphs() if find_disjoint_pair(automorphism_group(g)) is None])
    count = 0
    for g in graphs:
        pattern = zero_pattern(g)
        if not 1 < len(set(pattern.classes)) < g.n:  # classify keeps the labelling
            continue
        rows = classify_module._blocks_up_to_complement(g.nbr, pattern.classes)
        classify_module._memo.clear()
        classify_module._check_relabelled(pattern, rows, ClassifyConfig())
        ref = relabelled_relations(g, pattern, classify_module._canonical_order(
            rows, pattern.classes))
        assert built[-1].positions == ref.positions, to_graph6(g)
        assert [repr(r) for r in built[-1].relations] == [
            repr(r) for r in ref.relations], to_graph6(g)
        count += 1
    assert len(built) == count == relabelled


def test_vacuous_check_reads_the_labels():
    # the same relations over the diagonal and over the anti-diagonal of a
    # 2 x 2 table: only the positions tell the vacuous check from the other
    u0, u1 = Poly.gen(0), Poly.gen(1)
    relations = (u0 * u0 - u0, u1 * u1 - u1, u0 - 1, u1 - 1)
    diagonal = Presentation(((0, 0), (1, 1)), relations)
    anti = Presentation(((0, 1), (1, 0)), relations)
    assert qsym_check(diagonal).vacuous
    assert not qsym_check(anti).vacuous


# keys with pinned vertices against the presentations they stand for


def _pinned(g, pattern):
    """The vertices alone in their class whose key row is 0."""
    rows = classify_module._blocks_up_to_complement(g.nbr, pattern.classes)
    sizes = collections.Counter(pattern.classes)
    return [v for v, c in enumerate(pattern.classes) if sizes[c] == 1 and not rows[v]]


def _assert_stripping_exact(g, pattern):
    """The presentation of a key with pinned vertices is that of ``g`` and
    ``pattern`` without them, letters renumbered, with u_vv - 1 in the
    row-sum slot of each pinned v.  Returns that graph and pattern (None
    and None when every vertex is pinned), the letter map and the number
    of pinned vertices."""
    pinned = _pinned(g, pattern)
    assert pinned, (to_graph6(g), pattern.classes)
    full = build_relations(g, pattern)
    index = {ij: a for a, ij in enumerate(full.positions)}
    kept = [v for v in range(g.n) if v not in pinned]
    h = stripped = None
    to_full, renamed = [], []
    if kept:
        least: dict[int, int] = {}
        h = Graph(len(kept), tuple(sum(1 << p for p, u in enumerate(kept) if g.nbr[v] >> u & 1)
                                   for v in kept))
        stripped = ZeroPattern(tuple(least.setdefault(pattern.classes[v], p)
                                     for p, v in enumerate(kept)), pattern.max_power_used)
        to_full = [index[kept[i], kept[j]] for i, j in stripped.alive()]
        renamed = [{bytes(to_full[x] for x in w): c for w, c in r.items()}
                   for r in build_relations(h, stripped).relations]
    # the row sums are the first relations with a constant, one per row
    first_sum = next(k for k, r in enumerate(full.relations) if EMPTY_WORD in r)
    slots = {first_sum + v: {bytes((index[v, v],)): 1, EMPTY_WORD: -1} for v in pinned}
    assert [r for k, r in enumerate(full.relations) if k not in slots] == renamed
    for k, r in slots.items():
        assert full.relations[k] == r
    return h, stripped, to_full, len(pinned)


def _pinned_cases():
    """Every pairless atlas graph and connected graph with n <= 7 that has
    a pinned vertex, with its walk classes."""
    graphs = _pairless_graphs(7) + [
        g for g in atlas_graphs() if find_disjoint_pair(automorphism_group(g)) is None]
    cases = [(g, zero_pattern(g)) for g in graphs]
    return [(g, pattern) for g, pattern in cases if _pinned(g, pattern)]


def test_pinned_vertices_add_only_their_row_sums_on_pairless_graphs():
    # and classify, which completes the key without its pinned vertices,
    # gives the full presentation's result, field for field
    cases = _pinned_cases()
    assert len(cases) == 2 * 566
    fresh = {}
    for g, pattern in cases:
        _assert_stripping_exact(g, pattern)
        p = build_relations(g, pattern)
        presentation = (p.positions, tuple(map(key, p.relations)))
        if presentation not in fresh:
            fresh[presentation] = _fields(qsym_check(p))
        assert _fields(classify(g).algebra) == fresh[presentation], to_graph6(g)
    assert len(fresh) == 180


def _with_pinned_vertices(rng, n):
    """A random graph on n vertices and a random partition in which some
    singleton classes are adjacent to all or none of every other class,
    and so pinned; the rest has at most 5 vertices in at most 2 classes."""
    core = rng.randint(2, min(n - 1, 5))
    pinned = set(rng.sample(range(n), n - core))
    rest = [v for v in range(n) if v not in pinned]
    classes = rng.randint(1, 2)
    labels = {v: rng.randrange(classes) for v in rest}
    labels.update((v, ("pinned", v)) for v in pinned)
    first: dict = {}
    pattern = ZeroPattern(tuple(first.setdefault(labels[v], v) for v in range(n)), 1)
    edges = {(i, j) for i in rest for j in rest if i < j and rng.random() < 0.5}
    for v in pinned:
        for c in set(pattern.classes):
            if c != v and rng.random() < 0.5:
                edges |= {(min(u, v), max(u, v)) for u in range(n) if pattern.classes[u] == c}
    return Graph.from_edges(n, sorted(edges), one_based=False), pattern


def test_stripping_is_exact_on_random_graphs_with_pinned_vertices():
    # the presentation identity, and the check of the full presentation
    # is the stripped one's with one more basis rule per pinned vertex and
    # the witness renamed
    rng = random.Random(97)
    witnesses = 0
    for _ in range(200):
        g, pattern = _with_pinned_vertices(rng, rng.randint(3, 12))
        h, stripped, to_full, k = _assert_stripping_exact(g, pattern)
        full = qsym_check(build_relations(g, pattern))
        if h is None:  # every vertex pinned
            assert full.vacuous
            continue
        part = qsym_check(build_relations(h, stripped))
        assert (full.status, full.degree_bound, full.vacuous) == (
            part.status, part.degree_bound, part.vacuous)
        assert full.basis_size == (part.basis_size and part.basis_size + k)
        assert full.witness == (part.witness and {
            bytes(to_full[x] for x in w): c for w, c in part.witness.items()})
        witnesses += full.witness is not None
    assert witnesses > 0


def test_memo_maps_a_witness_back_through_a_stripped_key(monkeypatch):
    # K1,2,3 is K2,3 plus a hub, which is pinned; without its disjoint
    # pair, classify checks K2,3's algebra, not commutative, and must give
    # in each labelling the witness the full presentation's check gives
    monkeypatch.setattr(classify_module, "find_disjoint_pair", lambda group: None)
    k123 = Graph.from_edges(6, [(0, v) for v in range(1, 6)] + [
        (i, j) for i in (1, 2) for j in (3, 4, 5)], one_based=False)
    labellings = {permute(k123, perm) for perm in itertools.permutations(range(6))}
    assert len(labellings) == 60
    hubs = set()
    for g in sorted(labellings, key=lambda g: g.nbr):
        pattern = zero_pattern(g)
        hubs.update(_pinned(g, pattern))
        result = classify(g).algebra
        fresh = qsym_check(build_relations(g, pattern))
        assert result.status is CheckStatus.NOT_SHOWN_COMMUTATIVE
        assert _fields(result) == _fields(fresh), to_graph6(g)
    assert hubs == set(range(6))


# the memo key against the presentations it stands for


def _assert_keys_exact(cases):
    """Equal memo keys hold exactly when the presentations are equal: the
    generator positions and every relation's terms, in order.  Returns the
    number of keys."""
    by_key = {}
    for g, pattern in cases:
        p = build_relations(g, pattern)
        presentation = (p.positions, tuple(tuple(r.items()) for r in p.relations))
        assert by_key.setdefault(_memo_key(g, pattern), presentation) == presentation, (
            to_graph6(g), pattern.classes)
    assert len(set(by_key.values())) == len(by_key)
    return len(by_key)


@pytest.mark.parametrize("labelling", ["canonical", "atlas"])
def test_memo_keys_exact_on_pairless_graphs(labelling):
    if labelling == "canonical":
        graphs = _pairless_graphs(7)
        seven = [g for g in graphs if g.n == 7]
        assert len(seven) == 507
        assert _assert_keys_exact((g, zero_pattern(g)) for g in seven) == 59
        expected = 96
    else:
        graphs = [g for g in atlas_graphs() if find_disjoint_pair(automorphism_group(g)) is None]
        expected = 149
    assert len(graphs) == 582
    assert _assert_keys_exact((g, zero_pattern(g)) for g in graphs) == expected


def test_memo_keys_exact_on_random_graphs_and_patterns():
    # random graphs up to n = 12 under their walk classes and under random
    # partitions, each beside its complement, a copy with random blocks
    # complemented and a copy with one entry flipped
    rng = random.Random(83)
    cases = []
    for _ in range(150):
        n = rng.randint(2, 12)
        p = rng.choice((0.2, 0.5, 0.8))
        g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                 if rng.random() < p], one_based=False)
        for pattern in (zero_pattern(g), _random_partition(rng, n)):
            cl = pattern.classes
            blocks = {(a, b) for a in set(cl) for b in set(cl) if a <= b and rng.random() < 0.5}
            block_flip = _flip(g, [(i, j) for i in range(n) for j in range(i + 1, n)
                                   if (min(cl[i], cl[j]), max(cl[i], cl[j])) in blocks])
            i, j = rng.sample(range(n), 2)
            cases += [(g, pattern), (_complement(g), pattern), (block_flip, pattern),
                      (_flip(g, [(i, j)]), pattern)]
    keys = _assert_keys_exact(cases)
    assert len({(g.nbr, pattern) for g, pattern in cases}) > keys > len(cases) // 4


@pytest.mark.skipif(not NIGHTLY, reason="extended check, set RUN_NIGHTLY=1")
def test_memo_keys_exact_on_eight_vertices():
    graphs = [g for g in (Graph.from_mask(8, m) for m in _connected_masks(8))
              if find_disjoint_pair(automorphism_group(g)) is None]
    assert len(graphs) == 7972
    assert _assert_keys_exact((g, zero_pattern(g)) for g in graphs) == 312


# per-graph results against digests taken before the memo looked keys up
# in a canonical labelling


def _classified(n, shuffled):
    """SHA-256 over (mask, verdict, qsym_output, bound, basis size) of every
    connected graph on n vertices, classified in the canonical labelling
    or, when ``shuffled``, in a seeded relabelling; and the verdict counts."""
    rng = random.Random(n)
    digest = hashlib.sha256()
    kinds = collections.Counter()
    for m in _connected_masks(n):
        g = Graph.from_mask(n, m)
        if shuffled:
            perm = list(range(n))
            rng.shuffle(perm)
            g = permute(g, perm)
        v = classify(g)
        a = v.algebra
        kinds[v.kind] += 1
        digest.update(repr((m, v.kind.value, v.qsym_output, a.degree_bound if a else None,
                            a.basis_size if a else None)).encode() + b";")
    return digest.hexdigest(), kinds


PINNED = {
    7: "e6005249c75b9627e87e908be4f0a785feac7d5e877db82be182c580737dd202",
    8: "25e7fd9360494ea4892c36a6d63d18938475665c95dac544d2222e7cb3d638a5",
}


@pytest.mark.parametrize("n, shuffled", [(7, False), (7, True), (8, False)])
def test_classification_pinned(n, shuffled):
    assert _classified(n, shuffled)[0] == PINNED[n]


@pytest.mark.skipif(not NIGHTLY, reason="extended check, set RUN_NIGHTLY=1")
def test_classification_pinned_on_eight_vertices_shuffled():
    assert _classified(8, True)[0] == PINNED[8]


def test_classification_pinned_on_the_atlas(monkeypatch):
    # the benchmark's atlas-g6 input, in atlas labelling and atlas order:
    # its labels are not canonical, so presentations met again under other
    # labels are looked up through _check_relabelled, and keys with pinned
    # vertices through their stripped keys
    relabelled = classify_module._check_relabelled
    calls = []

    def counting(*args):
        calls.append(args)
        return relabelled(*args)

    monkeypatch.setattr(classify_module, "_check_relabelled", counting)
    completions = _counting_complete(monkeypatch)
    digest = hashlib.sha256()
    for g in atlas_graphs():
        rec = classify_with_record(g, ClassifyConfig())[1]
        digest.update(repr((rec.graph6, rec.aut_order, rec.disjoint_pair, rec.verdict,
                            rec.qsym_output, rec.gb_degree_bound, rec.gb_size)).encode() + b";")
    # each of the 149 keys misses once, and 131 of them have pinned
    # vertices and strip to 42 keys.  Of the 40 keys of several classes
    # without pinned vertices, own or stripped, 3 were stored by an
    # earlier call as its canonical key, so _check_relabelled runs 37
    # times, and a fresh memo completes 12 presentations
    assert len(calls) == 37 and len(completions) == 12
    assert digest.hexdigest() == (
        "ff90dcae817cfbc749f94fe2495815b90a6285d468602787f6092fb14d9c46d7")


@pytest.mark.skipif(not NIGHTLY, reason="extended check, set RUN_NIGHTLY=1")
def test_classification_pinned_on_nine_vertices():
    digest, kinds = _classified(9, False)
    assert digest == "6f218db2b5a322a0dd4cadeb5a56ffc75c8763bcaab5d98d3a859d81d00457a5"
    assert kinds == {VerdictKind.QUANTUM_SYMMETRIC: 41354,
                     VerdictKind.NOT_QUANTUM_SYMMETRIC: 219726}
    # the memo never reached its bound, so nothing was evicted
    assert len(classify_module._memo) < classify_module.QSYM_MEMO_MAX


# the free-letter check against the all-pairs oracle


@pytest.mark.parametrize("labelling, distinct", [("canonical", 96), ("atlas", 149)])
def test_free_letter_check_matches_all_pairs_on_pairless_graphs(labelling, distinct):
    presentations = pairless_presentations(labelling)
    assert len(presentations) == distinct
    for p in presentations:
        assert _fields(qsym_check(p)) == _fields(all_pairs_check(p))


def _complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(i, a + j) for i in range(1, a + 1)
                                    for j in range(1, b + 1)])


WITNESS_GRAPHS = {
    "C4": cycle_graph(4),
    "K4": complete_graph(4),
    "K2,3": _complete_bipartite(2, 3),
    "K3,3": _complete_bipartite(3, 3),
}


@pytest.mark.parametrize("name", WITNESS_GRAPHS)
def test_free_letter_check_matches_all_pairs_where_a_witness_exists(name):
    # graphs with a disjoint pair, whose algebra classify never checks
    g = WITNESS_GRAPHS[name]
    p = build_relations(g, zero_pattern(g))
    result = qsym_check(p)
    assert result.status is CheckStatus.NOT_SHOWN_COMMUTATIVE and result.witness is not None
    assert _fields(result) == _fields(all_pairs_check(p))


def test_free_letter_check_matches_all_pairs_when_truncated():
    g = complete_graph(4)
    p = build_relations(g, zero_pattern(g))
    cfg = ClassifyConfig(gb_degree_cap=2)
    result = qsym_check(p, cfg)
    assert result.status is CheckStatus.TRUNCATED
    assert _fields(result) == _fields(all_pairs_check(p, cfg))


def _one_pair_apart(m, dead, a, b):
    """Idempotents u_0..u_{m-1} whose products vanish, except u_a*u_b and
    u_b*u_a, and with u_dead = u_0 in place of its own relations.  The
    basis is complete, and u_a, u_b is the only pair that does not commute,
    up to u_dead standing in for u_0."""
    u = [Poly.gen(i) for i in range(m)]
    live = [i for i in range(m) if i != dead]
    relations = [u[i] * u[i] - u[i] for i in live]
    relations += [u[i] * u[j] for i in live for j in live if i != j and {i, j} != {a, b}]
    relations.append(u[dead] - u[0])
    return Presentation(tuple((0, k) for k in range(m)), tuple(relations))


def test_every_free_pair_is_reduced():
    # a free pair the check skipped would pass as commutative here
    free = [0, 1, 3, 4]
    for a, b in itertools.combinations(free, 2):
        p = _one_pair_apart(5, 2, a, b)
        result = qsym_check(p)
        assert result.status is CheckStatus.NOT_SHOWN_COMMUTATIVE, (a, b)
        assert result.witness == Poly({bytes((a, b)): 1, bytes((b, a)): -1})
        assert _fields(result) == _fields(all_pairs_check(p))


def test_only_free_commutators_are_reduced(monkeypatch):
    # the 4-vertex path keeps 8 letters, of which the basis leaves one free;
    # the basis complete returns reduces through GBasis.normal_form
    calls = []
    original = GBasis.normal_form

    def counting(self, f):
        calls.append(f)
        return original(self, f)

    monkeypatch.setattr(GBasis, "normal_form", counting)
    g = four_vertex_path()
    p = build_relations(g, zero_pattern(g))
    result = qsym_check(p)
    assert result.status is CheckStatus.COMMUTATIVE and len(commutators(p)) == 28
    assert calls == []


# the linear relations of uA = Au, replayed from the other relations


def _sums_held(p, side):
    """{line: (S, letters)} for every row (side 0) or column (side 1)
    whose sum relation S = sum of its letters - 1 is a relation of ``p``."""
    held = {frozenset(r.items()) for r in p.relations}
    out = {}
    for line in {pos[side] + 1 for pos in p.positions}:  # 1-based
        letters = [a for a, pos in enumerate(p.positions) if pos[side] + 1 == line]
        total = sum((Poly.gen(a) for a in letters), Poly.constant(-1))
        if frozenset(total.items()) in held:
            out[line] = (total, letters)
    return out


def _entry_positions(g, pattern, p):
    """{terms of E and of -E: the 1-based (i, j) of every nonzero entry E
    of uA - Au equal to it}, A the oracle's key adjacency."""
    out = collections.defaultdict(list)
    matrix = commutation_matrix(p.positions, key_adjacency(g, pattern))
    for i, row in enumerate(matrix, 1):
        for j, e in enumerate(row, 1):
            if e:
                out[frozenset(e.items())].append((i, j))
                out[frozenset((-e).items())].append((i, j))
    return out


def _replays(p, adj, f, row_sums, col_sums, at=None):
    """Whether, for a row sum S_i in ``row_sums`` and a column sum S'_j in
    ``col_sums`` (with (i, j) in ``at``, if given), and c = 0 or -1,

        +-f = sum_k A_ik S_i * u_kj - sum_l A_lj u_il * S'_j + c (S_i - S'_j)

    up to monomial relations of p, A being ``adj``, the graph's own
    adjacency; p is the untrimmed ``reference_relations``, as
    ``build_relations`` leaves out monomials that it derives.  The first
    two sums are entry (i, j) of uA - Au up to products u_il*u_kj with
    A_lj != A_ik, which p kills; complementing the block of (i, j) turns
    that entry into S_i - S'_j minus it."""
    monomials = {w for r in p.relations if len(r) == 1 for w in r}
    positions = p.positions
    for i, j in at or itertools.product(row_sums, col_sums):
        if i not in row_sums or j not in col_sums:
            continue
        s_row, row = row_sums[i]
        s_col, col = col_sums[j]
        cert = Poly()
        for b in col:
            cert = cert + adj[i - 1][positions[b][0]] * (s_row * Poly.gen(b))
        for a in row:
            cert = cert - adj[positions[a][1]][j - 1] * (Poly.gen(a) * s_col)
        for c in (0, -1):
            rest = cert + c * (s_row - s_col)
            if any(all(w in monomials for w in d) for d in (rest - f, rest + f)):
                return True
    return False


def _assert_block_replays(g, pattern, p):
    """Each linear relation f of uA = Au in ``p`` is +- an entry of uA - Au
    for the oracle's key adjacency, and replays from the row sum and the
    column sum of that entry and monomial relations of the untrimmed
    reference, whose linear relations are those of ``p``.  Returns
    [(f, the 1-based (i, j) of every entry f is +- of)], in block order."""
    block = _linear_block_of(p)
    ref = reference_relations(g, pattern)
    assert _linear_block_of(ref) == block
    keys = {frozenset(f.items()) for f in block}
    keys |= {frozenset((w, -c) for w, c in f.items()) for f in block}
    assert len(keys) == 2 * len(block)  # no repeats up to sign
    positions = _entry_positions(g, pattern, p)
    adj = adjacency(g)
    row_sums, col_sums = _sums_held(p, 0), _sums_held(p, 1)
    out = []
    for f in block:
        assert all(c in (1, -1) for c in f.values())
        at = positions[frozenset(f.items())]
        assert at, f
        assert _replays(ref, adj, f, row_sums, col_sums, at), f
        out.append((f, at))
    return out


def test_linear_consequences_replay_on_pairless_graphs():
    graphs = _pairless_graphs(6)
    assert len(graphs) == 75
    block = [_assert_block_replays(g, zero_pattern(g), build_relations(g, zero_pattern(g)))
             for g in graphs]
    assert sum(map(len, block)) == 297


def test_linear_consequences_replay_on_random_graphs_and_patterns():
    # walk-count patterns of random graphs up to n = 10, and random
    # partitions, among them the one-class pattern with every generator alive
    rng = random.Random(61)
    total = one_class = 0
    for _ in range(60):
        n = rng.randint(1, 10)
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < rng.choice((0.2, 0.5, 0.8))]
        g = Graph.from_edges(n, edges)
        partition = _random_partition(rng, n)
        one_class += partition.forced_count() == 0
        for pattern in (zero_pattern(g), partition):
            total += len(_assert_block_replays(g, pattern, build_relations(g, pattern)))
    assert total > 0 and one_class > 0


def test_linear_consequences_need_both_sums():
    g = cycle_graph(5)
    pattern = zero_pattern(g)
    p = build_relations(g, pattern)
    ref = reference_relations(g, pattern)
    adj = adjacency(g)
    row_sums, col_sums = _sums_held(p, 0), _sums_held(p, 1)
    assert sorted(row_sums) == sorted(col_sums) == [1, 2, 3, 4, 5]
    block = _assert_block_replays(g, pattern, p)
    # C5's one block is complemented, so each of its 25 relations is an
    # entry of uA - Au for the graph only up to a row sum and a column sum;
    # without the sum of row 1, exactly the 5 entries of row 1 stop
    # replaying, whichever pair of the sums left is tried
    cut = {i: s for i, s in row_sums.items() if i != 1}
    row_1 = [f for f, at in block if {i for i, _ in at} == {1}]
    assert len(block) == 25 and len(row_1) == 5
    for f, _ in block:
        assert _replays(ref, adj, f, cut, col_sums) is (f not in row_1), f
    # and without the column sums, none replays
    assert not any(_replays(ref, adj, f, row_sums, {}) for f, _ in block)


def _rank(polys):
    """The rank of ``polys`` as vectors over Q, by exact elimination."""
    pivots = {}  # word -> a reduced row with coefficient 1 there
    for f in polys:
        v = {w: Fraction(c) for w, c in f.items()}
        while v:
            w = max(v)
            row = pivots.get(w)
            if row is None:
                pivots[w] = {x: c / v[w] for x, c in v.items()}
                break
            c = v[w]
            for x, y in row.items():
                z = v.get(x, 0) - c * y
                if z:
                    v[x] = z
                else:
                    del v[x]
    return len(pivots)


def _spans(g, pattern):
    """The ranks of the row and column sums with the linear block of
    ``build_relations``, with the union-find ``linear_consequences``, and
    with both."""
    p = build_relations(g, pattern)
    sums = [f for f in p.relations if EMPTY_WORD in f and degree(f) == 1]
    block = _linear_block_of(p)
    found = linear_consequences(magic_unitary_relations(g, pattern))
    return _rank(sums + block), _rank(sums + found), _rank(sums + block + found)


def test_linear_block_spans_the_union_find_consequences():
    # with the sums, the entries of uA - Au span exactly the linear
    # relations the union-find reads off the products under walk-count
    # patterns, the only ones classify builds, so completion ends its
    # degree <= 1 phase with the same rules either way.  Under other
    # partitions the union-find can read off more, such as u_ij = 0 for i
    # and j of one class with different degrees; the entries stay inside
    # its span
    graphs = [g for g in atlas_graphs() if find_disjoint_pair(automorphism_group(g)) is None]
    assert len(graphs) == 582
    for g in graphs:
        block, found, both = _spans(g, zero_pattern(g))
        assert block == found == both, to_graph6(g)
    rng = random.Random(97)
    less = 0
    for _ in range(150):
        n = rng.randint(2, 10)
        p = rng.choice((0.2, 0.5, 0.8))
        g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                 if rng.random() < p], one_based=False)
        block, found, both = _spans(g, zero_pattern(g))
        assert block == found == both, to_graph6(g)
        block, found, both = _spans(g, _random_partition(rng, n))
        assert block <= found == both, to_graph6(g)
        less += block < found
    assert less > 0


def test_completion_input_keeps_the_pinned_bases(monkeypatch):
    # the 75 presentations and the digest of test_bases_pinned_on_small_graphs,
    # which before the relations of uA = Au joined the presentation pinned
    # the bases completed without them
    digest = hashlib.sha256()
    presentations = _checked_presentations(6)
    for p in presentations:
        basis = complete(p.relations, degree_bound=4)
        for f in basis.polys:
            digest.update(repr(sorted(f.items())).encode() + b";")
        digest.update(b"|" + str(basis.complete).encode())
    assert digest.hexdigest() == (
        "602badf11c18c25ad78f1eb474d84c88a885c5f14f0beb03b25174a431c6e946")

    # the check completes the relations as they stand, with the linear
    # block right after the last sum
    calls = _counting_complete(monkeypatch)
    g = cycle_graph(4)
    p = build_relations(g, zero_pattern(g))
    qsym_check(p)
    assert calls and all(args[0] == p.relations for args in calls)
    sums = [s for side in (0, 1) for s, _ in _sums_held(p, side).values()]
    at = 1 + max(k for k, r in enumerate(p.relations) if r in sums)
    block = _linear_block_of(p)
    assert block and p.relations[at:at + len(block)] == tuple(block)


@pytest.mark.skipif(not NIGHTLY, reason="extended check, set RUN_NIGHTLY=1")
def test_linear_consequences_keep_the_seven_vertex_bases():
    def sorted_basis(relations):
        basis = complete(relations, degree_bound=4)
        return basis.complete, sorted(sorted(f.items()) for f in basis.polys)

    seen = set()
    for g in enumerate_connected(7):
        if find_disjoint_pair(automorphism_group(g)) is not None:
            continue
        p = build_relations(g, zero_pattern(g))
        held = (p.positions, tuple(map(key, p.relations)))
        if held in seen or not commutators(p):
            continue
        seen.add(held)
        # the block with nothing left out: the products left out follow
        # from the block, so the trimmed relations need it
        ref = reference_relations(g, zero_pattern(g))
        block = _linear_block_of(ref)
        before = sorted_basis([r for r in ref.relations if r not in block])
        assert before[0]
        assert sorted_basis(ref.relations) == sorted_basis(p.relations) == before
    assert len(seen) == 58
