"""Completion, normal forms, obstructions, membership, and engine caps.

The two-generator system {xy - yx, x^2 - 1} is small enough to run the
completion by hand: under deglex with x < y the leading words are yx and
xx, their only ambiguities (yxx and the xx self-overlap) both resolve,
so the system is already a Groebner basis after reorienting the first
relation.
"""

import functools
import hashlib
import heapq
import itertools
import random
from fractions import Fraction

import pytest

from qsymgraph.groebner import EMPTY_WORD, EngineLimits, GBasis, ResourceCapError, complete
from conftest import pairless_presentations
from overlap_oracle import (
    Obstruction,
    find_obstructions,
    obstructions_of_leads,
    random_normal_form,
)
from polyring import Poly, degree, index, leading_term, word
from worklist_oracle import ListReducer, membership_certificate, normal_form, reduce_terms

X, Y = 0, 1


def p(terms):
    return Poly(terms)


def idempotent(g):
    return p({word(g, g): 1, word(g): -1})


def nf(f, polys):
    return ListReducer(polys).normal_form(f)


@pytest.fixture(scope="module")
def commuting_pair_basis():
    gens = [p({word(X, Y): 1, word(Y, X): -1}), p({word(X, X): 1, EMPTY_WORD: -1})]
    return complete(gens, degree_bound=8)


# normal forms


def test_normal_form_of_zero():
    assert not nf(Poly.zero(), [idempotent(X)])


def test_normal_form_idempotent_cube():
    f = p({word(X, X, X): 1})
    assert nf(f, [idempotent(X)]) == p({word(X): 1})


def test_normal_form_requires_monic_basis():
    with pytest.raises(ValueError, match="monic"):
        nf(Poly.gen(X), [p({word(X, X): 2})])


def test_normal_form_trace_reconstructs_the_difference():
    # the worklist oracle's trace rebuilds f - nf(f) from the basis, and
    # its normal form is the one the memoised reference gives
    rng = random.Random(61)
    basis = [idempotent(X), idempotent(Y), p({word(Y, X): 1, word(X, Y): -1})]
    reducer = ListReducer(basis)
    for _ in range(50):
        f = p({
            bytes(rng.choices((X, Y), k=rng.randint(0, 4))): rng.randint(-3, 3)
            for _ in range(rng.randint(1, 4))
        })
        trace = []
        traced = normal_form(f, basis, trace=trace)
        rebuilt = Poly.zero()
        for coeff, left, rid, right in trace:
            rebuilt = rebuilt + Poly.term(left, coeff) * basis[rid] * Poly.term(right, 1)
        assert f - traced == rebuilt
        assert traced == reducer.normal_form(f)


def _first_occurrence(polys, w):
    """The rewrite the reference must pick at ``w``: the least (position,
    rule id) over every occurrence of every lead, a unit rule at 0."""
    leads = [leading_term(f)[0] for f in polys]
    units = [rid for rid, lead in enumerate(leads) if not lead]
    if units:
        return units[0], 0, EMPTY_WORD
    hits = [(pos, rid) for rid, lead in enumerate(leads)
            for pos in range(len(w) - len(lead) + 1) if w.startswith(lead, pos)]
    if not hits:
        return None
    pos, rid = min(hits)
    return rid, pos, leads[rid]


def test_find_agrees_with_linear_scan_on_non_interreduced_rules():
    # the reference's lookup, on lists with duplicate and nested leads
    rng = random.Random(83)
    for case in range(300):
        letters = rng.randint(2, 3)
        leads = [bytes(rng.choices(range(letters), k=rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 6))]
        for _ in range(rng.randint(0, 3)):
            lead = rng.choice(leads)
            extra = bytes(rng.choices(range(letters), k=rng.randint(0, 2)))
            leads.insert(rng.randrange(len(leads) + 1), lead + extra)  # duplicate or extension
        if case % 25 == 0:
            leads.insert(rng.randrange(len(leads) + 1), EMPTY_WORD)
        polys = []
        for lead in leads:
            terms = {lead: 1}
            if lead:
                tail = bytes(rng.choices(range(letters), k=rng.randrange(len(lead))))
                terms[tail] = rng.choice((-2, -1, 1, 3))
            polys.append(p(terms))
        reducer = ListReducer(polys)
        for _ in range(20):
            w = bytes(rng.choices(range(letters), k=rng.randint(0, 7)))
            assert reducer.find(w) == _first_occurrence(polys, w)


def test_memoised_normal_form_equals_worklist_on_non_interreduced_rules():
    # normal_form sums per-word normal forms kept across calls; the
    # worklist rewrites the whole polynomial, largest word first
    rng = random.Random(89)
    coeffs = (-2, -1, 1, 3, Fraction(1, 2), Fraction(-2, 3))
    for case in range(200):
        letters = rng.randint(2, 3)
        leads = [bytes(rng.choices(range(letters), k=rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 6))]
        for _ in range(rng.randint(0, 3)):
            lead = rng.choice(leads)
            extra = bytes(rng.choices(range(letters), k=rng.randint(0, 2)))
            leads.insert(rng.randrange(len(leads) + 1), lead + extra)  # duplicate or extension
        if case % 25 == 0:
            leads.insert(rng.randrange(len(leads) + 1), EMPTY_WORD)
        polys = []
        for lead in leads:
            terms = {lead: 1}
            for _ in range(rng.randint(0, 3)):
                tail = bytes(rng.choices(range(letters), k=rng.randint(0, len(lead))))
                if (len(tail), tail) < (len(lead), lead):  # deglex
                    terms[tail] = rng.choice(coeffs)
            polys.append(p(terms))
        reducer = ListReducer(polys)
        for _ in range(15):
            f = p({
                bytes(rng.choices(range(letters), k=rng.randint(0, 7))): rng.choice(coeffs)
                for _ in range(rng.randint(1, 4))
            })
            memoised = sorted(reducer.normal_form(f).items())
            worklist = sorted(reduce_terms(f, reducer).items())
            assert repr(memoised) == repr(worklist)  # equal values, same int/Fraction types
        assert reducer.memo


def test_integral_coefficients_fold_back_to_int():
    # yy - x/2: rewriting by it makes halves, and whole numbers from halves
    half = p({word(Y, Y): 1, word(X): Fraction(-1, 2)})
    f = p({word(Y, Y): 2, word(X): 1, word(X, Y, Y): 4, word(Y): 3, word(Y, Y, X): 1})
    reduced = nf(f, [half])
    reference = f - half.scale(2) - Poly.gen(X) * half.scale(4) - half * Poly.gen(X)
    assert reduced == reference
    assert reduced[word(X, X)] == Fraction(5, 2)
    for w, c in reduced.items():
        if Fraction(c).denominator == 1:
            assert type(c) is int, (w, c)
    gens = [p({word(Y, Y): 2, word(X): -1}), p({word(Y, X): 2, word(X, Y): -4, word(X): 2})]
    for g in complete(gens, degree_bound=6).polys:
        for c in g.values():
            assert type(c) is int or Fraction(c).denominator != 1, g


def test_normal_form_idempotence():
    rng = random.Random(67)
    reducer = ListReducer([idempotent(X), p({word(Y, Y): 1, EMPTY_WORD: -1})])
    for _ in range(60):
        f = p({
            bytes(rng.choices((X, Y), k=rng.randint(0, 5))): rng.randint(-4, 4)
            for _ in range(rng.randint(1, 5))
        })
        reduced = reducer.normal_form(f)
        assert reducer.normal_form(reduced) == reduced


# obstructions


def test_proper_overlap_found():
    obs = find_obstructions([
        p({word(X, Y): 1}),          # lead x y
        p({word(Y, X + 2): 1}),      # lead y z
    ])
    assert obs == [Obstruction(0, 1, 0, 1, word(X, Y, X + 2))]


def test_self_overlap_found():
    obs = find_obstructions([p({word(X, X): 1})])
    assert obs == [Obstruction(0, 0, 0, 1, word(X, X, X))]


def test_disjoint_leads_have_no_obstruction():
    obs = find_obstructions([p({word(X): 1}), p({word(Y): 1})])
    assert obs == []


def test_containment_found():
    obs = find_obstructions([
        p({word(X, Y, X): 1}),
        p({word(Y): 1, EMPTY_WORD: -1}),
    ])
    containments = [o for o in obs if o.word == word(X, Y, X)]
    assert containments == [Obstruction(0, 1, 0, 1, word(X, Y, X))]


def test_obstructions_sorted_by_degree():
    obs = find_obstructions([
        p({word(X, X): 1}),
        p({word(X, Y, X): 1}),
    ])
    degrees = [o.degree for o in obs]
    assert degrees == sorted(degrees)


def _rule_word_counts(engine, key):
    """{rule id: how many words of the rule contain ``key``}, lead and
    tail words alike, by a scan over the live rules."""
    counts = {}
    for s, lead in engine.leads.items():
        count = sum(key in w for w in (lead, *engine.tails[s]))
        if count:
            counts[s] = count
    return counts


def test_indexed_overlaps_match_all_pairs_oracle():
    # the basis pushes (i, j, k) for each new lead against the live ones
    # through its prefix/suffix indexes; the oracle tries every pair.  The
    # subword index counts the words of every live rule, lead and tail
    # alike, through direct adds and drops
    rng = random.Random(79)
    for _ in range(150):
        letters = rng.randint(3, 4)
        engine = GBasis(99, EngineLimits())
        all_leads: list[bytes] = []
        for rid in range(rng.randint(1, 14)):
            live = sorted(engine.leads)
            if live and rng.random() < 0.25:
                engine._drop(rng.choice(live))
            lead = b""
            while not lead or lead in engine.by_lead:  # live leads are distinct
                lead = bytes(rng.choices(range(letters), k=rng.randint(1, 5)))
            all_leads.append(lead)
            tail = {bytes(rng.choices(range(letters), k=rng.randrange(len(lead)))): 1
                    for _ in range(rng.randint(0, 3))}
            engine._add(rid, lead, tail)
            pushed = sorted(engine._overlaps(rid))
            live = sorted(engine.leads)
            leads = [all_leads[s] for s in live]
            expected = sorted(
                (live[o.left], live[o.right], len(leads[o.left]) - o.right_shift)
                for o in obstructions_of_leads(leads)
                if len(o.word) > len(leads[o.left]) and rid in (live[o.left], live[o.right])
            )
            assert pushed == expected
            for probe in (lead, bytes(rng.choices(range(letters), k=rng.randint(1, 3)))):
                assert engine.sub.get(probe, {}) == _rule_word_counts(engine, probe)


class _ScanCheckedBasis(GBasis):
    """Checks, whenever an element is added, that the subword index holds
    under its lead exactly the rules a scan over every live lead and tail
    finds: itself, and the rules whose tails ``insert`` step 2 then
    re-reduces."""

    checked = 0
    touched = 0

    def _add(self, rid, lead, tail):
        super()._add(rid, lead, tail)
        scanned = _rule_word_counts(self, lead)
        assert self.sub.get(lead, {}) == scanned
        self.checked += 1
        self.touched += len(scanned) - 1


def _assert_index_matches_scan(systems):
    """Complete each system in a ``_ScanCheckedBasis`` and rebuild its
    subword index from the live rules at the end, after drops and
    re-reductions; return the adds checked and the rules step 2 touched."""
    checked = touched = 0
    for gens, bound in systems:
        engine = _ScanCheckedBasis(bound, EngineLimits())
        engine.run(gens)
        assert engine.polys == complete(gens, degree_bound=bound).polys
        # each count is the number of the rule's words that contain the subword
        rebuilt: dict = {}
        for s, lead in engine.leads.items():
            for w in (lead, *engine.tails[s]):
                for key in {w[i:j] for i in range(len(w)) for j in range(i + 1, len(w) + 1)}:
                    bucket = rebuilt.setdefault(key, {})
                    bucket[s] = bucket.get(s, 0) + 1
        assert rebuilt == engine.sub
        checked += engine.checked
        touched += engine.touched
    return checked, touched


def test_subword_index_matches_scan_during_random_completions():
    rng = random.Random(97)
    systems = []
    for _ in range(200):
        letters = rng.randint(2, 3)
        gens = []
        for _ in range(rng.randint(1, 4)):
            poly = p({
                bytes(rng.choices(range(letters), k=rng.randint(1, 3))): rng.randint(-3, 3)
                for _ in range(rng.randint(1, 3))
            })
            if poly:
                gens.append(poly)
        if gens:
            systems.append((gens, max(rng.randint(4, 6), max(degree(g) for g in gens))))
    checked, touched = _assert_index_matches_scan(systems)
    assert checked > 600 and touched > 100  # adds, and tails step 2 re-reduced


def test_subword_index_matches_scan_on_small_graphs():
    checked, touched = _assert_index_matches_scan(
        (relations, 4) for relations in _small_graph_presentations())
    assert checked > 1000 and touched > 100, (checked, touched)  # step 2 fires


class _WorklistBasis(GBasis):
    """Completion that reduces by the worklist oracle instead of the
    per-word memo, and so never reads or fills it."""

    def _reduce(self, terms):
        return reduce_terms(terms, self)


class _MemoCheckedBasis(GBasis):
    """Checks after every insert that changes the rules that ``term_count``
    counts the terms of the live rules, which the ``max_terms`` cap reads;
    that no live lead is a subword of another and a unit rule is the only
    rule, so that at most one lead matches at any position; that each
    memoised word normal form is the one the reference over the live
    rules gives; that no memoised word is longer than ``memo_len``, the
    bound ``_add`` reads to skip its scan of the memo; and that the entry
    is recorded as built from the words the live rules rewrite it into,
    which are memoised too; an entry built from an old tail can hold the
    right value by chance.  (An insert that takes no rule id changes no
    rule, and so forgets none.)"""

    checked = 0
    unit_reached = False

    def insert(self, terms):
        rid = self.next_rid
        super().insert(terms)
        if self.next_rid == rid:
            return
        assert self.term_count == sum(len(tail) + 1 for tail in self.tails.values())
        self.unit_reached |= EMPTY_WORD in self.by_lead
        leads = self.leads
        distinct = set(leads.values())
        assert len(distinct) == len(leads)
        for lead in distinct:
            # proper subwords, the empty word too: a unit rule stands alone
            inner = {lead[i:j] for i in range(len(lead) + 1)
                     for j in range(i, len(lead) + 1)} - {lead}
            assert not inner & distinct, lead
        assert all(len(w) <= self.memo_len for w in self.word_nf)
        live = sorted(leads)
        fresh = ListReducer([
            Poly({**self.tails[s], leads[s]: 1}) for s in live])
        for w, memoised in self.word_nf.items():
            # equal values, same int/Fraction types
            assert _typed(memoised) == _typed(fresh.word_normal_form(w)), w
            hit = fresh.find(w)
            if hit is not None:
                s, pos, lead = hit
                s = live[s]
                assert w in self.rewrote[s], w
                for tw in self.tails[s]:
                    part = w[:pos] + tw + w[pos + len(lead):]
                    assert part in self.word_nf and w in self.users.get(part, ()), (w, part)
        self.checked += len(self.word_nf)


def _typed(terms):
    return sorted((w, c, type(c)) for w, c in terms.items())


def _sorted_basis(polys):
    return repr([sorted(f.items()) for f in polys])


def _assert_worklist_completion_agrees(gens, bound):
    basis = complete(gens, degree_bound=bound)
    engine = _WorklistBasis(bound, EngineLimits())
    engine.run(gens)
    # terms may sit in another insertion order; values and types may not differ
    assert _sorted_basis(engine.polys) == _sorted_basis(basis.polys)
    assert engine.complete == basis.complete


def _random_systems():
    """400 seeded generator lists on 2-3 letters, with a degree bound each."""
    rng = random.Random(101)
    coeffs = (-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3))
    cases = 0
    while cases < 400:
        letters = rng.randint(2, 3)
        gens = []
        for _ in range(rng.randint(1, 4)):
            poly = p({
                bytes(rng.choices(range(letters), k=rng.randint(1, 3))): rng.choice(coeffs)
                for _ in range(rng.randint(1, 3))
            })
            if poly:
                gens.append(poly)
        if not gens:
            continue
        yield gens, max(rng.randint(4, 6), max(degree(g) for g in gens))
        cases += 1


@functools.cache
def _small_graph_presentations():
    """The relations of the 75 connected graphs on <= 6 vertices with no
    disjoint automorphism pair, in enumeration order: the graphs classify
    hands to the engine, and 9 whose commutator list is empty, so that
    classify completes no basis for them."""
    from qsymgraph import automorphism_group, enumerate_connected, find_disjoint_pair
    from qsymgraph.classify import build_relations
    from qsymgraph.fulton import zero_pattern

    out = tuple(
        build_relations(g, zero_pattern(g)).relations
        for n in range(1, 7) for g in enumerate_connected(n)
        if find_disjoint_pair(automorphism_group(g)) is None)
    assert len(out) == 75
    return out


def test_memoised_completion_matches_worklist_completion_on_random_inputs():
    for gens, bound in _random_systems():
        _assert_worklist_completion_agrees(gens, bound)


def test_memoised_completion_matches_worklist_completion_on_small_graphs():
    for relations in _small_graph_presentations():
        _assert_worklist_completion_agrees(relations, 4)


def _assert_memo_stays_exact(systems):
    checked = 0
    for gens, bound in systems:
        engine = _MemoCheckedBasis(bound, EngineLimits())
        engine.run(gens)
        assert _sorted_basis(engine.polys) == _sorted_basis(
            complete(gens, degree_bound=bound).polys)
        checked += engine.checked
    return checked


def test_memo_equals_fresh_reducer_after_every_insert_on_random_inputs():
    assert _assert_memo_stays_exact(_random_systems()) > 10000


def test_memo_equals_fresh_reducer_after_every_insert_on_small_graphs():
    systems = [(relations, 4) for relations in _small_graph_presentations()]
    assert _assert_memo_stays_exact(systems) > 10000


def test_memo_equals_fresh_reducer_after_every_insert_when_one_enters_the_ideal():
    # xy = 1 and yx = 0 give x = xyx = 0, so 1 = xy = 0 from bound 3 on;
    # the unit rule retires every live rule, whose terms leave term_count
    Z = 2
    gens = [p({word(X, Y): 1, EMPTY_WORD: -1}), p({word(Y, X): 1}), idempotent(Z)]
    for bound in (3, 4):
        engine = _MemoCheckedBasis(bound, EngineLimits())
        engine.run(gens)
        assert engine.unit_reached and engine.polys == [Poly.one()]
        assert engine.term_count == 1 and engine.checked > 0


class _ScanCountingBasis(GBasis):
    """Counts the rules whose ``_add`` scans the word memo for words that
    contain the new lead, and the words other than the lead those scans
    find, checking that each is forgotten."""

    scans = 0
    found = 0

    def _add(self, rid, lead, tail):
        if self.memo_len <= len(lead):
            super()._add(rid, lead, tail)
            return
        found = [w for w in self.word_nf if lead in w and w != lead]
        super()._add(rid, lead, tail)
        assert not any(w in self.word_nf for w in found)
        self.scans += 1
        self.found += len(found)


def _count_scans(systems):
    scans = found = 0
    for gens, bound in systems:
        engine = _ScanCountingBasis(bound, EngineLimits())
        engine.run(gens)
        scans += engine.scans
        found += engine.found
    return scans, found


def test_add_scans_the_memo_only_for_a_longer_word():
    # the random systems reduce words longer than later leads, so the scan
    # runs and finds other words; on the small graphs no lead is shorter
    # than a word reduced before it
    assert _count_scans(_random_systems()) == (756, 994)
    assert _count_scans((relations, 4) for relations in _small_graph_presentations()) == (0, 0)


class _AllPairsBasis(GBasis):
    """Completion that also queues the ambiguities within the bound of two
    rules without tails, which ``insert`` leaves off the queue, and checks
    that each has S-polynomial 0 when it is queued and when it is popped."""

    def __init__(self, bound, limits):
        super().__init__(bound, limits)
        self.skipped = set()

    def insert(self, terms):
        rid = self.next_rid
        super().insert(terms)
        if self.next_rid == rid:
            return
        leads, tails = self.leads, self.tails
        for i, j, k in self._overlaps(rid):
            size = len(leads[i]) + len(leads[j]) - k
            if size <= self.bound and not tails[i] and not tails[j]:
                assert (size, i, j, k) not in self.heap  # insert left it off
                assert self.spoly(i, j, k) == {}
                self.skipped.add((i, j, k))
                heapq.heappush(self.heap, (size, i, j, k))

    def spoly(self, i, j, k):
        out = super().spoly(i, j, k)
        assert not out or (i, j, k) not in self.skipped, (i, j, k)
        return out


def _count_skipped(systems):
    """Complete each system with and without the skipped ambiguities on
    the queue; return how many were skipped."""
    skipped = 0
    for gens, bound in systems:
        basis = complete(gens, degree_bound=bound)
        engine = _AllPairsBasis(bound, EngineLimits())
        engine.run(gens)
        assert _sorted_basis(engine.polys) == _sorted_basis(basis.polys)
        assert engine.complete == basis.complete
        skipped += len(engine.skipped)
    return skipped


def test_overlaps_of_two_tailless_rules_are_not_queued():
    # their S-polynomial is 0, and an empty tail stays empty; ambiguities
    # over the bound are deferred all the same, so complete cannot move
    assert _count_skipped(_random_systems()) == 403
    assert _count_skipped((relations, bound) for relations in _small_graph_presentations()
                          for bound in (2, 3, 4)) == 2818


def _assert_inputs_untouched(systems):
    """Complete each system and check that every generator holds the terms
    it held before, in the same order and of the same types, and that no
    live rule keeps a generator's dict as its tail."""
    for gens, bound in systems:
        before = [[(w, c, type(c)) for w, c in g.items()] for g in gens]
        basis = complete(gens, degree_bound=bound)
        assert [[(w, c, type(c)) for w, c in g.items()] for g in gens] == before
        inputs = {id(g) for g in gens}
        assert not any(id(tail) in inputs for tail in basis.tails.values())


def test_completion_leaves_its_inputs_alone():
    # complete hands the generators' own term dicts to the engine
    Z = 2
    unit = [p({word(X, Y): 1, EMPTY_WORD: -1}), p({word(Y, X): 1}), idempotent(Z)]
    _assert_inputs_untouched([(unit, 3), (unit, 4)])
    _assert_inputs_untouched(_random_systems())
    _assert_inputs_untouched((relations, 4) for relations in _small_graph_presentations())


def _assert_find_agrees_with_reference(gens, bound, rng):
    """Check that the basis ``complete`` returns picks, at every word its
    completion memoised and at 20 random words, the rewrite the reference
    over ``basis.polys`` picks, the reference's rule ids mapped to the
    basis's through the leads; return the number of words with a rewrite."""
    basis = complete(gens, degree_bound=bound)
    reference = ListReducer(basis.polys)
    rule_of = {lead: rid for rid, lead in basis.leads.items()}
    letters = sorted({x for g in gens for w in g for x in w})
    words = list(basis.word_nf)
    words += [bytes(rng.choices(letters, k=rng.randint(0, bound + 2))) for _ in range(20)]
    reducible = 0
    for w in words:
        hit = reference.find(w)
        if hit is not None:
            _, pos, lead = hit
            hit = rule_of[lead], pos, lead
            reducible += 1
        assert basis.find(w) == hit, w
    return reducible


def test_engine_find_agrees_with_reference_after_completion():
    # first hit at the leftmost reducible position is the lowest rule id
    # there, since at most one live lead matches at a position
    rng = random.Random(107)
    random_inputs = sum(_assert_find_agrees_with_reference(gens, bound, rng)
                        for gens, bound in _random_systems())
    small_graphs = sum(_assert_find_agrees_with_reference(relations, 4, rng)
                       for relations in _small_graph_presentations())
    assert random_inputs > 1000 and small_graphs > 1000, (random_inputs, small_graphs)


def _assert_reduces_as_fresh_reducer(gens, bound):
    """Check that the basis ``complete`` returns reduces every word its
    completion memoised, every two-letter word and every commutator on the
    letters of ``gens`` as the reference ``ListReducer(basis.polys)`` does,
    values and int/Fraction types alike; return the number of two-letter words
    and commutators."""
    basis = complete(gens, degree_bound=bound)
    fresh = ListReducer(basis.polys)
    for w, memoised in basis.word_nf.items():
        assert _typed(memoised) == _typed(fresh.word_normal_form(w)), w
    letters = sorted({x for g in gens for w in g for x in w})
    polys = [p({word(a, b): 1}) for a in letters for b in letters]
    polys += [p({word(a, b): 1, word(b, a): -1}) for a, b in itertools.combinations(letters, 2)]
    for f in polys:
        assert _typed(basis.normal_form(f)) == _typed(fresh.normal_form(f)), f
    return len(polys)


@pytest.mark.parametrize("labelling, distinct, compared", [
    ("canonical", 96, 120651), ("atlas", 149, 155211)])
def test_returned_basis_reduces_as_fresh_reducer_on_pairless_graphs(labelling, distinct,
                                                                    compared):
    presentations = pairless_presentations(labelling)
    assert len(presentations) == distinct
    assert sum(_assert_reduces_as_fresh_reducer(pres.relations, bound)
               for pres in presentations for bound in (2, 3, 4)) == compared


def test_returned_basis_reduces_as_fresh_reducer_on_random_inputs():
    assert sum(_assert_reduces_as_fresh_reducer(gens, bound)
               for gens, bound in _random_systems()) == 3096


def test_returned_basis_reduces_as_fresh_reducer_when_one_enters_the_ideal():
    # xy = 1 and yx = 0 give x = xyx = 0, so 1 = xy = 0 from bound 3 on
    Z = 2
    gens = [p({word(X, Y): 1, EMPTY_WORD: -1}), p({word(Y, X): 1}), idempotent(Z)]
    assert not complete(gens, degree_bound=2).complete
    for bound in (2, 3, 4):
        assert _assert_reduces_as_fresh_reducer(gens, bound) == 12
    assert complete(gens, degree_bound=3).polys == [Poly.one()]


# completion


def test_single_idempotent_is_already_complete():
    basis = complete([idempotent(X)], degree_bound=6)
    assert basis.complete
    assert basis.polys == [idempotent(X)]


def test_commuting_pair_completes_by_hand(commuting_pair_basis):
    basis = commuting_pair_basis
    assert basis.complete
    assert basis.polys == [
        p({word(X, X): 1, EMPTY_WORD: -1}),
        p({word(Y, X): 1, word(X, Y): -1}),
    ]


def test_commuting_pair_membership(commuting_pair_basis):
    f = p({word(X, Y, X): 1, word(Y): -1})
    assert not nf(f, commuting_pair_basis.polys)


def test_truncation_reports_unknown():
    # x^3 - x alone: both self-overlaps exceed degree 3, so the truncated
    # basis cannot decide x^4 (whose normal form is the non-member x^2):
    # a nonzero normal form shows non-membership only on a complete basis
    gens = [p({word(X, X, X): 1, word(X): -1})]
    basis = complete(gens, degree_bound=3)
    assert not basis.complete
    f = p({word(X, X, X, X): 1})
    assert nf(f, basis.polys) == p({word(X, X): 1})
    deeper = complete(gens, degree_bound=5)
    assert deeper.complete
    assert nf(f, deeper.polys)
    assert not nf(f - p({word(X, X): 1}), basis.polys)


def test_generators_always_members():
    gens = [idempotent(X), p({word(X, Y): 1, word(Y, X): -1})]
    basis = complete(gens, degree_bound=6)
    reducer = ListReducer(basis.polys)
    for g in gens:
        assert not reducer.normal_form(g)


def test_unit_ideal_collapses():
    basis = complete([p({word(X): 1}), p({word(X): 1, EMPTY_WORD: -1})],
                     degree_bound=4)
    assert basis.complete
    assert basis.polys == [Poly.one()]
    assert not nf(Poly.gen(Y), basis.polys)


def test_complete_graph_relations_prove_noncommutativity():
    from qsymgraph import parse_graph6
    from qsymgraph.classify import build_relations
    from qsymgraph.fulton import zero_pattern

    k4 = parse_graph6("C~")
    pres = build_relations(k4, zero_pattern(k4))
    basis = complete(pres.relations, degree_bound=6)
    assert basis.complete
    a = index(pres.positions, 1, 1)
    b = index(pres.positions, 2, 2)
    commutator = p({word(a, b): 1, word(b, a): -1})
    assert nf(commutator, basis.polys)


def _basis_digest(bound):
    """SHA-256 over the bases at ``bound`` of the presentations of
    ``_small_graph_presentations``, in order, each with its complete flag."""
    digest = hashlib.sha256()
    for relations in _small_graph_presentations():
        basis = complete(relations, degree_bound=bound)
        for f in basis.polys:
            digest.update(repr(sorted(f.items())).encode() + b";")
        digest.update(b"|" + str(basis.complete).encode())
    return digest.hexdigest()


def test_bases_pinned_on_small_graphs():
    # the degree-4 bases; all 75 are complete from bound 3 on
    assert _basis_digest(4) == (
        "602badf11c18c25ad78f1eb474d84c88a885c5f14f0beb03b25174a431c6e946")


@pytest.mark.parametrize("bound, expected", [
    # 66 of the 75 bases are truncated at bound 2, so uniqueness of the
    # reduced Groebner basis does not fix them: this pin, taken before
    # completion ingested the linear relations first, holds the part of
    # the basis that could depend on the order of work
    (2, "66563772c201e59e3e2c3017236939620fb1bc1f51c3556f1554f80c989ab70b"),
    # all 75 are complete at bound 3, so they are the degree-4 bases
    (3, "602badf11c18c25ad78f1eb474d84c88a885c5f14f0beb03b25174a431c6e946"),
])
def test_low_bound_bases_pinned_on_small_graphs(bound, expected):
    assert _basis_digest(bound) == expected


def test_shuffled_generators_give_the_same_complete_basis():
    # a complete basis is the unique reduced Groebner basis of the ideal,
    # whatever order the engine ingests the generators in
    rng = random.Random(103)
    shuffled = 0
    for relations in _small_graph_presentations()[::5]:
        basis = complete(relations, degree_bound=4)
        assert basis.complete
        for _ in range(2):
            order = list(relations)
            rng.shuffle(order)
            assert complete(order, degree_bound=4).polys == basis.polys
            shuffled += 1
    for gens, bound in _random_systems():
        basis = complete(gens, degree_bound=bound)
        if basis.complete and len(gens) > 1:
            order = gens[:]
            rng.shuffle(order)
            assert _sorted_basis(complete(order, degree_bound=bound).polys) == (
                _sorted_basis(basis.polys))
            shuffled += 1
    assert shuffled > 100


def test_complete_validates_input():
    with pytest.raises(ValueError, match="zero"):
        complete([Poly.zero()], degree_bound=4)
    with pytest.raises(ValueError, match="empty"):
        complete([], degree_bound=4)
    with pytest.raises(ValueError, match="degree bound"):
        complete([p({word(X, X, X): 1})], degree_bound=2)


def test_resource_cap_is_distinct_from_truncation():
    gens = [
        p({word(X, Y): 1, word(Y, X): -1}),
        idempotent(X),
        idempotent(Y),
    ]
    with pytest.raises(ResourceCapError, match="basis size"):
        complete(gens, degree_bound=8, limits=EngineLimits(max_basis=1))
    with pytest.raises(ResourceCapError, match="term cap"):
        complete(gens, degree_bound=8, limits=EngineLimits(max_terms=2))


# structural invariants of returned bases


def fixture_systems():
    rng = random.Random(71)
    systems = [
        [idempotent(X), idempotent(Y), p({word(X, Y): 1, word(Y, X): -1})],
        [p({word(X, Y): 1, word(Y, X): -1}), p({word(X, X): 1, EMPTY_WORD: -1})],
        [p({word(X, Y, X): 1, word(Y): -1}), idempotent(Y)],
        [p({word(X, X): 1, word(X, Y): 1, word(X): -1})],
    ]
    for _ in range(6):
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {
                bytes(rng.choices((X, Y), k=rng.randint(1, 3))): rng.randint(-3, 3)
                for _ in range(rng.randint(1, 3))
            }
            poly = p(terms)
            if poly:
                gens.append(poly)
        if gens:
            systems.append(gens)
    return systems


@pytest.mark.parametrize("gens", fixture_systems())
def test_bases_are_monic_and_interreduced(gens):
    basis = complete(gens, degree_bound=7)
    leads = []
    for f in basis.polys:
        lw, lc = leading_term(f)
        assert lc == 1
        leads.append(lw)
    for i, a in enumerate(leads):
        for j, b in enumerate(leads):
            if i != j:
                assert a not in b, "leading word contains another"
    reducer = ListReducer(basis.polys)
    for i, f in enumerate(basis.polys):
        lw, _ = leading_term(f)
        tail = f - Poly.term(lw, 1)
        for w in tail:
            hit = reducer.find(w)
            assert hit is None, "tail term is reducible"


@pytest.mark.parametrize("gens", fixture_systems())
def test_every_basis_element_lies_in_the_ideal(gens):
    # independent check: every completed element must sit in the span of
    # generator products up to the truncation degree
    from membership_oracle import SpanOracle

    basis = complete(gens, degree_bound=7)
    oracle = SpanOracle(gens, letters=2, degree=7)
    for f in basis.polys:
        assert oracle.contains(f)


def test_membership_certificates(commuting_pair_basis):
    positions = ((0, 0), (0, 1))  # X = u(1,1), Y = u(1,2)
    member = p({word(X, Y, X): 1, word(Y): -1})
    cert = membership_certificate(member, commuting_pair_basis, positions)
    lines = cert.splitlines()
    assert lines[0] == "member"
    assert len(lines) > 1 and all("*" in line for line in lines[1:])
    non_member = p({word(Y): 1})
    cert2 = membership_certificate(non_member, commuting_pair_basis, positions)
    assert cert2 == "non_member\nnormal_form: u(1,2)"
    # identical calls give identical certificates
    assert cert == membership_certificate(member, commuting_pair_basis, positions)
    truncated = complete([p({word(X, X, X): 1, word(X): -1})], degree_bound=3)
    cert3 = membership_certificate(p({word(X, X, X, X): 1}), truncated, positions)
    assert cert3 == "unknown\nnormal_form: u(1,1)*u(1,1)"


def test_fuzzed_membership_agrees_with_span_oracle():
    """Random systems: reduction and exact linear algebra must concur.

    A complete basis must agree two-sidedly with the degree-bounded span;
    a truncated one is only held to the member direction (its nonzero
    normal forms are inconclusive by contract).
    """
    from membership_oracle import SpanOracle

    rng = random.Random(7331)
    for _ in range(120):
        letters = rng.randint(2, 3)
        gens = []
        for _ in range(rng.randint(1, 4)):
            terms = {
                bytes(rng.choices(range(letters), k=rng.randint(1, 3))): rng.randint(-3, 3)
                for _ in range(rng.randint(1, 3))
            }
            poly = p(terms)
            if poly:
                gens.append(poly)
        if not gens:
            continue
        d = rng.choice([4, 5])
        basis = complete(gens, degree_bound=d)
        reducer = ListReducer(basis.polys)
        oracle = SpanOracle(gens, letters, d)
        for _ in range(12):
            terms = {
                bytes(rng.choices(range(letters), k=rng.randint(0, d))): rng.randint(-2, 2)
                for _ in range(rng.randint(1, 3))
            }
            f = p(terms)
            if not f:
                continue
            gb_member = not reducer.normal_form(f)
            in_span = oracle.contains(f)
            if gb_member:
                assert in_span
            elif basis.complete:
                assert not in_span


def test_church_rosser_on_complete_basis(commuting_pair_basis):
    rng = random.Random(73)
    reducer = ListReducer(commuting_pair_basis.polys)
    for _ in range(60):
        f = p({
            bytes(rng.choices((X, Y), k=rng.randint(0, 6))): rng.randint(-3, 3)
            for _ in range(rng.randint(1, 4))
        })
        deterministic = reducer.normal_form(f)
        randomized = random_normal_form(f, commuting_pair_basis.polys, rng)
        assert randomized == deterministic
