"""The package's polynomial values and generator tables, the deglex word
order, and the ring arithmetic and rendering of ``polyring``."""

from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsymgraph import Presentation, build_relations, freealg, zero_pattern
from qsymgraph.freealg import EMPTY_WORD

from conftest import house_x, word_cmp
from polyring import (
    Poly,
    coefficient,
    full,
    gen_name,
    index,
    leading_term,
    render,
    word,
)

words = st.builds(bytes, st.lists(st.integers(0, 3), max_size=5))
coeffs = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
)
polys = st.builds(Poly, st.dictionaries(words, coeffs, max_size=5))


# word order


def test_degree_dominates():
    assert word_cmp(word(0, 1), word(0)) > 0
    assert word_cmp(word(0), word(0, 1)) < 0


def test_ties_break_left_to_right():
    # u11*u22 < u12*u11 because the first letters differ
    assert word_cmp(word(0, 3), word(1, 0)) < 0
    assert word_cmp(word(1, 0), word(0, 3)) > 0
    assert word_cmp(word(1, 0), word(1, 0)) == 0


def test_degree_two_words_on_three_generators_sort_row_major():
    all_words = [word(a, b) for a in range(3) for b in range(3)]
    shuffled = sorted(all_words, key=lambda w: (w[1], w[0]))
    assert sorted(shuffled, key=cmp_to_key(word_cmp)) == all_words


@given(words, words, words, words)
@settings(max_examples=200)
def test_order_is_multiplicative(u, v, a, b):
    if word_cmp(u, v) < 0:
        assert word_cmp(a + u + b, a + v + b) < 0


@given(words)
def test_empty_word_is_minimal(w):
    assert word_cmp(EMPTY_WORD, w) <= 0


# polynomial arithmetic


def test_noncommutative_product_keeps_cross_terms():
    x, y = Poly.gen(0), Poly.gen(1)
    product = (x + y) * (x - y)
    assert product == Poly({
        word(0, 0): 1, word(0, 1): -1, word(1, 0): 1, word(1, 1): -1,
    })


def test_additive_inverse():
    f = Poly({word(0): 2, word(1, 1): Fraction(-1, 3)})
    assert (f + f.scale(-1)).is_zero()
    assert (f + (-1) * f).is_zero()


def test_unit_laws():
    f = Poly({word(2, 1): 5, EMPTY_WORD: -1})
    assert Poly.one() * f == f
    assert f * Poly.one() == f
    assert (f * Poly.zero()).is_zero()


@given(polys, polys, polys)
@settings(max_examples=150, deadline=None)
def test_associativity(f, g, h):
    assert (f * g) * h == f * (g * h)


@given(polys, polys, polys)
@settings(max_examples=150, deadline=None)
def test_distributivity(f, g, h):
    assert f * (g + h) == f * g + f * h
    assert (g + h) * f == g * f + h * f


@given(polys)
def test_scalar_exactness(f):
    assert f.scale(Fraction(1, 3)).scale(3) == f


def test_canonical_no_zero_terms():
    f = Poly({word(0): 1}) - Poly({word(0): 1})
    assert f.terms == {}
    assert f == Poly.zero()


# package values against the ring


def test_package_and_ring_polys_are_one_value():
    for terms in ({word(0, 1): 1, word(1, 0): -1},
                  {word(2): Fraction(1), EMPTY_WORD: Fraction(-1, 2)},
                  {}):
        package, ring = freealg.Poly(terms), Poly(terms)
        assert package == ring and ring == package
        assert hash(package) == hash(ring)
    # an int coefficient against an integral Fraction
    package, ring = freealg.Poly({word(0): 1}), Poly({word(0): Fraction(1)})
    assert package == ring and ring == package
    assert hash(package) == hash(ring)
    assert freealg.Poly({word(0): 1}) != Poly({word(0): 2})
    assert freealg.Poly({word(0): 1}) != {word(0): 1}


def test_presentations_stay_hashable():
    g = house_x()
    p, q = build_relations(g, zero_pattern(g)), build_relations(g, zero_pattern(g))
    assert p is not q and hash(p) == hash(q) and p == q
    # a relation rebuilt by the ring finds the package's in a set
    assert Poly(p.relations[0].terms) in set(p.relations)


# leading terms


def test_leading_term_prefers_longer_word():
    f = Poly({word(0): 1, word(0, 1): 1})
    assert leading_term(f) == (word(0, 1), 1)


def test_leading_term_constant_vs_generator():
    f = Poly({EMPTY_WORD: 3, word(3): -2})
    assert leading_term(f) == (word(3), -2)


def test_leading_term_of_row_sum():
    # u(1,1) + u(1,2) + u(1,3) - 1 on a 3x3 generator table
    positions = full(3)
    f = sum((Poly.gen(index(positions, 1, k)) for k in (1, 2, 3)), Poly.zero()) - 1
    assert leading_term(f) == (word(index(positions, 1, 3)), 1)


def test_leading_term_of_zero_fails():
    with pytest.raises(ValueError):
        leading_term(Poly.zero())


def test_monic_divides_exactly():
    f = Poly({word(1, 1): -2, word(0): 1})
    m = f.monic()
    assert leading_term(m) == (word(1, 1), 1)
    assert coefficient(m, word(0)) == Fraction(-1, 2)


# generator tables and rendering


def test_generator_table_row_major():
    positions = full(2)
    assert positions == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert Presentation(positions, ()).positions == positions
    assert index(positions, 2, 1) == 2
    assert gen_name(positions, 3) == "u(2,2)"


def test_generator_table_from_alive():
    g = house_x()
    pattern = zero_pattern(g)
    assert build_relations(g, pattern).positions == tuple(pattern.alive())


@pytest.mark.parametrize("positions", [
    ((1, 1), (0, 0), (2, 2)),  # not row-major
    ((1, 1), (1, 1)),  # one letter twice, which would read as vacuous
    tuple((i, j) for i in range(17) for j in range(17)),  # 289 letters
])
def test_generator_table_rejects_what_is_not_strictly_increasing_or_too_long(positions):
    with pytest.raises(ValueError):
        Presentation(positions, ())


def test_render_stable():
    positions = full(2)
    f = Poly({word(0, 3): 1, word(3, 0): -1})
    assert render(f, positions) == "-u(2,2)*u(1,1) + u(1,1)*u(2,2)"
    g = Poly({EMPTY_WORD: Fraction(-1, 2), word(1): 2})
    assert render(g, positions) == "2*u(1,2) - 1/2"
    assert render(Poly.zero(), positions) == "0"
