"""Polynomials in the free associative unital algebra over the rationals.

Words are ``bytes`` of generator indices; concatenation is multiplication
and the empty word is the unit.  Generator indices refer to a
:class:`Generators` table mapping them to matrix positions (row, col),
ordered row-major so that byte order equals generator precedence.

The one word order is deglex: degree first, then letters left to right.
It is admissible (total, multiplicative, 1 minimal), which is all the
completion machinery needs.

A :class:`Poly` is a value: a map from words to nonzero exact
coefficients, ``int`` where possible and ``fractions.Fraction`` after
non-integral division.  No floating point anywhere.  Completion
computes on the term dicts; a ``Poly`` wraps one, for the relations,
normal forms and witnesses the package hands out, and has no arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Word = bytes

EMPTY_WORD: Word = b""


def _deglex_key(w: Word):
    """Sort key of the deglex order."""
    return (len(w), w)


@dataclass(frozen=True)
class Generators:
    """Ordered table of algebra generators labeled by 1-based (row, col)."""

    labels: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if list(self.labels) != sorted(self.labels):
            raise ValueError("generator labels must be sorted row-major")
        if len(self.labels) > 256:
            raise ValueError("at most 256 generators supported")

    @staticmethod
    def from_alive(positions) -> "Generators":
        """Table from 0-based (row, col) positions; stored labels are 1-based."""
        return Generators(tuple(sorted((i + 1, j + 1) for i, j in positions)))

    def __len__(self) -> int:
        return len(self.labels)


def exact_div(c, d):
    """Exact coefficient division, staying in ``int`` when it divides evenly."""
    if isinstance(c, int) and isinstance(d, int):
        q, r = divmod(c, d)
        if r == 0:
            return q
    q = Fraction(c) / Fraction(d)
    return q.numerator if q.denominator == 1 else q


class Poly:
    """Polynomial as a map from words to nonzero exact coefficients.

    The dict given is stored as it is, so it must hold no zero
    coefficient, and is never written afterwards.  Equality and hashing
    are structural.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"Poly({self.terms!r})"
