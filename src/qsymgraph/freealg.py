"""Exact arithmetic in the free associative unital algebra over the rationals.

Words are ``bytes`` of generator indices; concatenation is multiplication
and the empty word is the unit.  Generator indices refer to a
:class:`Generators` table mapping them to matrix positions (row, col),
ordered row-major so that byte order equals generator precedence.

The one word order is deglex: degree first, then letters left to right.
It is admissible (total, multiplicative, 1 minimal), which is all the
completion machinery needs.

Coefficients are exact: ``int`` where possible, ``fractions.Fraction``
after non-integral division.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Word = bytes
Coeff = int | Fraction

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
    def full(n: int) -> "Generators":
        return Generators(tuple((i, j) for i in range(1, n + 1) for j in range(1, n + 1)))

    @staticmethod
    def from_alive(positions) -> "Generators":
        """Table from 0-based (row, col) positions; stored labels are 1-based."""
        return Generators(tuple(sorted((i + 1, j + 1) for i, j in positions)))

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, row: int, col: int) -> int:
        """Flat index of the generator at 1-based (row, col)."""
        return self.labels.index((row, col))

    def gen_name(self, idx: int) -> str:
        r, c = self.labels[idx]
        return f"u({r},{c})"


def word(*letters: int) -> Word:
    return bytes(letters)


def _add_term(terms: dict, w: Word, c) -> None:
    acc = terms.get(w, 0) + c
    if acc:
        terms[w] = acc
    else:
        terms.pop(w, None)


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

    Instances should be treated as immutable; all operators return fresh
    polynomials.  Equality and hashing are structural.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None, *, _trusted: bool = False):
        if terms is None:
            self.terms = {}
        elif _trusted:
            self.terms = terms
        else:
            self.terms = {w: c for w, c in terms.items() if c}

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly({EMPTY_WORD: 1}, _trusted=True)

    @staticmethod
    def constant(c) -> "Poly":
        return Poly({EMPTY_WORD: c} if c else {}, _trusted=True)

    @staticmethod
    def gen(idx: int) -> "Poly":
        return Poly({bytes((idx,)): 1}, _trusted=True)

    @staticmethod
    def term(w: Word, c) -> "Poly":
        return Poly({w: c} if c else {}, _trusted=True)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Maximal word length; -1 for the zero polynomial."""
        return max((len(w) for w in self.terms), default=-1)

    def leading_term(self) -> tuple[Word, Coeff]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        w = max(self.terms, key=_deglex_key)
        return w, self.terms[w]

    def coefficient(self, w: Word):
        return self.terms.get(w, 0)

    def key(self) -> tuple:
        """Canonical hashable form: terms sorted by descending word order."""
        items = sorted(self.terms.items(), key=lambda t: _deglex_key(t[0]), reverse=True)
        return tuple((w, Fraction(c)) for w, c in items)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.key())

    def __neg__(self) -> "Poly":
        return Poly({w: -c for w, c in self.terms.items()}, _trusted=True)

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            _add_term(out, w, c)
        return Poly(out, _trusted=True)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            _add_term(out, w, -c)
        return Poly(out, _trusted=True)

    def __rsub__(self, other) -> "Poly":
        return Poly.constant(other) - self

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _add_term(out, w1 + w2, c1 * c2)
        return Poly(out, _trusted=True)

    def __rmul__(self, other) -> "Poly":
        return self.scale(other)

    def scale(self, c) -> "Poly":
        if not c:
            return Poly.zero()
        return Poly({w: cc * c for w, cc in self.terms.items()}, _trusted=True)

    def monic(self) -> "Poly":
        lw, lc = self.leading_term()
        if lc == 1:
            return self
        return Poly({w: exact_div(c, lc) for w, c in self.terms.items()}, _trusted=True)

    def render(self, gens: Generators) -> str:
        """Stable human-readable rendering, terms in descending word order."""
        if not self.terms:
            return "0"
        parts = []
        for w, c in sorted(self.terms.items(), key=lambda t: _deglex_key(t[0]), reverse=True):
            if w:
                body = "*".join(gens.gen_name(idx) for idx in w)
                if c == 1:
                    text = body
                elif c == -1:
                    text = f"-{body}"
                else:
                    text = f"{c}*{body}"
            else:
                text = str(c)
            if not parts:
                parts.append(text)
            elif text.startswith("-"):
                parts.append(f"- {text[1:]}")
            else:
                parts.append(f"+ {text}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self.terms!r})"

