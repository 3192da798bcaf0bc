"""Ring arithmetic and rendering of free-algebra polynomials, for tests only.

The package builds relations and reads normal forms on term dicts; its
``qsymgraph.freealg.Poly`` is a value with no arithmetic.  The tests and
oracles add, multiply and print polynomials, and do it here.

``Poly`` is a subclass of the package's: its constructor drops zero
coefficients, and it has the ring operators, which take a package
``Poly`` or a constant as the other operand.  A package ``Poly`` and a
``Poly`` of this module with the same terms are equal and hash alike.
The queries ``degree``, ``leading_term``, ``coefficient``, ``key`` and
``render`` are functions of ``.terms``, so they read the values the
package returns (``Presentation.relations``, ``GBasis.polys``,
``CheckResult.witness``) as they are.
"""

from __future__ import annotations

from fractions import Fraction

from qsymgraph import freealg
from qsymgraph.freealg import EMPTY_WORD, Word, _deglex_key, exact_div

Coeff = int | Fraction


def word(*letters: int) -> Word:
    return bytes(letters)


# letter tables: the 0-based (row, col) of each letter, row-major, as
# ``Presentation.positions`` holds them


def full(n: int) -> tuple[tuple[int, int], ...]:
    """The table of all n^2 generators."""
    return tuple((i, j) for i in range(n) for j in range(n))


def index(positions, row: int, col: int) -> int:
    """Flat index of the generator at 1-based (row, col)."""
    return positions.index((row - 1, col - 1))


def gen_name(positions, idx: int) -> str:
    r, c = positions[idx]
    return f"u({r + 1},{c + 1})"


# queries, on any polynomial


def degree(f: freealg.Poly) -> int:
    """Maximal word length; -1 for the zero polynomial."""
    return max((len(w) for w in f.terms), default=-1)


def leading_term(f: freealg.Poly) -> tuple[Word, Coeff]:
    if not f.terms:
        raise ValueError("zero polynomial has no leading term")
    w = max(f.terms, key=_deglex_key)
    return w, f.terms[w]


def coefficient(f: freealg.Poly, w: Word) -> Coeff:
    return f.terms.get(w, 0)


def key(f: freealg.Poly) -> tuple:
    """Canonical hashable form: terms sorted by descending word order."""
    items = sorted(f.terms.items(), key=lambda t: _deglex_key(t[0]), reverse=True)
    return tuple((w, Fraction(c)) for w, c in items)


def render(f: freealg.Poly, positions) -> str:
    """Stable human-readable rendering, terms in descending word order."""
    if not f.terms:
        return "0"
    parts = []
    for w, c in sorted(f.terms.items(), key=lambda t: _deglex_key(t[0]), reverse=True):
        if w:
            body = "*".join(gen_name(positions, idx) for idx in w)
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


# arithmetic


def _add_term(terms: dict, w: Word, c) -> None:
    acc = terms.get(w, 0) + c
    if acc:
        terms[w] = acc
    else:
        terms.pop(w, None)


def _terms(x) -> dict:
    """Terms of a polynomial, or of a constant."""
    if isinstance(x, freealg.Poly):
        return x.terms
    return {EMPTY_WORD: x} if x else {}


class Poly(freealg.Poly):
    """A package ``Poly`` with the ring operators; all of them return
    fresh polynomials."""

    __slots__ = ()

    def __init__(self, terms: dict | None = None):
        super().__init__({w: c for w, c in (terms or {}).items() if c})

    @staticmethod
    def zero() -> Poly:
        return Poly()

    @staticmethod
    def one() -> Poly:
        return Poly({EMPTY_WORD: 1})

    @staticmethod
    def constant(c) -> Poly:
        return Poly({EMPTY_WORD: c})

    @staticmethod
    def gen(idx: int) -> Poly:
        return Poly({bytes((idx,)): 1})

    @staticmethod
    def term(w: Word, c) -> Poly:
        return Poly({w: c})

    def __neg__(self) -> Poly:
        return Poly({w: -c for w, c in self.terms.items()})

    def __add__(self, other) -> Poly:
        out = dict(self.terms)
        for w, c in _terms(other).items():
            _add_term(out, w, c)
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other) -> Poly:
        out = dict(self.terms)
        for w, c in _terms(other).items():
            _add_term(out, w, -c)
        return Poly(out)

    def __rsub__(self, other) -> Poly:
        return Poly(_terms(other)) - self

    def __mul__(self, other) -> Poly:
        if not isinstance(other, freealg.Poly):
            return self.scale(other)
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _add_term(out, w1 + w2, c1 * c2)
        return Poly(out)

    def __rmul__(self, other) -> Poly:
        if isinstance(other, freealg.Poly):
            return Poly(other.terms) * self
        return self.scale(other)

    def scale(self, c) -> Poly:
        return Poly({w: cc * c for w, cc in self.terms.items()})

    def monic(self) -> Poly:
        _, lc = leading_term(self)
        if lc == 1:
            return self
        return Poly({w: exact_div(c, lc) for w, c in self.terms.items()})
