"""A fixed-list reducer and worklist normal forms, for tests only.

``ListReducer`` is the test reference for two-sided rewriting: it
reduces by a fixed list of monic polynomials that need not be
interreduced, rewriting each word at its leftmost reducible position by
the matching rule with the lowest id (a unit rule, lead 1, wherever
there is one).  It shares no code with the engine's one rewriting
class, ``GBasis``, whose rules are interreduced so that at most one lead
matches at a position; on its live rules the two must rewrite alike.

``reduce_terms`` rewrites a whole polynomial instead of summing per-word
normal forms, largest word first, merging coefficients as it goes, and
can record every rewrite so that f - nf(f) can be rebuilt from the basis
elements it used.  It asks its rules (a ``ListReducer`` or a ``GBasis``)
which rule rewrites a word, so on the same rules it must give the same
normal form as their per-word memo, down to int versus ``Fraction``
coefficients.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from qsymgraph.groebner import GBasis, Word

from polyring import Poly, gen_name, leading_term, render


class ListReducer:
    """Rewriting by a fixed list of monic polynomials.

    The rules never change, so the normal form of every word met is kept
    in ``memo`` and never forgotten.
    """

    def __init__(self, polys):
        self.leads: list[Word] = []
        self.tails: list[dict] = []
        for rid, f in enumerate(polys):
            lead, lc = leading_term(f)
            if lc != 1:
                raise ValueError(f"basis element {rid} is not monic")
            self.leads.append(lead)
            self.tails.append({w: c for w, c in f.items() if w != lead})
        self.unit = next((rid for rid, lead in enumerate(self.leads) if not lead), None)
        self.memo: dict[Word, dict] = {}

    def find(self, w: Word):
        """(rule id, position, lead) of the rewrite at ``w``: the first
        unit rule, else the lowest id among the rules whose lead matches
        at the leftmost position where any does; None if irreducible."""
        if self.unit is not None:
            return self.unit, 0, b""
        for pos in range(len(w)):
            for rid, lead in enumerate(self.leads):
                if w.startswith(lead, pos):
                    return rid, pos, lead
        return None

    def word_normal_form(self, w: Word) -> dict:
        """N(w), built bottom-up: a reducible word waits on the stack
        until the words its rewrite produces, all smaller, are in ``memo``."""
        memo = self.memo
        stack = [w]
        while stack:
            v = stack[-1]
            if v in memo:
                stack.pop()
                continue
            hit = self.find(v)
            if hit is None:
                memo[v] = {v: 1}
                stack.pop()
                continue
            rid, pos, lead = hit
            parts = [(v[:pos] + tw + v[pos + len(lead):], tc)
                     for tw, tc in self.tails[rid].items()]
            missing = [u for u, _ in parts if u not in memo]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            out: dict = {}
            for u, tc in parts:
                _add_scaled(out, memo[u], -tc)
            memo[v] = out
        return memo[w]

    def normal_form(self, f: dict) -> Poly:
        out: dict = {}
        for w, c in f.items():
            _add_scaled(out, self.word_normal_form(w), c)
        return Poly(out)


def _add_scaled(out: dict, terms: dict, c) -> None:
    """out += c * terms, dropping zeros and folding integral Fractions to int."""
    for w, tc in terms.items():
        acc = out.get(w, 0) + c * tc
        if acc:
            if type(acc) is Fraction and acc.denominator == 1:
                acc = acc.numerator
            out[w] = acc
        else:
            out.pop(w, None)


# Maps letter x to 255 - x: heap keys (-len(w), w.translate(_INV)) pop
# the largest word first in deglex.
_INV = bytes(range(255, -1, -1))


def reduce_terms(terms: dict, rules, *, trace: list | None = None) -> dict:
    """Worklist normal form; each rewrite strictly decreases in the order.

    ``rules`` is a ``ListReducer`` or a ``GBasis``.  Terms are processed
    largest first.  Rewriting a word produces only strictly smaller words,
    so finished words are never revisited.  Integral ``Fraction`` results
    are folded back to ``int``.  With ``trace`` a list, appends
    ``(coeff, left, rule_id, right)`` for each rewrite.
    """
    work = dict(terms)
    heap = [(-len(w), w.translate(_INV), w) for w in work]
    heapq.heapify(heap)
    out: dict = {}
    while heap:
        _, _, w = heapq.heappop(heap)
        c = work.pop(w, 0)
        if not c:
            continue
        hit = rules.find(w)
        if hit is None:
            out[w] = c
            continue
        rid, pos, lead = hit
        a = w[:pos]
        b = w[pos + len(lead):]
        if trace is not None:
            trace.append((c, a, rid, b))
        for tw, tc in rules.tails[rid].items():
            nw = a + tw + b
            prev = work.get(nw)
            acc = (prev if prev is not None else 0) - c * tc
            if acc:
                if type(acc) is Fraction and acc.denominator == 1:
                    acc = acc.numerator
                work[nw] = acc
                if prev is None:
                    heapq.heappush(heap, (-len(nw), nw.translate(_INV), nw))
            else:
                work.pop(nw, None)
    return out


def normal_form(f: dict, basis, *, trace: list | None = None) -> Poly:
    """Reduce ``f`` by a list of monic polynomials (or a GBasis).

    With ``trace`` a list, f - normal_form(f) equals the sum of
    coeff * left * basis[rule_id] * right over its records.
    """
    polys = basis.polys if isinstance(basis, GBasis) else list(basis)
    return Poly(reduce_terms(f, ListReducer(polys), trace=trace))


def membership_certificate(f: dict, basis: GBasis, positions) -> str:
    """Printable evidence for a membership answer.

    For members, the cofactor decomposition f = sum of
    coeff * left * element * right over basis elements; otherwise the
    irreducible normal form, marked ``non_member`` on a complete basis
    and ``unknown`` on a truncated one.  Stable across runs.
    """
    trace: list = []
    nf = normal_form(f, basis, trace=trace)

    def word_str(w: Word) -> str:
        return "*".join(gen_name(positions, x) for x in w) if w else "1"

    if not nf:
        lines = ["member"]
        for coeff, left, rid, right in trace:
            element = render(basis.polys[rid], positions)
            lines.append(f"({coeff}) * {word_str(left)} * [{element}] * {word_str(right)}")
        return "\n".join(lines)
    status = "non_member" if basis.complete else "unknown"
    return f"{status}\nnormal_form: {render(nf, positions)}"
