"""Worklist normal forms with a rewrite trace, for tests only.

``Reducer`` reduces a polynomial by summing memoised normal forms of its
words.  This oracle rewrites the whole polynomial instead, largest word
first, merging coefficients as it goes, and can record every rewrite so
that f - nf(f) can be rebuilt from the basis elements it used.  Both pick
the rule at a word the same way (``Reducer.find``), so they must give
the same normal form, down to int versus ``Fraction`` coefficients.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from qsymgraph.freealg import Generators, Poly, Word
from qsymgraph.groebner import GBasis, Reducer

# Maps letter x to 255 - x: heap keys (-len(w), w.translate(_INV)) pop
# the largest word first in deglex.
_INV = bytes(range(255, -1, -1))


def reduce_terms(terms: dict, rules: Reducer, *, trace: list | None = None) -> dict:
    """Worklist normal form; each rewrite strictly decreases in the order.

    Terms are processed largest first.  Rewriting a word produces only
    strictly smaller words, so finished words are never revisited.
    Integral ``Fraction`` results are folded back to ``int``.  With
    ``trace`` a list, appends ``(coeff, left, rule_id, right)`` for each
    rewrite.
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


def normal_form(f: Poly, basis, *, trace: list | None = None) -> Poly:
    """Reduce ``f`` by a list of monic polynomials (or a GBasis).

    With ``trace`` a list, f - normal_form(f) equals the sum of
    coeff * left * basis[rule_id] * right over its records.
    """
    polys = basis.polys if isinstance(basis, GBasis) else list(basis)
    return Poly(reduce_terms(f.terms, Reducer(polys), trace=trace), _trusted=True)


def membership_certificate(f: Poly, basis: GBasis, gens: Generators) -> str:
    """Printable evidence for a membership answer.

    For members, the cofactor decomposition f = sum of
    coeff * left * element * right over basis elements; otherwise the
    irreducible normal form, marked ``non_member`` on a complete basis
    and ``unknown`` on a truncated one.  Stable across runs.
    """
    trace: list = []
    nf = normal_form(f, basis, trace=trace)

    def word_str(w: Word) -> str:
        return "*".join(gens.gen_name(x) for x in w) if w else "1"

    if nf.is_zero():
        lines = ["member"]
        for coeff, left, rid, right in trace:
            element = basis.polys[rid].render(gens)
            lines.append(f"({coeff}) * {word_str(left)} * [{element}] * {word_str(right)}")
        return "\n".join(lines)
    status = "non_member" if basis.complete else "unknown"
    return f"{status}\nnormal_form: {nf.render(gens)}"
