"""Independent ideal-membership oracle for degree-bounded spans.

Decides whether a polynomial lies in span{ a * g * b : g a relation,
a, b words, total degree <= d } by exact integer Gaussian elimination,
with no word rewriting anywhere.  The row space is saturated degree by
degree: every echelon row of degree s < d is extended by one letter on
each side, which generates the full product span because any product
a*g*b factors as letter-by-letter extensions of shorter products.

Single-word relations admit a sound compression: dropping a word that
contains a relation word from any row just subtracts one more product
(left word times that relation times right word), so all rows and
queries are kept projected away from those superwords, and extensions
of single-word relations are skipped as redundant.  The span being
tested is unchanged.  The forbidden set is fixed up front; singleton
rows discovered during elimination stay ordinary pivots, because
matching a growing pattern set against every generated word is exactly
the rewriting machinery this oracle must stay independent of.

Rows keep integer coefficients throughout (cross-multiplication plus
content stripping), so the computation is exact over the rationals.
"""

from __future__ import annotations

from math import gcd


class OracleCapExceeded(RuntimeError):
    """Saturation grew past the configured pivot budget."""


def _word_key(w: bytes):
    return (len(w), w)


class SpanOracle:
    """Echelon of the degree-bounded product span of a relation set."""

    def __init__(self, relations, letters: int, degree: int, max_pivots: int = 2_000_000):
        self.letters = letters
        self.degree = degree
        self.max_pivots = max_pivots
        self.pivots: dict[bytes, dict] = {}
        self._forbidden_by_first: dict[int, list[bytes]] = {}
        self._forbidden_memo: dict[bytes, bool] = {}  # word -> _is_forbidden
        rows = []
        for rel in relations:
            row = _as_int_terms(rel)
            if not row:
                continue
            if max(len(w) for w in row) > degree:
                raise ValueError("relation degree exceeds the span degree")
            rows.append(row)
        for row in rows:
            if len(row) == 1:
                (w,) = row
                if w and not self._is_forbidden(w):
                    self._forbid(w)
        queue: list[dict] = []
        for row in rows:
            self._insert(self._project(row), queue)
        head = 0
        while head < len(queue):
            row = queue[head]
            head += 1
            if max(len(w) for w in row) + 1 > degree:
                continue
            for x in range(letters):
                xb = bytes((x,))
                self._insert(self._project({xb + w: c for w, c in row.items()}), queue)
                self._insert(self._project({w + xb: c for w, c in row.items()}), queue)

    def _forbid(self, w: bytes) -> None:
        self._forbidden_by_first.setdefault(w[0], []).append(w)
        self._forbidden_memo.clear()

    def _is_forbidden(self, w: bytes) -> bool:
        """Whether some forbidden word occurs in ``w``; memoised per word
        until the forbidden set changes."""
        hit = self._forbidden_memo.get(w)
        if hit is None:
            hit = self._forbidden_memo[w] = self._contains_forbidden(w)
        return hit

    def _contains_forbidden(self, w: bytes) -> bool:
        buckets = self._forbidden_by_first
        for pos in range(len(w)):
            bucket = buckets.get(w[pos])
            if bucket:
                for f in bucket:
                    if w.startswith(f, pos):
                        return True
        return False

    def _project(self, row: dict) -> dict:
        keep = self._is_forbidden
        return {w: c for w, c in row.items() if not keep(w)}

    def _insert(self, row: dict, queue: list) -> None:
        row = self._reduce(row)
        if not row:
            return
        g = 0
        for c in row.values():
            g = gcd(g, c)
        lead = max(row, key=_word_key)
        if row[lead] < 0:
            g = -g
        if g != 1:
            row = {w: c // g for w, c in row.items()}
        self.pivots[lead] = row
        if len(self.pivots) > self.max_pivots:
            raise OracleCapExceeded(f"more than {self.max_pivots} pivots")
        queue.append(row)

    def _reduce(self, row: dict) -> dict:
        while row:
            lead = max(row, key=_word_key)
            pivot = self.pivots.get(lead)
            if pivot is None:
                return row
            a = pivot[lead]
            b = row[lead]
            new = {}
            for w, c in row.items():
                acc = a * c - b * pivot.get(w, 0)
                if acc:
                    new[w] = acc
            for w, c in pivot.items():
                if w not in row:
                    acc = -b * c
                    if acc:
                        new[w] = acc
            row = new
        return row

    def contains(self, f: dict) -> bool:
        """Exact span membership of ``f``."""
        return not self._reduce(self._project(_as_int_terms(f)))


def _as_int_terms(f: dict) -> dict:
    """Clear denominators so the row is integral."""
    denom = 1
    for c in f.values():
        d = getattr(c, "denominator", 1)
        denom = denom * d // gcd(denom, d)
    return {w: int(c * denom) for w, c in f.items()}
