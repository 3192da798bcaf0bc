"""Two-sided Groebner bases in the free algebra, degree truncated.

Buchberger-style completion over overlap ambiguities of leading words.
The basis is kept monic and interreduced throughout: no leading word
contains another as a subword, and every tail is in normal form.

Reductions are sound at any truncation degree (a zero normal form always
certifies ideal membership); a nonzero normal form certifies
non-membership only when completion terminated with no deferred
ambiguities, i.e. the basis is a genuine Groebner basis.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction

from .freealg import EMPTY_WORD, Poly, Word, _deglex_key, exact_div


class ResourceCapError(RuntimeError):
    """A configured engine cap was exceeded; distinct from degree truncation."""


@dataclass(frozen=True)
class EngineLimits:
    """Hard caps that abort completion loudly instead of silently truncating."""

    max_basis: int = 20000
    max_terms: int = 2_000_000


@dataclass
class GBasis:
    polys: list[Poly]
    degree_bound: int
    complete: bool

    @property
    def size(self) -> int:
        return len(self.polys)


class Reducer:
    """Two-sided rewriting by a fixed list of monic polynomials.

    Leads are looked up by hash: at each position of a word, the slice of
    every length some lead has is looked up in ``by_lead``.  The list need
    not be interreduced; of the leads matching at the leftmost reducible
    position, the one with the lowest rule id rewrites.

    Which rule rewrites a word depends on the word alone, so reduction is
    linear: nf(f) is the sum of c * N(w) over the terms c*w of f, where
    N(w) is the normal form of the word w.  Reduction keeps every N(w) it
    meets in ``word_nf``, which is valid only as long as the rules do not
    change, so ``_add`` empties it.  ``_drop`` need not: a plain Reducer
    never drops a rule, and the engine drops rules only just before an
    ``_add``, with no reduction in between.
    """

    def __init__(self, polys):
        self.leads: dict[int, Word] = {}
        self.tails: dict[int, dict] = {}
        self.by_lead: dict[Word, int] = {}  # nonempty lead -> lowest rule id
        self.lengths: list[int] = []  # distinct lengths in by_lead, ascending
        self.length_count: dict[int, int] = {}
        self.unit_rule: int | None = None
        self.word_nf: dict[Word, dict] = {}
        for rid, p in enumerate(polys):
            lw, lc = p.leading_term()
            if lc != 1:
                raise ValueError(f"basis element {rid} is not monic")
            self._add(rid, lw, {w: c for w, c in p.terms.items() if w != lw})

    def _add(self, rid: int, lead: Word, tail: dict) -> None:
        self.word_nf.clear()
        self.leads[rid] = lead
        self.tails[rid] = tail
        if not lead:
            if self.unit_rule is None:
                self.unit_rule = rid
            return
        self.by_lead.setdefault(lead, rid)
        size = len(lead)
        count = self.length_count.get(size, 0)
        self.length_count[size] = count + 1
        if not count:
            self.lengths = sorted(self.length_count)

    def _drop(self, rid: int) -> tuple[Word, dict]:
        """Undo ``_add`` of a rule whose lead no other rule has (never the
        unit rule); return its lead and tail.  Leaves ``word_nf`` stale
        until the ``_add`` that always follows."""
        lead = self.leads.pop(rid)
        tail = self.tails.pop(rid)
        del self.by_lead[lead]
        size = len(lead)
        count = self.length_count.pop(size) - 1
        if count:
            self.length_count[size] = count
        else:
            self.lengths = sorted(self.length_count)
        return lead, tail

    def find(self, w: Word):
        """Leftmost reducible position, lowest rule id; None if irreducible."""
        if self.unit_rule is not None:
            return self.unit_rule, 0, EMPTY_WORD
        by_lead = self.by_lead
        lengths = self.lengths
        n = len(w)
        for pos in range(n):
            hit = None
            for size in lengths:
                end = pos + size
                if end > n:
                    break
                rid = by_lead.get(w[pos:end])
                if rid is not None and (hit is None or rid < hit):
                    hit = rid
            if hit is not None:
                return hit, pos, self.leads[hit]
        return None

    def normal_form(self, f: Poly) -> Poly:
        """Normal form of ``f`` by the current rules."""
        return Poly(self._reduce(f.terms), _trusted=True)

    def _reduce(self, terms: dict) -> dict:
        """Normal form of a term dict: the sum of c * N(w) over its terms."""
        out: dict = {}
        for w, c in terms.items():
            _add_scaled(out, self._word_nf(w), c)
        return out

    def _word_nf(self, w: Word) -> dict:
        """N(w), built bottom-up on an explicit stack and kept in ``word_nf``.

        A reducible word waits on the stack until the normal forms of the
        words its rewrite produces are known; those are strictly smaller,
        so the stack empties.
        """
        memo = self.word_nf
        find = self.find
        tails = self.tails
        waiting: dict[Word, list] = {}  # word -> [(rewritten word, coeff), ...]
        stack = [w]
        while stack:
            v = stack[-1]
            if v in memo:
                stack.pop()
                continue
            parts = waiting.get(v)
            if parts is None:
                hit = find(v)
                if hit is None:
                    memo[v] = {v: 1}
                    stack.pop()
                    continue
                rid, pos, lead = hit
                a = v[:pos]
                b = v[pos + len(lead):]
                parts = waiting[v] = [(a + tw + b, tc) for tw, tc in tails[rid].items()]
                missing = [u for u, _ in parts if u not in memo]
                if missing:
                    stack.extend(missing)
                    continue
            stack.pop()
            del waiting[v]
            out: dict = {}
            for u, tc in parts:
                _add_scaled(out, memo[u], -tc)
            memo[v] = out
        return memo[w]


def _add_scaled(out: dict, terms: dict, c) -> None:
    """out += c * terms, dropping zeros and folding integral Fractions."""
    for w, tc in terms.items():
        acc = out.get(w, 0) + c * tc
        if acc:
            if type(acc) is Fraction and acc.denominator == 1:
                acc = acc.numerator
            out[w] = acc
        else:
            out.pop(w, None)


def _subwords(w: Word) -> set[Word]:
    return {w[i:j] for i in range(len(w)) for j in range(i + 1, len(w) + 1)}


def _discard(index: dict, key: Word, rid: int) -> None:
    bucket = index[key]
    bucket.discard(rid)
    if not bucket:
        del index[key]


class _Engine(Reducer):
    """Mutable completion state; single run, exclusively owned.

    The live basis is the rule set of the Reducer it extends, so ``leads``
    holds live elements only.  Beside ``by_lead`` it indexes every live
    lead by its proper prefixes and suffixes (to find overlaps) and by
    all its subwords (to find the leads a new lead divides), and every
    live tail by the subwords of its words (to find the tails a new lead
    reduces), counting for each rule how many of its tail words contain
    the subword.  It reduces through the same per-word memo as
    ``normal_form``, which is emptied whenever a rule changes.
    """

    def __init__(self, bound: int, limits: EngineLimits):
        super().__init__(())
        self.bound = bound
        self.limits = limits
        self.prefix: defaultdict[Word, set[int]] = defaultdict(set)
        self.suffix: defaultdict[Word, set[int]] = defaultdict(set)
        self.sub: defaultdict[Word, set[int]] = defaultdict(set)
        self.tail_sub: defaultdict[Word, dict[int, int]] = defaultdict(dict)
        self.heap: list[tuple[int, int, int, int]] = []
        self.deferred: list[tuple[int, int, int, int]] = []
        self.pending: deque = deque()
        self.next_rid = 0
        self.term_count = 0
        self.overflow = False

    def _add(self, rid: int, lead: Word, tail: dict) -> None:
        super()._add(rid, lead, tail)
        for k in range(1, len(lead)):
            self.prefix[lead[:k]].add(rid)
            self.suffix[lead[-k:]].add(rid)
        for key in _subwords(lead):
            self.sub[key].add(rid)
        self._count_tail_words(rid, tail, 1)

    def _drop(self, rid: int) -> tuple[Word, dict]:
        lead, tail = super()._drop(rid)
        for k in range(1, len(lead)):
            _discard(self.prefix, lead[:k], rid)
            _discard(self.suffix, lead[-k:], rid)
        for key in _subwords(lead):
            _discard(self.sub, key, rid)
        self._count_tail_words(rid, tail, -1)
        return lead, tail

    def _count_tail_words(self, rid: int, words, step: int) -> None:
        """Add ``step`` to the count of ``rid`` under every subword of
        each of ``words``."""
        tail_sub = self.tail_sub
        for w in words:
            for key in _subwords(w):
                bucket = tail_sub[key]
                count = bucket.get(rid, 0) + step
                if count:
                    bucket[rid] = count
                else:
                    del bucket[rid]
                    if not bucket:
                        del tail_sub[key]

    def _overlaps(self, rid: int):
        """(i, j, k) for every live pair with ``rid`` as i or j (or both)
        where the last k letters of lead i are the first k of lead j,
        0 < k < min of the two lengths."""
        a = self.leads[rid]
        for k in range(1, len(a)):
            for s in self.prefix.get(a[-k:], ()):
                yield rid, s, k
            for s in self.suffix.get(a[:k], ()):
                if s != rid:
                    yield s, rid, k

    def insert(self, terms: dict):
        nf = self._reduce(terms)
        if not nf:
            return
        lw = max(nf, key=_deglex_key)
        lc = nf.pop(lw)
        if lc != 1:
            nf = {w: exact_div(c, lc) for w, c in nf.items()}
        if len(lw) > self.bound:
            self.overflow = True
            return
        rid = self.next_rid
        self.next_rid += 1
        # interreduction, step 1: retire elements whose lead the new lead divides
        if lw:
            for s in sorted(self.sub.get(lw, ())):
                lead, full = self._drop(s)
                full[lead] = 1
                self.term_count -= len(full)
                self.pending.append(full)
        else:
            # constant 1 entered the ideal: everything reduces to zero
            for s in sorted(self.leads):
                _, tail = self._drop(s)
                self.term_count -= len(tail) + 1
        self._add(rid, lw, nf)
        self.term_count += len(nf) + 1
        if len(self.leads) > self.limits.max_basis:
            raise ResourceCapError(
                f"basis size cap exceeded ({self.limits.max_basis})")
        if self.term_count > self.limits.max_terms:
            raise ResourceCapError(
                f"total term cap exceeded ({self.limits.max_terms})")
        # interreduction, step 2: re-reduce the tails that contain the new
        # lead (never the new element's own: its tail words are smaller)
        for s in sorted(self.tail_sub.get(lw, ())):
            tail = self.tails[s]
            new_tail = self._reduce(tail)
            self.tails[s] = new_tail
            # memo entries that went through rule s used its old tail.  The
            # leads do not change here, so every entry stays irreducible and
            # congruent to its word modulo the same ideal: a basis that ends
            # complete is the unique reduced Groebner basis with or without
            # this reset.  Only a truncated basis could differ, and no proof
            # covers that case, so the reset stays.  Without it, all 207
            # distinct pairless presentations with n <= 7 (canonical and
            # atlas labellings) gave the same bases at bound 4.
            self.word_nf.clear()
            self.term_count += len(new_tail) - len(tail)
            self._count_tail_words(s, [w for w in tail if w not in new_tail], -1)
            self._count_tail_words(s, [w for w in new_tail if w not in tail], 1)
        leads = self.leads
        for i, j, k in self._overlaps(rid):
            entry = (len(leads[i]) + len(leads[j]) - k, i, j, k)
            if entry[0] <= self.bound:
                heapq.heappush(self.heap, entry)
            else:
                self.deferred.append(entry)

    def spoly(self, i: int, j: int, k: int) -> dict:
        a = self.leads[i]
        b = self.leads[j]
        right = b[k:]
        left = a[:len(a) - k]
        out = {w + right: c for w, c in self.tails[i].items()}
        for w, c in self.tails[j].items():
            nw = left + w
            acc = out.get(nw, 0) - c
            if acc:
                if type(acc) is Fraction and acc.denominator == 1:
                    acc = acc.numerator
                out[nw] = acc
            else:
                del out[nw]
        return out

    def run(self, gen_dicts) -> None:
        self.pending.extend(gen_dicts)
        while True:
            if self.pending:
                self.insert(self.pending.popleft())
                continue
            entry = None
            while self.heap:
                cand = heapq.heappop(self.heap)
                if cand[1] in self.leads and cand[2] in self.leads:
                    entry = cand
                    break
            if entry is None:
                break
            _, i, j, k = entry
            self.insert(self.spoly(i, j, k))

    def is_complete(self) -> bool:
        if self.overflow:
            return False
        return not any(
            i in self.leads and j in self.leads for _, i, j, _ in self.deferred
        )

    def basis_polys(self) -> list[Poly]:
        out = []
        for rid in sorted(self.leads, key=lambda r: _deglex_key(self.leads[r])):
            terms = dict(self.tails[rid])
            terms[self.leads[rid]] = 1
            out.append(Poly(terms, _trusted=True))
        return out


def complete(gens, *, degree_bound: int,
             limits: EngineLimits = EngineLimits()) -> GBasis:
    """Complete a generating set into a degree-truncated Groebner basis.

    Ambiguities are processed smallest degree first; those whose overlap
    word exceeds ``degree_bound`` are deferred and, if still relevant when
    the queue empties, mark the basis incomplete.
    """
    gen_list = list(gens)
    if not gen_list:
        raise ValueError("empty generating set")
    for i, g in enumerate(gen_list):
        if g.is_zero():
            raise ValueError(f"generator {i} is zero")
    max_deg = max(g.degree() for g in gen_list)
    if degree_bound < max_deg:
        raise ValueError(
            f"degree bound {degree_bound} below generator degree {max_deg}")
    engine = _Engine(degree_bound, limits)
    engine.run(dict(g.terms) for g in gen_list)
    return GBasis(engine.basis_polys(), degree_bound, engine.is_complete())
