"""Two-sided Groebner bases in the free algebra, degree truncated.

Words are ``bytes`` of generator indices; concatenation is multiplication
and the empty word is the unit.  Letter a stands for u at the 0-based
``positions[a]`` of a ``classify.Presentation``, ordered row-major so
that byte order equals generator precedence.  A polynomial is a term
dict: a map from words to nonzero exact coefficients, ``int`` where
possible and ``fractions.Fraction`` after non-integral division.  No
floating point anywhere.

The one word order is deglex: degree first, then letters left to right.
It is admissible (total, multiplicative, 1 minimal), which is all the
completion machinery needs.

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

Word = bytes

EMPTY_WORD: Word = b""


def _deglex_key(w: Word):
    """Sort key of the deglex order."""
    return (len(w), w)


def exact_div(c, d):
    """Exact coefficient division, staying in ``int`` when it divides evenly."""
    if isinstance(c, int) and isinstance(d, int):
        q, r = divmod(c, d)
        if r == 0:
            return q
    q = Fraction(c) / Fraction(d)
    return q.numerator if q.denominator == 1 else q


class ResourceCapError(RuntimeError):
    """A configured engine cap was exceeded; distinct from degree truncation."""


@dataclass(frozen=True)
class EngineLimits:
    """Hard caps that abort completion loudly instead of silently truncating."""

    max_basis: int = 20000
    max_terms: int = 2_000_000


def _subwords(w: Word) -> set[Word]:
    return {w[i:j] for i in range(len(w)) for j in range(i + 1, len(w) + 1)}


def _discard(index: dict, key: Word, rid: int) -> None:
    bucket = index[key]
    bucket.discard(rid)
    if not bucket:
        del index[key]


class GBasis:
    """A degree-truncated Groebner basis, as ``complete`` returns it: the
    rewriting system that completed it.  Its live rules are kept by rule
    id in ``leads`` and ``tails``, with the word normal forms they give.

    Every insert interreduces, truncated or not, and an element over the
    bound takes no rule.  So no live lead is a subword of another, at
    most one matches at any position of a word, and none is longer than
    the bound.  ``find`` looks up, at each position, the slice of every
    length up to the bound in ``by_lead``; the first hit at the leftmost
    reducible position rewrites, and which rule that is does not depend
    on the order the rules came in.  The unit rule, whose lead is the
    empty word, reduces everything to 0.

    Which rule rewrites a word depends on the word alone, so reduction is
    linear: nf(f) is the sum of c * N(w) over the terms c*w of f, where
    N(w) is the normal form of the word w.  Reduction keeps every N(w) it
    meets in ``word_nf``; ``users`` lists, for each entry, the entries
    built from it, and ``rewrote``, for each rule, the entries it
    rewrote.  ``_add`` forgets the entries whose word contains the new
    lead, and with them every entry built from one; that covers every
    entry a retired rule rewrote, since a rule is retired only when the
    new lead divides its lead.  A rewritten tail forgets the entries its
    rule rewrote.  So ``word_nf`` always holds what the live rules give.

    No memo word is longer than ``memo_len``: each tail word is below its
    lead in deglex, so no part of a rewrite is longer than the word
    rewritten, and ``_word_nf`` raises the bound to the length of the
    word it starts on.  A word no longer than the new lead contains it
    only if it is the lead, so ``_add`` scans the memo only while
    ``memo_len`` exceeds the lead's length, and otherwise forgets the
    lead's own entry and the entries built from it.

    The engine writes no dict it was handed: reduction builds new dicts,
    and a retired rule's dict, which goes back on the queue, is one the
    engine built.  So ``run`` keeps the generators' term dicts as they
    are, without a copy.

    Beside ``by_lead`` the basis indexes every live lead by its proper
    prefixes and suffixes, to find overlaps, and every word of every
    live rule, lead and tail words alike, by its subwords in ``sub``,
    counting for each rule how many of its words contain the subword.
    The bucket of a new lead holds the rules it retires and the rules
    whose tails it reduces.
    """

    def __init__(self, bound: int, limits: EngineLimits):
        self.bound = bound
        self.limits = limits
        self.leads: dict[int, Word] = {}
        self.tails: dict[int, dict] = {}
        self.by_lead: dict[Word, int] = {}  # lead -> rule id
        self.word_nf: dict[Word, dict] = {}
        self.memo_len = 0  # no key of word_nf is longer
        # entry -> entries built from it; rule id -> entries it rewrote
        self.users: defaultdict[Word, list[Word]] = defaultdict(list)
        self.rewrote: defaultdict[int, list[Word]] = defaultdict(list)
        self.prefix: defaultdict[Word, set[int]] = defaultdict(set)
        self.suffix: defaultdict[Word, set[int]] = defaultdict(set)
        self.sub: defaultdict[Word, dict[int, int]] = defaultdict(dict)
        self.heap: list[tuple[int, int, int, int]] = []
        self.deferred: list[tuple[int, int, int, int]] = []
        self.pending: deque = deque()
        self.next_rid = 0
        self.term_count = 0
        self.overflow = False

    def _add(self, rid: int, lead: Word, tail: dict) -> None:
        if self.memo_len > len(lead):
            self._forget([w for w in self.word_nf if lead in w])
        else:
            self._forget((lead,))
        self.leads[rid] = lead
        self.tails[rid] = tail
        self.by_lead[lead] = rid
        for k in range(1, len(lead)):
            self.prefix[lead[:k]].add(rid)
            self.suffix[lead[-k:]].add(rid)
        self._count_words(rid, [lead, *tail], 1)

    def _drop(self, rid: int) -> tuple[Word, dict]:
        """Undo ``_add``, except that the entries the rule rewrote stay
        until the next ``_add`` forgets them; return its lead and tail."""
        self.rewrote.pop(rid, None)
        lead = self.leads.pop(rid)
        tail = self.tails.pop(rid)
        del self.by_lead[lead]
        for k in range(1, len(lead)):
            _discard(self.prefix, lead[:k], rid)
            _discard(self.suffix, lead[-k:], rid)
        self._count_words(rid, [lead, *tail], -1)
        return lead, tail

    def _count_words(self, rid: int, words, step: int) -> None:
        """Add ``step`` to the count of ``rid`` under every subword of
        each of ``words``."""
        sub = self.sub
        for w in words:
            for key in _subwords(w):
                bucket = sub[key]
                count = bucket.get(rid, 0) + step
                if count:
                    bucket[rid] = count
                else:
                    del bucket[rid]
                    if not bucket:
                        del sub[key]

    def _forget(self, words) -> None:
        """Drop ``words`` from ``word_nf``, and every entry built from a
        dropped one."""
        memo = self.word_nf
        users = self.users
        stack = list(words)
        while stack:
            v = stack.pop()
            if memo.pop(v, None) is not None:
                stack.extend(users.pop(v, ()))

    def find(self, w: Word):
        """(rule id, position, lead) of the rewrite at the leftmost
        reducible position of ``w``; None if irreducible."""
        by_lead = self.by_lead
        unit = by_lead.get(EMPTY_WORD)
        if unit is not None:
            return unit, 0, EMPTY_WORD
        sizes = range(1, self.bound + 1)
        n = len(w)
        for pos in range(n):
            for size in sizes:
                end = pos + size
                if end > n:
                    break
                rid = by_lead.get(w[pos:end])
                if rid is not None:
                    return rid, pos, self.leads[rid]
        return None

    def normal_form(self, f: dict) -> dict:
        """Normal form of the term dict ``f`` by the current rules."""
        return self._reduce(f)

    def _reduce(self, terms: dict) -> dict:
        """Normal form of a term dict: the sum of c * N(w) over its terms,
        dropping zeros and folding integral Fractions to int."""
        memo = self.word_nf
        out: dict = {}
        for w, c in terms.items():
            nf = memo.get(w)
            if nf is None:
                nf = self._word_nf(w)
            for u, uc in nf.items():
                acc = out.get(u, 0) + c * uc
                if acc:
                    if type(acc) is Fraction and acc.denominator == 1:
                        acc = acc.numerator
                    out[u] = acc
                else:
                    out.pop(u, None)
        return out

    def _word_nf(self, w: Word) -> dict:
        """N(w), built bottom-up on an explicit stack and kept in ``word_nf``.

        A reducible word waits on the stack until the normal forms of the
        words its rewrite produces are known; those are strictly smaller,
        so the stack empties.
        """
        if len(w) > self.memo_len:
            self.memo_len = len(w)
        memo = self.word_nf
        users = self.users
        rewrote = self.rewrote
        find = self.find
        tails = self.tails
        waiting: dict[Word, tuple] = {}  # word -> (rule id, [(rewritten word, coeff), ...])
        stack = [w]
        while stack:
            v = stack[-1]
            if v in memo:
                stack.pop()
                continue
            entry = waiting.pop(v, None)
            if entry is None:
                hit = find(v)
                if hit is None:
                    memo[v] = {v: 1}
                    stack.pop()
                    continue
                rid, pos, lead = hit
                a = v[:pos]
                b = v[pos + len(lead):]
                parts = []
                depth = len(stack)
                for tw, tc in tails[rid].items():
                    u = a + tw + b
                    parts.append((u, tc))
                    if u not in memo:
                        stack.append(u)
                if len(stack) > depth:
                    waiting[v] = rid, parts
                    continue
            else:
                rid, parts = entry
            stack.pop()
            out: dict = {}  # - sum tc * N(u), as in _reduce
            for u, tc in parts:
                nf = memo[u]
                if nf:
                    for x, xc in nf.items():
                        acc = out.get(x, 0) - tc * xc
                        if acc:
                            if type(acc) is Fraction and acc.denominator == 1:
                                acc = acc.numerator
                            out[x] = acc
                        else:
                            out.pop(x, None)
                users[u].append(v)
            memo[v] = out
            rewrote[rid].append(v)
        return memo[w]

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
        # the live rules with a word that contains the new lead (all of
        # them when 1 enters the ideal: the empty word divides every lead)
        hits = sorted(self.sub.get(lw, ()) if lw else self.leads)
        # interreduction, step 1: retire those whose lead the new lead
        # divides; under a unit rule they reduce to 0
        for s in hits:
            if lw in self.leads[s]:
                lead, full = self._drop(s)
                full[lead] = 1
                self.term_count -= len(full)
                self.pending.append(full)
        self._add(rid, lw, nf)
        self.term_count += len(nf) + 1
        if len(self.leads) > self.limits.max_basis:
            raise ResourceCapError(
                f"basis size cap exceeded ({self.limits.max_basis})")
        if self.term_count > self.limits.max_terms:
            raise ResourceCapError(
                f"total term cap exceeded ({self.limits.max_terms})")
        # interreduction, step 2: re-reduce the tails of the others (the
        # new element is not among them: its tail words are smaller)
        for s in hits:
            tail = self.tails.get(s)
            if tail is None:  # retired in step 1
                continue
            new_tail = self._reduce(tail)
            self.tails[s] = new_tail
            # entries that rule s rewrote were built from its old tail
            self._forget(self.rewrote.pop(s, ()))
            self.term_count += len(new_tail) - len(tail)
            self._count_words(s, [w for w in tail if w not in new_tail], -1)
            self._count_words(s, [w for w in new_tail if w not in tail], 1)
        # an ambiguity of two rules without tails has S-polynomial 0, and
        # an empty tail stays empty, so only one over the bound is kept
        leads, tails = self.leads, self.tails
        for i, j, k in self._overlaps(rid):
            entry = (len(leads[i]) + len(leads[j]) - k, i, j, k)
            if entry[0] > self.bound:
                self.deferred.append(entry)
            elif tails[i] or tails[j]:
                heapq.heappush(self.heap, entry)

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

    def run(self, gens) -> None:
        """Complete the generators, term dicts that must be nonzero and
        no longer than the bound: first those of degree <= 1, then the
        others, in a stable order by the most letters that lead a
        degree-1 rule in one of their words, fewest first.

        A linear relation that came after the products its lead divides
        would retire them, and they would be reduced a second time.  A
        degree-1 rule rewrites its letter into a linear form over the
        free letters, so relations on free letters go first, and those
        forms multiply out against rules that already exist.
        """
        linear, rest = [], []
        max_deg = -1
        for i, terms in enumerate(gens):
            if not terms:
                raise ValueError(f"generator {i} is zero")
            deg = max(map(len, terms))
            if deg > max_deg:
                max_deg = deg
            (linear if deg <= 1 else rest).append(terms)
        if max_deg < 0:
            raise ValueError("empty generating set")
        if self.bound < max_deg:
            raise ValueError(
                f"degree bound {self.bound} below generator degree {max_deg}")
        self.pending.extend(linear)
        self._drain()
        dead = bytes({lead[0] for lead in self.leads.values() if len(lead) == 1})
        rest.sort(key=lambda t: max(len(w) - len(w.translate(None, dead)) for w in t))
        self.pending.extend(rest)
        self._drain()

    def _drain(self) -> None:
        """Insert every pending element and S-polynomial, smallest
        ambiguity first."""
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

    @property
    def complete(self) -> bool:
        if self.overflow:
            return False
        return not any(
            i in self.leads and j in self.leads for _, i, j, _ in self.deferred
        )

    @property
    def size(self) -> int:
        return len(self.leads)

    @property
    def polys(self) -> list[dict]:
        """The live rules as monic term dicts, in deglex order of lead."""
        leads, tails = self.leads, self.tails
        return [{**tails[r], leads[r]: 1}
                for r in sorted(leads, key=lambda r: _deglex_key(leads[r]))]


Reducer = GBasis  # the name perfbench/tracing.py probes normal_form under


def complete(gens, *, degree_bound: int,
             limits: EngineLimits = EngineLimits()) -> GBasis:
    """The degree-truncated Groebner basis of a generating set, as the
    rewriting system that completed it.

    Ambiguities are processed smallest degree first; those whose overlap
    word exceeds ``degree_bound`` are deferred and, if still relevant when
    the queue empties, mark the basis incomplete.  The generators' term
    dicts are read, never copied or written.
    """
    basis = GBasis(degree_bound, limits)
    basis.run(gens)
    return basis
