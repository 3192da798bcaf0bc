"""All-pairs obstruction search and random rewriting, for tests only.

The completion engine finds overlaps through prefix and suffix indexes
of the live leads.  This oracle re-derives them the direct way, by
trying every ordered pair of leads and every overlap length, and also
lists containments, which the engine handles by interreduction.

``random_normal_form`` rewrites at a randomly chosen term and occurrence
at every step, where the reference ``worklist_oracle.ListReducer`` always
rewrites at the leftmost position by the lowest rule id; on a complete
basis both must end at the same normal form.
"""

from __future__ import annotations

from dataclasses import dataclass

from qsymgraph.groebner import GBasis, Word

from polyring import Poly, leading_term


@dataclass(frozen=True)
class Obstruction:
    """Ambiguity word in which two leading words overlap.

    ``word[left_shift:]`` starts with the left leading word and
    ``word[right_shift:]`` with the right one; for proper overlaps
    ``left_shift`` is 0, for containments the whole left lead is the word.
    """

    left: int
    right: int
    left_shift: int
    right_shift: int
    word: Word

    @property
    def degree(self) -> int:
        return len(self.word)


def proper_overlaps(left_lead: Word, right_lead: Word):
    """Overlap lengths k where a proper suffix of left equals a proper prefix of right."""
    top = min(len(left_lead), len(right_lead))
    for k in range(1, top):
        if left_lead[-k:] == right_lead[:k]:
            yield k


def find_obstructions(basis) -> list[Obstruction]:
    """All minimal ambiguities among leading words, containments included."""
    polys = basis.polys if isinstance(basis, GBasis) else list(basis)
    leads = [leading_term(p)[0] for p in polys]
    return obstructions_of_leads(leads)


def obstructions_of_leads(leads: list[Word]) -> list[Obstruction]:
    found: list[Obstruction] = []
    for i, a in enumerate(leads):
        for k in proper_overlaps(a, a):
            found.append(Obstruction(i, i, 0, len(a) - k, a + a[k:]))
        for j, b in enumerate(leads):
            if i == j:
                continue
            for k in proper_overlaps(a, b):
                found.append(Obstruction(i, j, 0, len(a) - k, a + b[k:]))
            if len(b) < len(a) or (len(b) == len(a) and i < j):
                start = 0
                while True:
                    pos = a.find(b, start)
                    if pos < 0:
                        break
                    found.append(Obstruction(i, j, 0, pos, a))
                    start = pos + 1
    found.sort(key=lambda o: (len(o.word), o.left, o.right, o.right_shift))
    return found


def random_normal_form(f: Poly, polys, rng) -> Poly:
    """Rewrite ``f`` by the monic ``polys`` until no leading word divides
    any of its words, each time at a term, a rule and a position drawn
    by ``rng`` among all that match, with plain ``Poly`` arithmetic."""
    rules = [(leading_term(p)[0], p) for p in polys]
    while True:
        hits = [
            (w, pos, lead, p)
            for w in sorted(f, key=lambda w: (len(w), w))  # deglex
            for lead, p in rules
            for pos in range(len(w) - len(lead) + 1)
            if w.startswith(lead, pos)
        ]
        if not hits:
            return f
        w, pos, lead, p = hits[rng.randrange(len(hits))]
        left = Poly.term(w[:pos], f[w])
        right = Poly.term(w[pos + len(lead):], 1)
        f = f - left * p * right
