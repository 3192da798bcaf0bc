"""Graph automorphism groups and the disjoint-pair criterion.

A permutation is a tuple of 0-based images.  No group is stored element
by element.  Everything rests on ``graphs.Search``, which returns the
lexicographically first automorphism with some images forced, and an
:class:`AutGroup` keeps the one it was computed with.

|Aut| comes from the stabiliser chain G = G_0 >= G_1 >= ... >= G_n = 1
along the base 0, 1, ..., n-1, where G_i fixes 0..i-1 pointwise: it is
the product of the basic orbit lengths |i^(G_i)|.

Two non-trivial automorphisms with disjoint moved-point sets certify that
the graph has quantum symmetries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, Permutation, Search, generators


@dataclass(frozen=True)
class AutGroup:
    """The automorphism group of a graph, known by its order and its
    number of orbits, and searched with ``search``."""

    search: Search
    order: int
    orbits: int


def automorphism_group(g: Graph) -> AutGroup:
    """|Aut g| as the product of the basic orbit lengths along the base 0..n-1."""
    search = Search(g.nbr)
    _, order, orbits = generators(search)
    return AutGroup(search, order, orbits)


def is_automorphism(g: Graph, perm: Permutation) -> bool:
    """Whether ``perm`` permutes the vertices and maps the neighbours of
    each vertex i onto the neighbours of perm[i]."""
    nbr = g.nbr
    if sorted(perm) != list(range(g.n)):
        return False
    # a fixed point's bit maps to itself, so only the moved bits of a row
    # are mapped one by one
    fixed = sum(1 << v for v, img in enumerate(perm) if img == v)
    for i, x in enumerate(nbr):
        image = x & fixed
        x &= ~fixed
        while x:
            low = x & -x
            image |= 1 << perm[low.bit_length() - 1]
            x ^= low
        if image != nbr[perm[i]]:
            return False
    return True


def moved_points(perm: Permutation) -> frozenset[int]:
    return frozenset(i for i, img in enumerate(perm) if img != i)


def are_disjoint(s: Permutation, t: Permutation) -> bool:
    """True iff the moved-point sets of ``s`` and ``t`` are disjoint."""
    if len(s) != len(t):
        raise ValueError("permutation degree mismatch")
    return not (moved_points(s) & moved_points(t))


def find_disjoint_pair(group: AutGroup) -> tuple[Permutation, Permutation] | None:
    """The first disjoint pair a scan over the sorted elements would meet.

    The scan takes each non-identity s in lex order and pairs it with the
    first non-identity t after it whose support is disjoint.  An element
    t is disjoint from s exactly when it fixes the support of s
    pointwise.  So s is the lex-first non-identity automorphism whose
    support has a non-trivial pointwise stabiliser, and t is the
    lex-first non-identity element of that stabiliser: a partner of s
    that sorted before s would have been the scan's s.  The search for s
    drops a partial map as soon as the points it moves have a trivial
    pointwise stabiliser, since every completion moves those points and
    more.
    """
    # two disjoint non-identity elements generate a subgroup of order >= 4
    if group.order < 4:
        return None
    search = group.search
    stabiliser: dict[int, Permutation | None] = {}

    def first_fixing(moved: int) -> Permutation | None:
        if moved not in stabiliser:
            fixed = {v: v for v in range(search.n) if moved >> v & 1}
            stabiliser[moved] = search.first(fixed, nonidentity=True)
        return stabiliser[moved]

    s = search.first({}, nonidentity=True, prune=lambda moved: first_fixing(moved) is None)
    if s is None:
        return None
    support = sum(1 << v for v in moved_points(s))
    return s, first_fixing(support)


def cycle_notation(perm: Permutation) -> str:
    """Render in 1-based cycle notation, e.g. "(1,2)(3,4)"; identity is "()"."""
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        v = perm[start]
        while v != start:
            cycle.append(v)
            seen[v] = True
            v = perm[v]
        parts.append("(" + ",".join(str(v + 1) for v in cycle) + ")")
    return "".join(parts) if parts else "()"
