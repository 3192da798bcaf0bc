"""Graph automorphism groups and the disjoint-pair criterion.

A permutation is a tuple of 0-based images.  No group is stored element
by element.  Everything rests on one backtracking search, which maps the
vertices in the order 0, 1, ..., n-1, tries images in increasing order,
prunes by degree and by adjacency with the vertices already mapped, and
so returns the lexicographically first automorphism with some images
forced.  Fixing a point set pointwise forces each of its points to
itself.

|Aut| comes from the stabiliser chain G = G_0 >= G_1 >= ... >= G_n = 1
along the base 0, 1, ..., n-1, where G_i fixes 0..i-1 pointwise: it is
the product of the basic orbit lengths |i^(G_i)|.

Two non-trivial automorphisms with disjoint moved-point sets certify that
the graph has quantum symmetries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph

Permutation = tuple[int, ...]


@dataclass(frozen=True)
class AutGroup:
    """The automorphism group of ``graph``, known by its order."""

    n: int
    graph: Graph
    order: int


class _Search:
    """Backtracking over the vertex maps of one graph."""

    def __init__(self, g: Graph):
        n = g.n
        adj = g.adj
        self.n = n
        self.nbr = [sum(1 << k for k in range(n) if adj[v][k]) for v in range(n)]
        deg = [sum(row) for row in adj]
        self.deg = deg
        self.same_degree = [[j for j in range(n) if deg[j] == deg[v]] for v in range(n)]
        self.earlier_nbrs = [[m for m in range(v) if adj[v][m]] for v in range(n)]

    def first(self, forced: dict[int, int], nonidentity: bool = False,
              prune=None) -> Permutation | None:
        """The lex-first automorphism with ``perm[k] == forced[k]`` for every key.

        With ``nonidentity`` the identity does not count.  ``prune`` is
        called with the bitmask of the points a partial map moves, each
        time that set grows; it returns True to drop every completion.
        """
        return self._extend(0, [0] * self.n, 0, 0, forced, nonidentity, prune)

    def _extend(self, k, images, used, moved, forced, nonidentity, prune):
        if k == self.n:
            return tuple(images) if moved or not nonidentity else None
        # the images of k's earlier neighbours must be exactly the mapped
        # vertices adjacent to k's image
        want = 0
        for m in self.earlier_nbrs[k]:
            want |= 1 << images[m]
        f = forced.get(k)
        if f is None:
            candidates = self.same_degree[k]
        else:
            candidates = (f,) if self.deg[f] == self.deg[k] else ()
        for j in candidates:
            bit = 1 << j
            if used & bit or self.nbr[j] & used != want:
                continue
            grown = moved if j == k else moved | bit | 1 << k
            if grown != moved and prune is not None and prune(grown):
                continue
            images[k] = j
            found = self._extend(k + 1, images, used | bit, grown, forced, nonidentity, prune)
            if found is not None:
                return found
        return None


def _orbit(point: int, gens: list[Permutation]) -> set[int]:
    orbit = {point}
    frontier = [point]
    while frontier:
        v = frontier.pop()
        for s in gens:
            w = s[v]
            if w not in orbit:
                orbit.add(w)
                frontier.append(w)
    return orbit


def automorphism_group(g: Graph) -> AutGroup:
    """|Aut g| as the product of the basic orbit lengths along the base 0..n-1.

    Levels run from the deepest up.  At level i every generator found so
    far fixes 0..i-1, and together they generate G_(i+1) on entry.  Each
    vertex j > i of i's degree that the closed orbit of i does not yet
    reach is searched for; an automorphism fixing 0..i-1 and sending i to
    j becomes a new generator.  On exit the generators reach every image
    of i under G_i, so they generate G_i.
    """
    search = _Search(g)
    gens: list[Permutation] = []
    order = 1
    for i in reversed(range(g.n)):
        fixed = {v: v for v in range(i)}
        orbit = {i}
        for j in search.same_degree[i]:
            if j > i and j not in orbit:
                perm = search.first({**fixed, i: j})
                if perm is not None:
                    gens.append(perm)
                    orbit = _orbit(i, gens)
        order *= len(orbit)
    return AutGroup(g.n, g, order)


def is_automorphism(g: Graph, perm: Permutation) -> bool:
    """Check the commutation of ``perm`` with the adjacency matrix."""
    return all(
        g.adj[perm[i]][perm[j]] == g.adj[i][j]
        for i in range(g.n)
        for j in range(g.n)
    )


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
    search = _Search(group.graph)
    stabiliser: dict[int, Permutation | None] = {}

    def first_fixing(moved: int) -> Permutation | None:
        if moved not in stabiliser:
            fixed = {v: v for v in range(group.n) if moved >> v & 1}
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
