"""Backtracking search for graph automorphisms, on neighbour bitmasks.

A permutation is a tuple of 0-based images.  One backtracking search
maps the vertices in the order 0, 1, ..., n-1, tries images in
increasing order, prunes by degree and by adjacency with the vertices
already mapped, and so returns the lexicographically first automorphism
with some images forced.  Fixing a point set pointwise forces each of
its points to itself.

A graph is given by its neighbour bitmasks: bit j of ``nbr[i]`` is set
when i and j are adjacent.  This module imports nothing from the
package, so both ``graphs`` (enumeration) and ``automorphisms`` (group
orders, disjoint pairs) can rest on it.
"""

from __future__ import annotations

Permutation = tuple[int, ...]


class Search:
    """Backtracking over the vertex maps of one graph."""

    def __init__(self, nbr: list[int]):
        n = len(nbr)
        self.n = n
        self.nbr = nbr
        deg = [x.bit_count() for x in nbr]
        self.deg = deg
        self.same_degree = [[j for j in range(n) if deg[j] == deg[v]] for v in range(n)]
        self.earlier_nbrs = [[m for m in range(v) if nbr[v] >> m & 1] for v in range(n)]

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


def orbit(point: int, gens) -> set[int]:
    """The orbit of ``point`` under the group the permutations ``gens``
    generate; each is a sequence of images."""
    reached = {point}
    frontier = [point]
    while frontier:
        v = frontier.pop()
        for s in gens:
            w = s[v]
            if w not in reached:
                reached.add(w)
                frontier.append(w)
    return reached


def generators(search: Search) -> tuple[list[Permutation], int]:
    """Generators of the automorphism group, and its order.

    The order is the product of the basic orbit lengths |i^(G_i)| along
    the stabiliser chain G = G_0 >= G_1 >= ... >= G_n = 1 with base
    0, 1, ..., n-1, where G_i fixes 0..i-1 pointwise.  Levels run from
    the deepest up.  At level i every generator found so far fixes
    0..i-1, and together they generate G_(i+1) on entry.  Each vertex
    j > i of i's degree that the closed orbit of i does not yet reach is
    searched for; an automorphism fixing 0..i-1 and sending i to j
    becomes a new generator.  On exit the generators reach every image
    of i under G_i, so they generate G_i.
    """
    gens: list[Permutation] = []
    order = 1
    for i in reversed(range(search.n)):
        fixed = {v: v for v in range(i)}
        basic = {i}
        for j in search.same_degree[i]:
            if j > i and j not in basic:
                perm = search.first({**fixed, i: j})
                if perm is not None:
                    gens.append(perm)
                    basic = orbit(i, gens)
        order *= len(basic)
    return gens, order
