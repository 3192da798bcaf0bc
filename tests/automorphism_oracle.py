"""Automorphism groups as full sorted element lists, for tests only.

``elements`` lists every automorphism by backtracking over partial vertex
maps, pruned by degree and by adjacency with the vertices already
mapped; ``disjoint_pair`` scans the sorted list pairwise.  Both grow with
|Aut| (n! tuples for K_n) and are meant for n <= 7.  ``is_automorphism``
checks one permutation against the adjacency matrix.
"""

from __future__ import annotations

from qsymgraph import Graph
from qsymgraph.automorphisms import Permutation

from walk_oracle import adjacency


def elements(g: Graph) -> tuple[Permutation, ...]:
    """Every automorphism of ``g``, sorted lexicographically."""
    n = g.n
    adj = adjacency(g)
    deg = [sum(row) for row in adj]
    found: list[Permutation] = []
    _extend(0, adj, deg, [-1] * n, [False] * n, found)
    return tuple(sorted(found))


def _extend(i: int, adj, deg, images: list[int], used: list[bool],
            found: list[Permutation]) -> None:
    """Append to ``found`` every automorphism agreeing with ``images[:i]``."""
    n = len(adj)
    if i == n:
        found.append(tuple(images))
        return
    row_i = adj[i]
    for j in range(n):
        if used[j] or deg[j] != deg[i]:
            continue
        row_j = adj[j]
        if all(row_i[k] == row_j[images[k]] for k in range(i)):
            images[i] = j
            used[j] = True
            _extend(i + 1, adj, deg, images, used, found)
            used[j] = False
    images[i] = -1


def is_automorphism(g: Graph, perm: Permutation) -> bool:
    """Whether the permutation ``perm`` commutes with the adjacency matrix."""
    adj = adjacency(g)
    return all(adj[perm[i]][perm[j]] == adj[i][j] for i in range(g.n) for j in range(g.n))


def disjoint_pair(elems: tuple[Permutation, ...]) -> tuple[Permutation, Permutation] | None:
    """First pair of non-identity elements with disjoint supports in scan order."""
    ident = tuple(range(len(elems[0])))
    supports = [frozenset(i for i, img in enumerate(s) if img != i) for s in elems]
    for a, s in enumerate(elems):
        if s == ident:
            continue
        for b in range(a + 1, len(elems)):
            if elems[b] != ident and not supports[a] & supports[b]:
                return s, elems[b]
    return None


def order_and_pair(g: Graph) -> tuple[int, tuple[Permutation, Permutation] | None]:
    """|Aut g| and the disjoint pair, both read off the element list."""
    elems = elements(g)
    return len(elems), disjoint_pair(elems)
