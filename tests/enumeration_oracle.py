"""Brute-force canonical forms and enumeration, for tests only.

The canonical mask is the minimum over all n! relabelings of the edge
mask.  The orbit sweep enumerates by sweeping every edge subset in mask
order and marking the whole isomorphism orbit of each new connected
graph, so the first unmarked connected mask of each class is its minimal
one.  Both are exponential in n and meant for n <= 8 (canonical form)
and n <= 7 (orbit sweep, about 10 s at n = 7).

The every-child enumeration is the package's routine before generation
by canonical deletion: it takes the canonical form of every child and
removes duplicates with one global set (about 0.1 s at n = 7, 2 s at
n = 8).

The long forms of the enumeration's shortcuts are the canonical-deletion
rule with every tie labelled, and the degree bound on a parent's
neighbourhoods as a test of one neighbourhood, from a plain search for
the non-cut vertices.
"""

from __future__ import annotations

import functools
import itertools

from qsymgraph import Graph
from qsymgraph.graphs import _canonical_labelling


@functools.lru_cache(maxsize=None)
def _perm_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """For each permutation, the mask-bit image of every upper-triangle pair."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    k = len(pairs)
    pos = {pair: p for p, pair in enumerate(pairs)}
    tables = []
    for perm in itertools.permutations(range(n)):
        tab = []
        for i, j in pairs:
            a, b = sorted((perm[i], perm[j]))
            tab.append(1 << (k - 1 - pos[(a, b)]))
        tables.append(tuple(tab))
    return tuple(tables)


def _remap(mask: int, table: tuple[int, ...], k: int) -> int:
    out = 0
    while mask:
        b = mask & -mask
        out |= table[k - b.bit_length()]
        mask ^= b
    return out


def _mask_connected(mask: int, n: int) -> bool:
    nbr = [0] * n
    k = n * (n - 1) // 2
    p = 0
    for i in range(n):
        for j in range(i + 1, n):
            if mask >> (k - 1 - p) & 1:
                nbr[i] |= 1 << j
                nbr[j] |= 1 << i
            p += 1
    reach = frontier = 1
    while frontier:
        nxt = 0
        for v in range(n):
            if frontier >> v & 1:
                nxt |= nbr[v]
        frontier = nxt & ~reach
        reach |= frontier
    return reach == (1 << n) - 1


def brute_force_canonical_mask(g: Graph) -> int:
    """Least edge mask over all n! relabelings of ``g``."""
    k = g.n * (g.n - 1) // 2
    mask = g.mask()
    return min(_remap(mask, table, k) for table in _perm_tables(g.n))


def orbit_sweep_masks(n: int) -> list[int]:
    """Minimal mask of every connected class on n vertices, ascending."""
    if n == 1:
        return [0]
    k = n * (n - 1) // 2
    tables = _perm_tables(n)
    seen = bytearray(1 << k)
    out = []
    for mask in range(1 << k):
        if seen[mask] or not _mask_connected(mask, n):
            continue
        for table in tables:
            seen[_remap(mask, table, k)] = 1
        out.append(mask)
    return out


def all_children_masks(n: int) -> list[int]:
    """Minimal mask of every connected class on n vertices, ascending.

    Removing a leaf of a spanning tree leaves a connected graph, so every
    connected graph is a smaller representative plus a new vertex with a
    non-empty neighbourhood; every such child is put in canonical form.
    """
    if n == 1:
        return [0]
    new = 1 << (n - 1)
    found = set()
    for m in all_children_masks(n - 1):
        base = Graph.from_mask(n - 1, m).nbr
        for hood in range(1, new):
            nbr = [x | new if hood >> i & 1 else x for i, x in enumerate(base)]
            nbr.append(hood)
            found.add(_canonical_labelling(nbr)[0])
    return sorted(found)


def _non_cut(nbr, w: int) -> bool:
    """Whether deleting w leaves the other vertices connected (or none)."""
    rest = [u for u in range(len(nbr)) if u != w]
    if not rest:
        return True
    reached = {rest[0]}
    stack = [rest[0]]
    while stack:
        u = stack.pop()
        for x in rest:
            if nbr[u] >> x & 1 and x not in reached:
                reached.add(x)
                stack.append(x)
    return len(reached) == len(rest)


def degree_bound_keeps(base, hood: int) -> bool:
    """Whether the degree bound keeps the neighbourhood bitmask ``hood`` of
    a new vertex on the parent ``base``: with m the least degree of a
    non-cut vertex of the parent, ``hood`` has at most m vertices, or m + 1
    that include every non-cut vertex of degree m."""
    degrees = {w: bin(base[w]).count("1") for w in range(len(base)) if _non_cut(base, w)}
    m = min(degrees.values())
    size = bin(hood).count("1")
    return size <= m or size == m + 1 and all(hood >> w & 1 for w, d in degrees.items() if d == m)


def deletes_canonically_labelling_every_tie(nbr, parent: int) -> bool:
    """The canonical-deletion rule for the last vertex v of the connected
    graph ``nbr``, where deleting v leaves the canonical mask ``parent``:
    v has the least (degree, sorted neighbour degrees) among the non-cut
    vertices, and every other non-cut vertex of that invariant leaves a
    canonical mask of at least ``parent`` when deleted."""
    n = len(nbr)
    v = n - 1
    deg = [bin(x).count("1") for x in nbr]

    def invariant(w):
        return deg[w], sorted(deg[u] for u in range(n) if nbr[w] >> u & 1)

    non_cut = [w for w in range(n) if _non_cut(nbr, w)]
    least = min(invariant(w) for w in non_cut)
    if invariant(v) != least:
        return False
    for w in non_cut:
        if w != v and invariant(w) == least:
            rest = [u for u in range(n) if u != w]
            minor = [sum(1 << p for p, x in enumerate(rest) if nbr[u] >> x & 1) for u in rest]
            if _canonical_labelling(minor)[0] < parent:
                return False
    return True
