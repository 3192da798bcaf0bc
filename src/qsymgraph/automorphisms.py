"""Graph automorphism groups and the disjoint-pair criterion.

A permutation is a tuple of 0-based images.  Groups are stored as the full
sorted element list; at n <= 8 the orders involved (at most a few thousand)
make generator-based machinery unnecessary.

Two non-trivial automorphisms with disjoint moved-point sets certify that
the graph has quantum symmetries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph

Permutation = tuple[int, ...]


@dataclass(frozen=True)
class AutGroup:
    """All automorphisms of a graph, sorted lexicographically."""

    n: int
    elements: tuple[Permutation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def identity(self) -> Permutation:
        return tuple(range(self.n))


def automorphism_group(g: Graph) -> AutGroup:
    """Backtracking search over partial vertex maps.

    Candidates are pruned by degree and by adjacency consistency with all
    previously assigned vertices.
    """
    n = g.n
    deg = [g.degree(v) for v in range(n)]
    found: list[Permutation] = []
    _extend(0, g.adj, deg, [-1] * n, [False] * n, found)
    return AutGroup(n, tuple(sorted(found)))


def _extend(i: int, adj, deg, images: list[int], used: list[bool],
            found: list[Permutation]) -> None:
    """Append to ``found`` every automorphism agreeing with ``images[:i]``.

    A module-level function rather than a closure: a closure that calls
    itself is a reference cycle, which would keep ``found`` alive until
    the next full garbage collection.
    """
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


def group_order(group: AutGroup) -> int:
    return group.order


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
    """First pair of non-identity, mutually disjoint elements in scan order."""
    ident = group.identity()
    elems = group.elements
    for a in range(len(elems)):
        s = elems[a]
        if s == ident:
            continue
        for b in range(a + 1, len(elems)):
            t = elems[b]
            if t == ident:
                continue
            if are_disjoint(s, t):
                return s, t
    return None


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
