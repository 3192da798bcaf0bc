"""Relation builders for tests only.

``reference_relations`` builds the relations of ``build_relations`` by
``Poly`` arithmetic, so that the word-level builder can be compared with
it term for term.

``build_relations`` deletes the generators a zero pattern forces.  The
other way to apply a pattern keeps all n^2 generators and pins each
forced one to zero by a relation u_ij; both present the same algebra.
"""

from __future__ import annotations

from qsymgraph.classify import DegenerateAlgebraError, Presentation, build_relations
from qsymgraph.freealg import Generators, Poly
from qsymgraph.fulton import ZeroPattern
from qsymgraph.graphs import Graph


def explicit_zero_relations(g: Graph, pattern: ZeroPattern) -> Presentation:
    """The relations of the all-alive pattern, then one u_ij for each
    forced (i, j) in row-major order."""
    n = g.n
    all_alive = ZeroPattern(n, ((False,) * n,) * n, pattern.max_power_used)
    pres = build_relations(g, all_alive)
    relations = list(pres.relations)
    for i in range(n):
        for j in range(n):
            if pattern.forced_zero[i][j]:
                u = Poly.gen(pres.gens.index(i + 1, j + 1))
                if u not in relations:  # deduplicated, as build_relations does
                    relations.append(u)
    return Presentation(pres.gens, tuple(relations))


def reference_relations(g: Graph, pattern: ZeroPattern) -> Presentation:
    """``build_relations`` by polynomial arithmetic: each relation is a
    product, sum or difference of ``Poly`` generators, deduplicated on its
    set of terms, in the same i, j, k, l order."""
    n = g.n
    positions = pattern.alive()
    alive = set(positions)
    gens = Generators.from_alive(positions)
    flat = {pos: gens.index(pos[0] + 1, pos[1] + 1) for pos in positions}

    relations: list[Poly] = []
    seen: set = set()

    def add(p: Poly):
        # every coefficient is an int, so the term items hash as they are
        k = frozenset(p.terms.items())
        if k not in seen:
            seen.add(k)
            relations.append(p)

    # orthogonality within each row and each column, diagonal cases idempotent
    for i in range(n):
        for j in range(n):
            if (i, j) not in alive:
                continue
            a = flat[(i, j)]
            ga = Poly.gen(a)
            for k in range(n):
                if (i, k) in alive:
                    b = flat[(i, k)]
                    if j == k:
                        add(ga * ga - ga)
                    else:
                        add(ga * Poly.gen(b))
                if (k, j) in alive:
                    b = flat[(k, j)]
                    if i == k:
                        add(ga * ga - ga)
                    else:
                        add(ga * Poly.gen(b))

    # each row and column sums to 1
    for i in range(n):
        row = [flat[(i, k)] for k in range(n) if (i, k) in alive]
        if not row:
            raise DegenerateAlgebraError(f"row {i + 1} has no generators left")
        acc = Poly.zero()
        for b in row:
            acc = acc + Poly.gen(b)
        add(acc - 1)
    for j in range(n):
        col = [flat[(k, j)] for k in range(n) if (k, j) in alive]
        if not col:
            raise DegenerateAlgebraError(f"column {j + 1} has no generators left")
        acc = Poly.zero()
        for b in col:
            acc = acc + Poly.gen(b)
        add(acc - 1)

    # products vanish whenever adjacency disagrees between source and image;
    # u_ik * u_jl for alive (i, k) and (j, l), in i, j, k, l order
    adj = g.adj
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if (i, k) not in alive:
                    continue
                for l in range(n):
                    if (j, l) in alive and adj[k][l] != adj[i][j]:
                        add(Poly.gen(flat[(i, k)]) * Poly.gen(flat[(j, l)]))

    return Presentation(gens, tuple(relations))
