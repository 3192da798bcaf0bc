"""Forced zeros as explicit relations, for tests only.

``build_relations`` deletes the generators a zero pattern forces.  The
other way to apply a pattern keeps all n^2 generators and pins each
forced one to zero by a relation u_ij; both present the same algebra.
"""

from __future__ import annotations

from qsymgraph.classify import Presentation, build_relations
from qsymgraph.freealg import Poly
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
            if pattern.is_forced(i, j):
                u = Poly.gen(pres.gens.index(i + 1, j + 1))
                if u not in relations:  # deduplicated, as build_relations does
                    relations.append(u)
    return Presentation(pres.gens, tuple(relations))
