"""The all-pairs commutativity check, as a test oracle.

``all_pairs_check`` reduces every commutator of distinct generators at
every bound, where ``classify._check`` reduces only those of the letters
the basis leaves free.  It deepens the bound the same way and returns a
``CheckResult`` built the same way, so the two must agree field for
field, witness included.
"""

from __future__ import annotations

from qsymgraph.classify import (
    GB_BOUND_STEP,
    GB_START_BOUND,
    CheckResult,
    CheckStatus,
    ClassifyConfig,
    Presentation,
)
from qsymgraph.groebner import complete

from polyring import Poly, degree
from worklist_oracle import ListReducer


def commutators(p: Presentation) -> list[Poly]:
    """All pairwise commutators of distinct generators, deterministic order.

    When only diagonal generators survive, each one is pinned to 1 by its
    row sum, so the algebra is trivially commutative and the list is empty.
    """
    if all(i == j for i, j in p.positions):
        return []
    m = len(p.positions)
    out = []
    for a in range(m):
        for b in range(a + 1, m):
            out.append(Poly({bytes((a, b)): 1, bytes((b, a)): -1}))
    return out


def all_pairs_check(p: Presentation, cfg: ClassifyConfig = ClassifyConfig()) -> CheckResult:
    coms = commutators(p)
    if not coms:
        return CheckResult(CheckStatus.COMMUTATIVE, vacuous=True)
    rel_degree = max(degree(r) for r in p.relations)
    bound = max(min(GB_START_BOUND, cfg.gb_degree_cap), rel_degree)
    last_bound = last_size = None
    while bound <= cfg.gb_degree_cap:
        basis = complete(p.relations, degree_bound=bound, limits=cfg.limits)
        reducer = ListReducer(basis.polys)
        witness = next((c for c in coms if not reducer.normal_form(c).is_zero()), None)
        if witness is None:
            return CheckResult(
                CheckStatus.COMMUTATIVE, degree_bound=bound, basis_size=basis.size)
        if basis.complete:
            return CheckResult(
                CheckStatus.NOT_SHOWN_COMMUTATIVE,
                degree_bound=bound, basis_size=basis.size, witness=witness)
        last_bound, last_size = bound, basis.size
        bound += GB_BOUND_STEP
    return CheckResult(CheckStatus.TRUNCATED, degree_bound=last_bound, basis_size=last_size)
