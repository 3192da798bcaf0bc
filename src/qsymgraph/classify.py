"""Quantum-symmetry classification of a graph.

The decision combines two one-sided criteria:

* a pair of non-trivial disjoint automorphisms proves the graph HAS
  quantum symmetries;
* commutativity of the universal algebra presented by the magic-unitary
  relations (orthogonality within rows and columns, row and column sums
  equal to 1, and vanishing products forced by adjacency mismatches)
  proves it has NONE.

Walk-count zero patterns shrink the presentation before the Groebner
engine runs: forced generators are deleted from the presentation.  The
engine also gets the linear relations of uA = Au that the presentation
implies (``linear_consequences``), which leave the ideal as it is.

If neither criterion fires the graph stays Undecided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .automorphisms import (
    Permutation,
    are_disjoint,
    automorphism_group,
    find_disjoint_pair,
    is_automorphism,
)
from .freealg import Generators, Poly
from .fulton import ZeroPattern, zero_pattern
from .graphs import Graph
from .groebner import EngineLimits, Reducer, complete


class DegenerateAlgebraError(ValueError):
    """A row or column lost all generators, so the algebra collapses to zero."""


@dataclass(frozen=True)
class Presentation:
    """Relation ideal of the universal algebra over the surviving generators."""

    gens: Generators
    relations: tuple[Poly, ...]


class CheckStatus(Enum):
    COMMUTATIVE = "commutative"
    NOT_SHOWN_COMMUTATIVE = "not_shown_commutative"
    TRUNCATED = "truncated"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of the commutativity check, with machine-checkable context."""

    status: CheckStatus
    commutator_count: int
    degree_bound: int | None = None
    basis_size: int | None = None
    witness: Poly | None = None
    vacuous: bool = False


class VerdictKind(Enum):
    QUANTUM_SYMMETRIC = "QuantumSymmetric"
    NOT_QUANTUM_SYMMETRIC = "NotQuantumSymmetric"
    UNDECIDED = "Undecided"


# The algebra check tries truncation degrees GB_START_BOUND,
# GB_START_BOUND + GB_BOUND_STEP, ... up to the configured cap.
GB_START_BOUND = 4
GB_BOUND_STEP = 2


@dataclass(frozen=True)
class ClassifyConfig:
    gb_degree_cap: int = 12
    limits: EngineLimits = field(default_factory=EngineLimits)

    def __post_init__(self):
        # every presentation has degree-2 relations (the idempotents)
        if self.gb_degree_cap < 2:
            raise ValueError("gb_degree_cap must be >= 2")


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    aut_order: int
    disjoint_pair: tuple[Permutation, Permutation] | None = None
    algebra: CheckResult | None = None
    pattern: ZeroPattern | None = None  # None when the algebra check did not run

    @property
    def qsym_output(self) -> int | None:
        """1 if the algebra was shown commutative, 0 if shown not, else None."""
        if self.algebra is None:
            return None
        if self.algebra.status is CheckStatus.COMMUTATIVE:
            return 1
        if self.algebra.status is CheckStatus.NOT_SHOWN_COMMUTATIVE:
            return 0
        return None


def build_relations(g: Graph, pattern: ZeroPattern) -> Presentation:
    """Emit the defining relations over the generators the pattern leaves alive.

    Forced generators are removed from the presentation: products
    containing them vanish, sums simply omit them.  The relation list is
    deduplicated structurally.  Relations are built straight from words
    of generator indices, without polynomial arithmetic.
    """
    n = g.n
    positions = pattern.alive()
    gens = Generators.from_alive(positions)
    # alive (column, index) pairs per row; row_at[i][k] and col_at[j][k]
    # are the indices at (i, k) and (k, j), or -1 where forced
    alive_rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    row_at = [[-1] * n for _ in range(n)]
    col_at = [[-1] * n for _ in range(n)]
    for a, (i, j) in enumerate(positions):  # row-major, as the table is
        alive_rows[i].append((j, a))
        row_at[i][j] = col_at[j][i] = a

    relations: list[Poly] = []
    seen: set[bytes] = set()  # the product words emitted so far

    # orthogonality within each row and each column: for u_ij and each k,
    # u_ij * u_ik, then u_ij * u_kj; these words are pairwise distinct, and
    # u_ij meets itself twice (k = j, then k = i) for one idempotent relation
    for i in range(n):
        ri = row_at[i]
        for j, a in alive_rows[i]:
            idempotent = False
            for b in [b for pair in zip(ri, col_at[j]) for b in pair if b >= 0]:
                if b != a:
                    w = bytes((a, b))
                    seen.add(w)
                    relations.append(Poly({w: 1}, _trusted=True))
                elif not idempotent:
                    idempotent = True
                    relations.append(
                        Poly({bytes((a, a)): 1, bytes((a,)): -1}, _trusted=True))

    # each row and column sums to 1
    sums: set[bytes] = set()
    for kind, at in (("row", row_at), ("column", col_at)):
        for i in range(n):
            line = bytes(b for b in at[i] if b >= 0)
            if not line:
                raise DegenerateAlgebraError(f"{kind} {i + 1} has no generators left")
            if line not in sums:
                sums.add(line)
                terms = {bytes((b,)): 1 for b in line}
                terms[b""] = -1
                relations.append(Poly(terms, _trusted=True))

    # products vanish whenever adjacency disagrees between source and image;
    # u_ik * u_jl for alive (i, k) and (j, l), in i, j, k, l order
    adj = g.adj
    for i in range(n):
        for j in range(n):
            eij = adj[i][j]
            for k, a in alive_rows[i]:
                adjk = adj[k]
                for l, b in alive_rows[j]:
                    if adjk[l] != eij:
                        w = bytes((a, b))
                        if w not in seen:
                            seen.add(w)
                            relations.append(Poly({w: 1}, _trusted=True))

    return Presentation(gens, tuple(relations))


def _line_sums(p: Presentation) -> tuple[dict[int, int], dict[int, int]]:
    """Positions in ``p.relations`` of the row and of the column sum
    relations, keyed by 0-based row and column.

    A sum relation is found by its content: -1 plus every alive letter of
    the line, each with coefficient 1.  One relation can be both a row
    and a column sum (a line with a single letter in each).
    """
    n = max((max(label) for label in p.gens.labels), default=0)
    row_terms: list[dict] = [{b"": -1} for _ in range(n)]
    col_terms: list[dict] = [{b"": -1} for _ in range(n)]
    for a, (r, c) in enumerate(p.gens.labels):
        row_terms[r - 1][bytes((a,))] = 1
        col_terms[c - 1][bytes((a,))] = 1
    rows: dict[int, int] = {}
    cols: dict[int, int] = {}
    for pos, rel in enumerate(p.relations):
        terms = rel.terms
        if terms.get(b"") != -1 or len(terms) < 2:
            continue
        letter = next(w for w in terms if w)
        if len(letter) != 1:
            continue
        r, c = p.gens.labels[letter[0]]
        if terms == row_terms[r - 1]:
            rows[r - 1] = pos
        if terms == col_terms[c - 1]:
            cols[c - 1] = pos
    return rows, cols


def linear_consequences(p: Presentation) -> list[Poly]:
    """Linear relations that the row and column sums and the vanishing
    products of ``p`` imply, read off the presentation alone.

    For a row i and a column j whose sums are relations of ``p``, join
    each alive u_il to each alive u_kj unless u_il*u_kj is a monomial
    relation.  A connected component with row letters R and column letters
    K gives sum_K u_kj - sum_R u_il, which is in the ideal:

        sum_R u_il * S'_j - sum_K S_i * u_kj
            = sum_K u_kj - sum_R u_il
              + sum_{l in R, k not in K} u_il*u_kj
              - sum_{l not in R, k in K} u_il*u_kj,

    where S_i and S'_j are the row and column sum relations, and every
    product left over joins letters in different components, so it is a
    monomial relation.  On a presentation from ``build_relations`` these
    relations, with the sums, span the same linear relations as the
    entries of uA - Au.  The component covering every letter (it gives
    S'_j - S_i), zero relations and repeats up to sign are left out; the
    order is deterministic.
    """
    rows, cols = _line_sums(p)
    if not rows or not cols:
        return []
    # after[a]: the letters b with a*b a monomial relation
    after: list[set[int]] = [set() for _ in p.gens.labels]
    for rel in p.relations:
        if len(rel.terms) == 1:
            (w,) = rel.terms
            if len(w) == 2:
                after[w[0]].add(w[1])
    row_letters: dict[int, list[int]] = {i: [] for i in rows}
    col_letters: dict[int, list[int]] = {j: [] for j in cols}
    for a, (r, c) in enumerate(p.gens.labels):
        if r - 1 in row_letters:
            row_letters[r - 1].append(a)
        if c - 1 in col_letters:
            col_letters[c - 1].append(a)

    out: list[Poly] = []
    seen: set[frozenset] = set()
    for i in sorted(rows):
        left = row_letters[i]
        for j in sorted(cols):
            right = col_letters[j]
            # union-find over the bipartite graph: row letter x is node x,
            # column letter y is node len(left) + y
            parent = list(range(len(left) + len(right)))
            for x, a in enumerate(left):
                killed = after[a]
                rx = _root(parent, x)
                for y, b in enumerate(right, len(left)):
                    if b not in killed:
                        parent[_root(parent, y)] = rx
            parts: dict[int, dict] = {}
            for y, b in enumerate(right, len(left)):
                parts.setdefault(_root(parent, y), {})[bytes((b,))] = 1
            for x, a in enumerate(left):
                terms = parts.setdefault(_root(parent, x), {})
                w = bytes((a,))
                if terms.pop(w, 0) != 1:
                    terms[w] = -1
            if len(parts) < 2:
                continue
            for terms in parts.values():
                key = frozenset(terms.items())
                if not terms or key in seen:
                    continue
                seen.add(key)
                seen.add(frozenset((w, -c) for w, c in terms.items()))
                out.append(Poly(terms, _trusted=True))
    return out


def _root(parent: list[int], x: int) -> int:
    """Root of ``x`` in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def commutators(p: Presentation) -> list[Poly]:
    """All pairwise commutators of distinct generators, deterministic order.

    When only diagonal generators survive, each one is pinned to 1 by its
    row sum, so the algebra is trivially commutative and the list is empty.
    """
    if all(r == c for r, c in p.gens.labels):
        return []
    m = len(p.gens)
    out = []
    for a in range(m):
        for b in range(a + 1, m):
            out.append(Poly({bytes((a, b)): 1, bytes((b, a)): -1}, _trusted=True))
    return out


# Results of qsym_check, keyed by presentation and config, oldest first.
# A check reads only the generator labels, the relations and the config,
# so a stored result is exactly what a fresh check would return.
QSYM_MEMO_MAX = 1024
_qsym_memo: dict = {}


def qsym_check(p: Presentation, cfg: ClassifyConfig = ClassifyConfig()) -> CheckResult:
    """Decide commutativity of the presented algebra by iterative deepening.

    Zero normal forms are conclusive at any truncation degree, so the
    bound is raised only while some commutator stays unresolved under an
    incomplete basis.  A presentation already checked under the same
    config returns its stored result; a ``ResourceCapError`` is never
    stored, so it is raised again on every call.
    """
    # every relation's terms in order: exact, and hashed without building text
    key = (p.gens.labels, tuple(tuple(r.terms.items()) for r in p.relations), cfg)
    result = _qsym_memo.get(key)
    if result is None:
        result = _check(p, cfg)
        if len(_qsym_memo) >= QSYM_MEMO_MAX:
            del _qsym_memo[next(iter(_qsym_memo))]
        _qsym_memo[key] = result
    return result


def _completion_input(p: Presentation) -> tuple[Poly, ...]:
    """The relations of ``p`` with its linear consequences inserted right
    after the last sum relation: the same ideal, but completion need not
    rediscover the linear relations through the products.  Of the
    placements tried (first, after the sums, last), after the sums was
    the fastest.  A derived relation in the span of the sums and of the
    derived relations before it reduces to zero in ``insert`` before it
    takes a rule id, so it cannot change a basis; it costs one reduction
    (about 0.05 s over the 93 distinct presentations with commutators
    from pairless graphs with n <= 7)."""
    derived = linear_consequences(p)
    if not derived:
        return p.relations
    rows, cols = _line_sums(p)
    at = 1 + max([*rows.values(), *cols.values()])
    return p.relations[:at] + tuple(derived) + p.relations[at:]


def _check(p: Presentation, cfg: ClassifyConfig) -> CheckResult:
    coms = commutators(p)
    if not coms:
        return CheckResult(CheckStatus.COMMUTATIVE, 0, vacuous=True)
    rel_degree = max(r.degree() for r in p.relations)
    bound = max(min(GB_START_BOUND, cfg.gb_degree_cap), rel_degree)
    relations = _completion_input(p)
    last_bound = bound
    last_size = None
    while bound <= cfg.gb_degree_cap:
        basis = complete(relations, degree_bound=bound, limits=cfg.limits)
        # one Reducer for every commutator, so that they share its
        # memoised per-word normal forms
        reducer = Reducer(basis.polys)
        witness = next((c for c in coms if not reducer.normal_form(c).is_zero()), None)
        if witness is None:
            return CheckResult(
                CheckStatus.COMMUTATIVE, len(coms),
                degree_bound=bound, basis_size=basis.size)
        if basis.complete:
            return CheckResult(
                CheckStatus.NOT_SHOWN_COMMUTATIVE, len(coms),
                degree_bound=bound, basis_size=basis.size, witness=witness)
        last_bound, last_size = bound, basis.size
        bound += GB_BOUND_STEP
    return CheckResult(
        CheckStatus.TRUNCATED, len(coms),
        degree_bound=last_bound, basis_size=last_size)


def classify(g: Graph, cfg: ClassifyConfig = ClassifyConfig()) -> Verdict:
    """Full per-graph decision.

    The cheap automorphism-pair certificate is tried first; the algebra
    check runs only when no pair exists.
    """
    group = automorphism_group(g)
    pair = find_disjoint_pair(group)
    if pair is not None:
        s, t = pair
        if not (are_disjoint(s, t) and is_automorphism(g, s) and is_automorphism(g, t)):
            raise AssertionError("disjoint pair evidence failed validation")
        return Verdict(VerdictKind.QUANTUM_SYMMETRIC, group.order, disjoint_pair=pair)
    pattern = zero_pattern(g)
    algebra = qsym_check(build_relations(g, pattern), cfg)
    if algebra.status is CheckStatus.COMMUTATIVE:
        return Verdict(VerdictKind.NOT_QUANTUM_SYMMETRIC, group.order,
                       algebra=algebra, pattern=pattern)
    return Verdict(VerdictKind.UNDECIDED, group.order, algebra=algebra, pattern=pattern)
