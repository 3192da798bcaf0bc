"""Quantum-symmetry classification of a graph.

The decision combines two one-sided criteria:

* a pair of non-trivial disjoint automorphisms proves the graph HAS
  quantum symmetries;
* commutativity of the universal algebra presented by the magic-unitary
  relations (orthogonality within rows and columns, row and column sums
  equal to 1, the linear relations of uA = Au, and vanishing products
  forced by adjacency mismatches) proves it has NONE.

Walk-count zero patterns shrink the presentation before the Groebner
engine runs: forced generators are deleted from the presentation.  The
engine completes the presentation as it stands.

If neither criterion fires the graph stays Undecided.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain, combinations, starmap

from .automorphisms import (
    are_disjoint,
    automorphism_group,
    find_disjoint_pair,
    is_automorphism,
)
from .fulton import ZeroPattern, zero_pattern
from .graphs import Graph, Permutation, _canonical_labelling, _relabelled
from .groebner import EngineLimits, complete


@dataclass(frozen=True)
class Presentation:
    """Relation ideal of the universal algebra over the surviving
    generators: letter a is u at the 0-based ``positions[a]``, in
    row-major order, so byte order is generator order."""

    positions: tuple[tuple[int, int], ...]
    relations: tuple[dict, ...]  # term dicts

    def __post_init__(self):
        pos = self.positions
        if any(a >= b for a, b in zip(pos, pos[1:])):
            raise ValueError("generator positions must be strictly increasing, row-major")
        if len(pos) > 256:
            raise ValueError("at most 256 generators supported")

    @property
    def gens(self) -> tuple[tuple[int, int], ...]:
        return self.positions  # the name perfbench/tracing.py counts letters under


class CheckStatus(Enum):
    COMMUTATIVE = "commutative"
    NOT_SHOWN_COMMUTATIVE = "not_shown_commutative"
    TRUNCATED = "truncated"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of the commutativity check, with machine-checkable context."""

    status: CheckStatus
    degree_bound: int | None = None
    basis_size: int | None = None
    witness: dict | None = None
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
        # every presentation the check completes has degree-2 relations:
        # a class of two or more keeps the idempotent of each letter that
        # is last in neither its row nor its column
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
    containing them vanish, sums simply omit them.  Relations are built
    straight from words of generator indices, without polynomial
    arithmetic, and no relation is emitted twice.

    Relations are built from the memo key alone, the classes and the rows
    of ``_blocks_up_to_complement``, A' below, so a graph and its copies
    with class-pair blocks complemented get equal relations.  The
    products are the graph's own: complementing a block keeps which of
    its off-diagonal entries are equal, and a product that meets the
    diagonal is an orthogonality relation.

    Four families of degree-2 relations are left out, each an exact
    consequence of relations that stay, so the ideal, and with it every
    complete basis, is unchanged.  Write R_i - 1 and C_j - 1 for the
    row and column sums and M_il = sum_k u_ik A'_kl - sum_m A'_im u_ml
    for an entry of uA' - A'u.  A line's last letter is its alive letter
    of largest index, u_is in row i and u_sj in column j, s the last
    member of the class; it leads the line's sum.

    (a) For the last letter p of a line and every other letter q of it,
        q*p and p*q:
        q*p = q*(R_i - 1) - (q^2 - q) - sum of q*u_il over the other l,
        and p*q is the mirror, from (R_i - 1)*q; columns likewise by C_j.
    (b) The idempotent of a line's last letter:
        p^2 - p = p*(R_i - 1) - sum of p*u_il over l != s, words of (a).
    (c) For i != j and an alive u_jl, of the products u_ik*u_jl with
        k != l and A'_kl != A'_ij, the one with the largest k.  The sum
        of all u_ik*u_jl with A'_kl != A'_ij (k = l is a column
        orthogonality word) is M_il*u_jl + sum_{m != j} A'_im u_ml*u_jl
        when A'_ij = 0, and (R_i - 1)*u_jl - M_il*u_jl
        - sum_{m != j} A'_im u_ml*u_jl - (u_jl^2 - u_jl) when A'_ij = 1.
    (d) The mirror of (c): for i != j and an alive u_ik, of the u_ik*u_jl
        with l != k and A'_kl != A'_ij, the one with the largest l; the
        sum comes from u_ik*M_jk, u_ik*(R_j - 1), the orthogonality of
        column k and u_ik^2 - u_ik.

    No derivation goes in a circle.  In (a), q^2 - q is left out only
    when q is the last letter of its other line, which happens only in
    the class's last row or column; its (b) derivation then uses (a)
    words of a line that is not last, whose q^2 - q stay.  So the
    omissions replay in the order: (a) of the lines that are not last,
    (b) of their last letters, (a) of the last row and column, (b) of
    u_ss, and then the products of each (i, j) by increasing k + l, as
    a product derivation uses only products of the same (i, j) with a
    smaller k + l.  Every derivation stays in degree 2.
    """
    cl = pattern.classes
    nbr = _blocks_up_to_complement(g.nbr, cl)  # the rows of A'
    n = len(nbr)
    positions = tuple(pattern.alive())
    # alive (column, index) pairs per row and (row, index) pairs per
    # column; row i and column j of one class hold their letters at the
    # class's members, in increasing order
    alive_rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    alive_cols: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, (i, j) in enumerate(positions):  # row-major
        alive_rows[i].append((j, a))
        alive_cols[j].append((i, a))

    relations: list[dict] = []

    # orthogonality within each row and each column: for u_ij and each k,
    # u_ij * u_ik, then u_ij * u_kj; these words are pairwise distinct, and
    # u_ij meets itself twice (k = j, then k = i) for one idempotent
    # relation.  Nothing is emitted at k = s, and no row word of row i's
    # last letter (j = s), no column word of column j's (i = s)
    for i in range(n):
        row = alive_rows[i]
        s = row[-1][0]
        for j, a in row:
            idempotent = s in (i, j)  # (b): left out
            for (k, b), (_, c) in zip(row, alive_cols[j]):
                if k == s:
                    break
                if b != a:
                    if j != s:
                        relations.append({bytes((a, b)): 1})
                elif not idempotent:
                    idempotent = True
                    relations.append({bytes((a, a)): 1, bytes((a,)): -1})
                if c != a:
                    if i != s:
                        relations.append({bytes((a, c)): 1})
                elif not idempotent:
                    idempotent = True
                    relations.append({bytes((a, a)): 1, bytes((a,)): -1})

    # each row and column sums to 1; u_ii keeps every line non-empty, and
    # a line of one letter is its row and its column
    for lines in (alive_rows, alive_cols):
        for line in lines:
            if lines is alive_rows or len(line) > 1:
                terms = {bytes((b,)): 1 for _, b in line}
                terms[b""] = -1
                relations.append(terms)

    # the linear relations of uA = Au
    relations += _linear_block(nbr, alive_rows, alive_cols)

    # products vanish whenever adjacency disagrees between source and image;
    # u_ik * u_jl for alive (i, k) and (j, l), in i, j, k, l order.  With
    # i = j or k = l the word is an orthogonality word.  last[e, c][v] is
    # the largest w != v of class c with A'_vw != e, or -1: the k that
    # (c) leaves out for l = v, and the l that (d) leaves out for k = v
    last = {}
    for c, mc in _class_members(cl).items():
        last[0, c] = [(mc & ~(1 << v) & nbr[v]).bit_length() - 1 for v in range(n)]
        last[1, c] = [(mc & ~(1 << v) & ~nbr[v]).bit_length() - 1 for v in range(n)]
    for i in range(n):
        row_i = alive_rows[i]
        for j in range(n):
            if j == i:
                continue
            e = nbr[i] >> j & 1
            drop_k, drop_l = last[e, cl[i]], last[e, cl[j]]
            row_j = alive_rows[j]
            for k, a in row_i:
                nbr_k = nbr[k]
                skip = drop_l[k]
                for l, b in row_j:
                    if nbr_k >> l & 1 != e and l != k and l != skip and k != drop_k[l]:
                        relations.append({bytes((a, b)): 1})

    return Presentation(positions, tuple(relations))


def _linear_block(nbr, alive_rows, alive_cols) -> list[dict]:
    """The nonzero entries of uA - Au on the alive letters, as
    ``build_relations`` lists them, where bit k of ``nbr[i]`` is A_ik and
    A is symmetric.

    Entry (i, j) is sum_l u_il A_lj - sum_k A_ik u_kj.  Its coefficients
    are 1 and -1, with no constant, and u_ij never occurs, since
    A_ii = A_jj = 0.  Entries come in row-major order; zero entries and
    repeats up to sign give nothing.
    """
    out: list[dict] = []
    done: set[tuple[bytes, bytes]] = set()  # (plus, minus) letters emitted
    for row, near_i in zip(alive_rows, nbr):
        for col, near_j in zip(alive_cols, nbr):
            plus = bytes(a for l, a in row if near_j >> l & 1)
            minus = bytes(b for k, b in col if near_i >> k & 1)
            if (plus or minus) and (plus, minus) not in done:
                done.add((plus, minus))
                done.add((minus, plus))
                terms = {bytes((a,)): 1 for a in plus}
                terms.update((bytes((b,)), -1) for b in minus)
                out.append(terms)
    return out


def _commutator(a: int, b: int) -> dict:
    return {bytes((a, b)): 1, bytes((b, a)): -1}


def qsym_check(p: Presentation, cfg: ClassifyConfig = ClassifyConfig()) -> CheckResult:
    """Decide commutativity of the presented algebra by iterative deepening.

    Zero normal forms are conclusive at any truncation degree, so the
    bound is raised only while some commutator stays unresolved under an
    incomplete basis.

    Only the commutators of free letters are reduced: a letter is free
    when no degree-1 rule of the basis has it as its lead.  The basis is
    interreduced at every bound, so a dead letter x has a rule
    x -> sum c_y*y + c over free letters y, and at each position of a
    word at most one lead matches.  Hence N(xz) - N(zx) is
    sum c_y*(N(yz) - N(zy)), and likewise when z is dead too: every
    commutator reduces to 0 exactly when every free one does.  Only a
    witness needs the other pairs, and it is the first commutator of
    u_a, u_b (a < b, in index order) whose normal form is nonzero.
    """
    m = len(p.positions)
    # with only diagonal generators, each is pinned to 1 by its row sum,
    # so the algebra is trivially commutative; so it is with one generator
    if m < 2 or all(i == j for i, j in p.positions):
        return CheckResult(CheckStatus.COMMUTATIVE, vacuous=True)
    rel_degree = max(map(len, chain.from_iterable(p.relations)), default=-1)
    bound = max(min(GB_START_BOUND, cfg.gb_degree_cap), rel_degree)
    # with a relation above the cap no bound runs, and none is reported
    last_bound = last_size = None
    while bound <= cfg.gb_degree_cap:
        basis = complete(p.relations, degree_bound=bound, limits=cfg.limits)
        free = [a for a in range(m) if bytes((a,)) not in basis.by_lead]
        if all(not basis.normal_form(_commutator(a, b))
               for a, b in combinations(free, 2)):
            return CheckResult(CheckStatus.COMMUTATIVE, degree_bound=bound,
                               basis_size=basis.size)
        if basis.complete:
            witness = next(c for c in starmap(_commutator, combinations(range(m), 2))
                           if basis.normal_form(c))
            return CheckResult(CheckStatus.NOT_SHOWN_COMMUTATIVE, degree_bound=bound,
                               basis_size=basis.size, witness=witness)
        last_bound, last_size = bound, basis.size
        bound += GB_BOUND_STEP
    return CheckResult(CheckStatus.TRUNCATED, degree_bound=last_bound, basis_size=last_size)


# Results of the algebra check, keyed by the zero pattern's classes, the
# adjacency blocks up to complement and the config, oldest first.  A miss
# stores up to three entries: under the key in the graph's labelling,
# under that key without its pinned vertices, and under the key in the
# canonical labelling.  The connected graphs leave 393 entries at n = 8
# (44 completions) and 2,822 at n = 9 (85).
QSYM_MEMO_MAX = 4096
_memo: dict = {}


def _class_members(classes: tuple[int, ...]) -> dict[int, int]:
    """Least vertex of each class -> bits of its members."""
    members: dict[int, int] = {}
    for i, c in enumerate(classes):
        members[c] = members.get(c, 0) | 1 << i
    return members


def _blocks_up_to_complement(nbr, cl: tuple[int, ...]) -> tuple[int, ...]:
    """The adjacency rows ``nbr``, each block (I, J) of the classes ``cl``
    complemented off the diagonal where its first entry is 1.  That entry
    is A between min I and min J, or, when I = J, between min I and the
    next member of I.  A block between two singleton classes is always 0,
    and rows with any blocks complemented give the same tuple."""
    members = _class_members(cl)
    flip = {}  # least vertex of I -> bits of every J whose block is flipped
    for c, mc in members.items():
        row = nbr[c]
        bits = 0
        for d, md in members.items():
            if d != c and row >> d & 1:
                bits |= md
        rest = mc & (mc - 1)  # I without its least vertex
        if row & rest & -rest:
            bits |= mc
        flip[c] = bits
    return tuple(nbr[i] ^ (flip[c] & ~(1 << i)) for i, c in enumerate(cl))


def _canonical_order(rows: tuple[int, ...], classes: tuple[int, ...]) -> tuple[int, ...]:
    """A vertex order read from a key's ``rows`` and ``classes`` alone.

    Each class-pair block is complemented off the diagonal where more
    than half of its off-diagonal entries are 1.  The classes become
    cells, ordered by size and then by the sorted sizes and counts of
    ones of their blocks (by least vertex on a tie), and the order is the
    canonical labelling of the rows from those cells.  Keys that differ
    by a relabelling that keeps the classes get the same relabelled key,
    except where a block is half full or two classes tie."""
    members = _class_members(classes)
    ones: dict[tuple[int, int], int] = {}
    for row, c in zip(rows, classes):
        for d, md in members.items():
            ones[c, d] = ones.get((c, d), 0) + (row & md).bit_count()
    flip = dict.fromkeys(members, 0)  # least vertex of I -> bits of the Js flipped
    for (c, d), k in ones.items():
        entries = members[c].bit_count() * (members[d].bit_count() - (c == d))
        if 2 * k > entries:
            flip[c] |= members[d]
            ones[c, d] = entries - k
    sparser = [row ^ (flip[c] & ~(1 << i)) for i, (row, c) in enumerate(zip(rows, classes))]

    def rank(c):
        return (members[c].bit_count(),
                sorted((md.bit_count(), ones[c, d]) for d, md in members.items()), c)

    return _canonical_labelling(sparser, tuple(members[c] for c in sorted(members, key=rank)))[1]


def _remember(key, result: CheckResult) -> None:
    if len(_memo) >= QSYM_MEMO_MAX:
        del _memo[next(iter(_memo))]
    _memo[key] = result


def _check_relabelled(pattern: ZeroPattern, rows: tuple[int, ...],
                      cfg: ClassifyConfig) -> CheckResult:
    """The algebra check of the key ``(pattern.classes, rows)``, run on it
    relabelled by the canonical order of ``rows`` and memoised under the
    key of that labelling; a witness comes back in the first key's
    generator indices.

    Vertex ``order[p]`` moves to position p.  Relabelling commutes with
    complementing blocks, so the moved rows are the relabelled graph with
    some blocks complemented, and ``_blocks_up_to_complement`` turns them
    into that graph's key rows.  Key rows are a symmetric matrix with a
    zero diagonal, which ``_blocks_up_to_complement`` maps to itself, so
    ``build_relations`` reads them as a graph of their own."""
    order = _canonical_order(rows, pattern.classes)
    least: dict[int, int] = {}
    classes = tuple(least.setdefault(pattern.classes[v], p) for p, v in enumerate(order))
    moved = ZeroPattern(classes, pattern.max_power_used)
    moved_rows = _blocks_up_to_complement(_relabelled(rows, order), classes)
    key = (classes, moved_rows, cfg)
    result = _memo.get(key)
    if result is None:
        result = qsym_check(build_relations(Graph(len(order), moved_rows), moved), cfg)
        _remember(key, result)
    return _renamed(result, pattern, order, moved)


def _renamed(result: CheckResult, pattern: ZeroPattern, order, moved: ZeroPattern
             ) -> CheckResult:
    """``result`` with its witness, the commutator of two letters of
    ``moved``, renamed into those of ``pattern``, the lower letter first:
    moved letter a is u at (p, q), and u at (order[p], order[q]) in
    ``pattern``."""
    if result.witness is None:
        return result
    index = {ij: a for a, ij in enumerate(pattern.alive())}
    to_g = [index[order[p], order[q]] for p, q in moved.alive()]
    (a, b), = (w for w, c in result.witness.items() if c == 1)
    return replace(result, witness=_commutator(*sorted((to_g[a], to_g[b]))))


def _check_key(pattern: ZeroPattern, rows: tuple[int, ...], cfg: ClassifyConfig
               ) -> CheckResult:
    """The algebra check of the key ``(pattern.classes, rows)``.

    A vertex v is pinned when its class is {v} and its key row is 0.  Its
    letter u_vv then meets no orthogonality, linear or product relation,
    so the relations are those of the key without v, letters renumbered
    in order, plus u_vv - 1 in v's row-sum slot.  The rule u_vv -> 1
    enters no overlap and only shifts later rule ids, so completion runs
    the same steps on both keys: the result is the stripped key's, with
    one more basis rule per pinned vertex, and its witness renamed, since
    every commutator with u_vv reduces to 0.  So a key with pinned
    vertices takes the result of its stripped key, looked up and stored
    as a key without them is; with every vertex pinned, every letter is
    diagonal and the check is vacuous.  ``cfg.limits`` bound the stripped
    completion, which holds k fewer rules and 2k fewer terms than the
    full one for k pinned vertices.  At n <= 7 every singleton class is
    pinned: walk classes are orbits there, and a fixed vertex is adjacent
    to all or none of each other orbit.

    A key without pinned vertices is checked in its own labelling when
    it has one class, and through ``_check_relabelled`` otherwise.
    """
    cl = pattern.classes
    n = len(cl)
    members = _class_members(cl)
    kept = [v for v in range(n) if rows[v] or members[cl[v]] != 1 << v]
    if len(kept) == n:
        if len(members) == 1:
            return qsym_check(build_relations(Graph(n, rows), pattern), cfg)
        return _check_relabelled(pattern, rows, cfg)
    if not kept:
        return CheckResult(CheckStatus.COMMUTATIVE, vacuous=True)
    # no kept row holds a pinned vertex, and stripping pins no other one
    least: dict[int, int] = {}
    stripped = ZeroPattern(tuple(least.setdefault(cl[v], p) for p, v in enumerate(kept)),
                           pattern.max_power_used)
    stripped_rows = tuple(sum(1 << p for p, u in enumerate(kept) if rows[v] >> u & 1)
                          for v in kept)
    key = (stripped.classes, stripped_rows, cfg)
    result = _memo.get(key)
    if result is None:
        result = _check_key(stripped, stripped_rows, cfg)
        _remember(key, result)
    if result.basis_size is not None:
        result = replace(result, basis_size=result.basis_size + n - len(kept))
    return _renamed(result, pattern, kept, stripped)


def classify(g: Graph, cfg: ClassifyConfig = ClassifyConfig()) -> Verdict:
    """Full per-graph decision.

    The cheap automorphism-pair certificate is tried first; the algebra
    check runs only when no pair exists.

    The check's result is memoised under the zero pattern's classes, the
    adjacency blocks up to complement and the config, before any relation
    is built.  The key is exact: equal keys give equal presentations,
    generator positions and relations in order, since relations are
    built from the key alone.

    On a miss, a key with pinned vertices, each alone in its class with
    a key row of 0, takes the result of the key without them, with one
    more basis rule per pinned vertex (see ``_check_key``): that stripped
    key is looked up, and on a miss checked, as the key of a graph with
    no pinned vertex is, and stored too.  With every vertex pinned the
    check is vacuous and builds no relations.

    A key of several classes and no pinned vertex is looked up once more
    in a labelling that depends on the key alone: the key's rows with
    every block on its sparser side (the key's side on a tie) are put in
    canonical order, class by class, and the key is relabelled by that
    order.  Only a second miss builds relations, from the relabelled key
    alone; they are those of the relabelled graph, whose algebra is
    ``g``'s up to renaming the letters, and a witness is renamed back.
    The result is stored under both keys, and it is a function of the
    first, so the memo stays exact and a batch's results do not depend
    on its order.  Its bound and basis size are those of the relabelled
    presentation, which equal those of ``g``'s own on every connected
    graph with n <= 9.  A key of one class keeps its own labelling:
    relabelling a vertex-transitive graph can make its completion
    several times slower.  So a stripped key of one class never holds a
    result of another labelling.  At most ``QSYM_MEMO_MAX`` results are
    kept, the oldest evicted first; a ``ResourceCapError`` is never
    stored, so it is raised again on every call.
    """
    group = automorphism_group(g)
    pair = find_disjoint_pair(group)
    if pair is not None:
        s, t = pair
        if not (are_disjoint(s, t) and is_automorphism(g, s) and is_automorphism(g, t)):
            raise AssertionError("disjoint pair evidence failed validation")
        return Verdict(VerdictKind.QUANTUM_SYMMETRIC, group.order, disjoint_pair=pair)
    pattern = zero_pattern(g, group.orbits)
    rows = _blocks_up_to_complement(g.nbr, pattern.classes)
    key = (pattern.classes, rows, cfg)
    algebra = _memo.get(key)
    if algebra is None:
        algebra = _check_key(pattern, rows, cfg)
        _remember(key, algebra)
    if algebra.status is CheckStatus.COMMUTATIVE:
        return Verdict(VerdictKind.NOT_QUANTUM_SYMMETRIC, group.order,
                       algebra=algebra, pattern=pattern)
    return Verdict(VerdictKind.UNDECIDED, group.order, algebra=algebra, pattern=pattern)
