"""Relation builders for tests only.

``reference_relations`` builds the magic-unitary presentation by the
ring arithmetic of ``polyring.Poly``, every relation of each family, so
that the word-level builder can be compared with it term for term:
``build_relations`` is the reference, in order, without the relations
``left_out`` lists, which it derives from the others.  Its linear
relations of uA = Au are the entries of uA - Au for the adjacency
``key_adjacency`` reads off the graph and the classes, a block
normalisation written here apart from the package's.  ``linear_consequences`` reads linear relations off
the other relations instead, by a union-find over the letter pairs no
product relation kills.

``build_relations`` deletes the generators a zero pattern forces.  The
other way to apply a pattern keeps all n^2 generators and pins each
forced one to zero by a relation u_ij; both present the same algebra.

``relabelled_relations`` builds the relabelled graph and its pattern and
reads their relations, the reference for ``classify._check_relabelled``,
which relabels only the memo key.
"""

from __future__ import annotations

from qsymgraph.classify import Presentation, build_relations
from qsymgraph.fulton import ZeroPattern
from qsymgraph.graphs import Graph

from polyring import Poly, key
from walk_oracle import adjacency


def explicit_zero_relations(g: Graph, pattern: ZeroPattern) -> Presentation:
    """The relations of the one-class pattern, where every generator is
    alive, then one u_ij for each forced (i, j) in row-major order."""
    n = g.n
    one_class = ZeroPattern((0,) * n, pattern.max_power_used)
    pres = build_relations(g, one_class)
    relations = list(pres.relations)
    cl = pattern.classes
    for i in range(n):
        for j in range(n):
            if cl[i] != cl[j]:
                u = Poly.gen(pres.positions.index((i, j)))
                if u not in relations:  # deduplicated, as build_relations does
                    relations.append(u)
    return Presentation(pres.positions, tuple(relations))


def relabelled(g: Graph, pattern: ZeroPattern, order) -> tuple[Graph, ZeroPattern]:
    """``g`` and ``pattern`` with vertex ``order[p]`` moved to position p."""
    at = [0] * g.n  # vertex -> its new position
    for p, v in enumerate(order):
        at[v] = p
    moved = tuple(sum(1 << at[u] for u in range(g.n) if g.nbr[v] >> u & 1) for v in order)
    least: dict[int, int] = {}
    classes = tuple(least.setdefault(pattern.classes[v], p) for p, v in enumerate(order))
    return Graph(g.n, moved), ZeroPattern(classes, pattern.max_power_used)


def relabelled_relations(g: Graph, pattern: ZeroPattern, order) -> Presentation:
    """``build_relations`` of ``g`` and ``pattern`` with vertex ``order[p]``
    moved to position p, from a relabelled ``Graph`` and ``ZeroPattern``."""
    return build_relations(*relabelled(g, pattern, order))


def reference_relations(g: Graph, pattern: ZeroPattern) -> Presentation:
    """``build_relations`` by polynomial arithmetic, with nothing left
    out: the magic-unitary relations of ``magic_unitary_relations`` with
    the entries of ``commutation_entries`` inserted right after the last
    sum relation."""
    p = magic_unitary_relations(g, pattern)
    rows, cols = _line_sums(p)
    at = 1 + max([*rows.values(), *cols.values()])
    entries = commutation_entries(p.positions, key_adjacency(g, pattern))
    return Presentation(p.positions, p.relations[:at] + tuple(entries) + p.relations[at:])


def left_out(g: Graph, pattern: ZeroPattern) -> list[tuple[Poly, list]]:
    """The relations of ``reference_relations`` that ``build_relations``
    leaves out, in the order its docstring replays them, each with a
    derivation: steps (c, left, relation, right), where c * left *
    relation * right summed over the steps is the relation left out,
    and each relation used is one that stays or one listed earlier (a
    linear one up to sign).

    A is ``key_adjacency``, M its uA - Au, s the last member of a class,
    R_i - 1 and C_j - 1 the sums of row i and column j; u_is is row i's
    last letter and u_sj column j's.

    (a) For a line's last letter p and each other letter q of it, q*p
        and p*q, from q*S, S*q, q^2 - q and the other words of q in the
        line, S the line's sum.  Step 1, or step 3 when q^2 - q is left
        out itself: when q is the last letter of its other line, which
        happens in the row or column s.
    (b) p^2 - p for each last letter p, from p*S and the (a) words p*o
        of its row (its column when p is a column's last letter only).
        Step 2, or step 4 for u_ss, whose (a) words are step 3.
    (c) For i != j and each alive u_jl, of the u_ik*u_jl with A_kl !=
        A_ij and k != l the one with the largest k: the family's sum is
        M_il*u_jl + sum_{m != j} A_im u_ml*u_jl when A_ij = 0, and
        (R_i - 1)*u_jl minus that minus u_jl^2 - u_jl when A_ij = 1.
    (d) For i != j and each alive u_ik, of the u_ik*u_jl with A_kl !=
        A_ij and l != k the one with the largest l: the family's sum is
        u_ik*M_jk + sum_{m != i} A_jm u_ik*u_mk when A_ij = 0, and
        u_ik*(R_j - 1) minus that minus u_ik^2 - u_ik when A_ij = 1.
        A product both (c) and (d) pick is listed once, by (c).
    The products come last, by increasing k + l: each family member
    other than the one left out has a smaller k + l, or is a column
    orthogonality word (k = l).
    """
    n = g.n
    cl = pattern.classes
    positions = tuple(pattern.alive())
    flat = {pos: x for x, pos in enumerate(positions)}
    adj = key_adjacency(g, pattern)
    m = commutation_matrix(positions, adj)
    members = {c: [v for v in range(n) if cl[v] == c] for c in cl}
    one = Poly.one()

    def u(i, j):
        return Poly.gen(flat[i, j])

    def total(letters):
        return sum(letters, Poly.constant(-1))

    def idempotent(x):
        return x * x - x

    staged = []  # (step, order within the step, relation, derivation)
    for c, ms in members.items():
        s = ms[-1]
        for t in ms:
            for row, line in ((True, [u(t, k) for k in ms]), (False, [u(k, t) for k in ms])):
                p, others, sum_ = line[-1], line[:-1], total(line)
                # (a): q*p and p*q for each other letter q
                step = 3 if t == s else 1
                for q in others:
                    rest = [o for o in others if o != q]
                    staged.append((step, 0, q * p, [
                        (1, q, sum_, one), (-1, one, idempotent(q), one),
                        *((-1, one, q * o, one) for o in rest)]))
                    staged.append((step, 0, p * q, [
                        (1, one, sum_, q), (-1, one, idempotent(q), one),
                        *((-1, one, o * q, one) for o in rest)]))
                # (b): p^2 - p, by the row when p is last in both lines
                if row or t != s:
                    staged.append((4 if t == s else 2, 0, idempotent(p), [
                        (1, p, sum_, one), *((-1, one, p * o, one) for o in others)]))

    def row_sum(i):
        return total([u(i, k) for k in members[cl[i]]])

    picked = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            e = adj[i][j]
            # (c), for each alive u_jl
            for l in members[cl[j]]:
                family = [k for k in members[cl[i]] if adj[k][l] != e]
                candidates = [k for k in family if k != l]
                if not candidates:
                    continue
                top = max(candidates)
                ujl = u(j, l)
                steps = [(1, one, m[i][l], ujl)]
                steps += [(1, one, u(x, l) * ujl, one)
                          for x in members[cl[l]] if x != j and adj[i][x]]
                if e:
                    steps = [(1, one, row_sum(i), ujl), (-1, one, idempotent(ujl), one),
                             *((-c, left, rel, right) for c, left, rel, right in steps)]
                steps += [(-1, one, u(i, k) * ujl, one) for k in family if k != top]
                picked.add((i, top, j, l))
                staged.append((5, top + l, u(i, top) * ujl, steps))
            # (d), for each alive u_ik
            for k in members[cl[i]]:
                family = [l for l in members[cl[j]] if adj[k][l] != e]
                candidates = [l for l in family if l != k]
                if not candidates:
                    continue
                top = max(candidates)
                if (i, k, j, top) in picked:
                    continue
                uik = u(i, k)
                steps = [(1, uik, m[j][k], one)]
                steps += [(1, one, uik * u(x, k), one)
                          for x in members[cl[k]] if x != i and adj[j][x]]
                if e:
                    steps = [(1, uik, row_sum(j), one),
                             (-1, one, idempotent(uik), one),
                             *((-c, left, rel, right) for c, left, rel, right in steps)]
                steps += [(-1, one, uik * u(j, l), one) for l in family if l != top]
                staged.append((5, k + top, uik * u(j, top), steps))

    staged.sort(key=lambda x: x[:2])  # stable: the order of listing breaks ties
    return [(rel, [st for st in steps if st[2]]) for _, _, rel, steps in staged]


def key_adjacency(g: Graph, pattern: ZeroPattern) -> list[list[int]]:
    """The adjacency matrix of ``g`` with each class-pair block (I, J)
    complemented off the diagonal where its first entry is 1: A between
    the least members of I and J, or, when I = J, between the two least
    members of I (a one-vertex class has no such entry)."""
    adj = adjacency(g)
    n = g.n
    members: dict[int, list[int]] = {}
    for v, c in enumerate(pattern.classes):
        members.setdefault(c, []).append(v)
    first = {}
    for c, ms in members.items():
        for d, md in members.items():
            pair = next(((x, y) for x in ms for y in md if x != y), None)
            first[c, d] = adj[pair[0]][pair[1]] if pair else 0
    cl = pattern.classes
    return [[1 - adj[i][j] if i != j and first[cl[i], cl[j]] else adj[i][j]
             for j in range(n)] for i in range(n)]


def commutation_matrix(positions, a) -> list[list[Poly]]:
    """uA - Au over the letters at ``positions``, for the 0/1 matrix ``a``:
    entry (i, j) is sum_l u_il a_lj - sum_k a_ik u_kj, where a forced u
    is 0."""
    n = len(a)
    flat = {pos: x for x, pos in enumerate(positions)}
    u = [[Poly.gen(flat[i, j]) if (i, j) in flat else Poly.zero() for j in range(n)]
         for i in range(n)]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = Poly.zero()
            for l in range(n):
                entry = entry + u[i][l] * a[l][j]
            for k in range(n):
                entry = entry - a[i][k] * u[k][j]
            row.append(entry)
        out.append(row)
    return out


def commutation_entries(positions, a) -> list[Poly]:
    """The nonzero entries of ``commutation_matrix`` in row-major order,
    each kept once up to sign."""
    out: list[Poly] = []
    seen: set = set()
    for entry in (e for row in commutation_matrix(positions, a) for e in row):
        if entry and key(entry) not in seen:
            seen.add(key(entry))
            seen.add(key(-entry))
            out.append(entry)
    return out


def magic_unitary_relations(g: Graph, pattern: ZeroPattern) -> Presentation:
    """The relations of ``build_relations`` but its linear block, by
    polynomial arithmetic: each relation is a product, sum or difference
    of ``Poly`` generators, deduplicated on its set of terms, in the same
    i, j, k, l order."""
    n = g.n
    positions = tuple(pattern.alive())
    alive = set(positions)
    flat = {pos: x for x, pos in enumerate(positions)}

    relations: list[Poly] = []
    seen: set = set()

    def add(p: Poly):
        # every coefficient is an int, so the term items hash as they are
        k = frozenset(p.items())
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
        acc = Poly.zero()
        for b in row:
            acc = acc + Poly.gen(b)
        add(acc - 1)
    for j in range(n):
        col = [flat[(k, j)] for k in range(n) if (k, j) in alive]
        acc = Poly.zero()
        for b in col:
            acc = acc + Poly.gen(b)
        add(acc - 1)

    # products vanish whenever adjacency disagrees between source and image;
    # u_ik * u_jl for alive (i, k) and (j, l), in i, j, k, l order
    adj = adjacency(g)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if (i, k) not in alive:
                    continue
                for l in range(n):
                    if (j, l) in alive and adj[k][l] != adj[i][j]:
                        add(Poly.gen(flat[(i, k)]) * Poly.gen(flat[(j, l)]))

    return Presentation(positions, tuple(relations))


def _line_sums(p: Presentation) -> tuple[dict[int, int], dict[int, int]]:
    """Positions in ``p.relations`` of the row and of the column sum
    relations, keyed by 0-based row and column.

    A sum relation is found by its content: -1 plus every alive letter of
    the line, each with coefficient 1.  One relation can be both a row
    and a column sum (a line with a single letter in each).
    """
    n = max((max(pos) + 1 for pos in p.positions), default=0)
    row_terms: list[dict] = [{b"": -1} for _ in range(n)]
    col_terms: list[dict] = [{b"": -1} for _ in range(n)]
    for a, (r, c) in enumerate(p.positions):
        row_terms[r][bytes((a,))] = 1
        col_terms[c][bytes((a,))] = 1
    rows: dict[int, int] = {}
    cols: dict[int, int] = {}
    for pos, terms in enumerate(p.relations):
        if terms.get(b"") != -1 or len(terms) < 2:
            continue
        letter = next(w for w in terms if w)
        if len(letter) != 1:
            continue
        r, c = p.positions[letter[0]]
        if terms == row_terms[r]:
            rows[r] = pos
        if terms == col_terms[c]:
            cols[c] = pos
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
    monomial relation.  On a presentation from
    ``magic_unitary_relations`` under the walk-count patterns the tests
    try, these relations, with the sums, span the same linear relations
    as the entries of uA - Au; under other partitions they can span
    more.  The component covering every letter (it gives S'_j - S_i),
    zero relations and repeats up to sign are left out; the order is
    deterministic.
    """
    rows, cols = _line_sums(p)
    if not rows or not cols:
        return []
    # after[a]: the letters b with a*b a monomial relation
    after: list[set[int]] = [set() for _ in p.positions]
    for rel in p.relations:
        if len(rel) == 1:
            (w,) = rel
            if len(w) == 2:
                after[w[0]].add(w[1])
    row_letters: dict[int, list[int]] = {i: [] for i in rows}
    col_letters: dict[int, list[int]] = {j: [] for j in cols}
    for a, (r, c) in enumerate(p.positions):
        if r in row_letters:
            row_letters[r].append(a)
        if c in col_letters:
            col_letters[c].append(a)

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
                out.append(Poly(terms))
    return out


def _root(parent: list[int], x: int) -> int:
    """Root of ``x`` in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x
