"""Finite simple undirected graphs: parsing, canonical forms, automorphism
search, enumeration.

A graph is stored as its neighbour bitmasks: bit j of ``nbr[i]`` is set
exactly when vertices i and j are adjacent.  This module alone converts
between that form and the text and bit encodings of a graph, and it
imports nothing from the package, so every other module can rest on it.
Vertices are 0-based internally; all user-facing rendering is 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_VERTICES = 16

# Enumeration by canonical deletion takes about 0.06 s at n = 7, 0.7 s at
# n = 8 (11,117 graphs) and 18 s at n = 9 (261,080) on a shared 2-core
# machine, and classifying the 11,117 graphs of n = 8, read from a graph6
# file in one process, about 1.4 s; the cap stays until n = 8 has a
# pinned table.
MAX_ENUMERATE_VERTICES = 7

# a permutation is a tuple of 0-based images
Permutation = tuple[int, ...]


class GraphError(ValueError):
    """Invalid graph data or unparsable graph input."""


class Graph6Error(GraphError):
    """Malformed graph6 string."""


class AdjacencyError(GraphError):
    """Malformed adjacency-matrix text."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on ``n`` vertices; bit j of ``nbr[i]`` is
    set exactly when i and j are adjacent."""

    n: int
    nbr: tuple[int, ...]

    def __post_init__(self):
        n = self.n
        if not 1 <= n <= MAX_VERTICES:
            raise GraphError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        # a negative mask has bits at and above n too, so m >> n is -1
        nbr = self.nbr
        if len(nbr) != n or any(m >> n for m in nbr):
            raise GraphError("adjacency matrix is not n x n")
        # the columns, from the set bits of the rows; every mask is now
        # non-negative, so each bit loop ends
        cols = [0] * n
        for i, m in enumerate(nbr):
            bit = 1 << i
            while m:
                low = m & -m
                cols[low.bit_length() - 1] |= bit
                m ^= low
        # row i differs from column i first at the row's first asymmetric
        # entry, and every earlier row equals its column, so this is the
        # first asymmetric entry in row-major order; the diagonal never differs
        for i, (m, col) in enumerate(zip(nbr, cols)):
            if m >> i & 1:
                raise GraphError(f"self-loop at vertex {i + 1}")
            diff = m ^ col
            if diff:
                j = (diff & -diff).bit_length()
                raise GraphError(f"asymmetric adjacency at ({i + 1},{j})")

    @staticmethod
    def from_edges(n: int, edges, *, one_based: bool = True) -> "Graph":
        """Build a graph from an edge list, 1-based by default."""
        off = 1 if one_based else 0
        nbr = [0] * n
        for i, j in edges:
            a, b = i - off, j - off
            if not (0 <= a < n and 0 <= b < n):
                raise GraphError(f"edge ({i},{j}) outside vertex range")
            if a == b:
                raise GraphError(f"self-loop at vertex {i}")
            nbr[a] |= 1 << b
            nbr[b] |= 1 << a
        return Graph(n, tuple(nbr))

    @staticmethod
    def from_mask(n: int, mask: int) -> "Graph":
        """Inverse of :meth:`mask`."""
        nbr = [0] * n
        p = n * (n - 1) // 2
        for i in range(n):
            for j in range(i + 1, n):
                p -= 1
                if mask >> p & 1:
                    nbr[i] |= 1 << j
                    nbr[j] |= 1 << i
        return Graph(n, tuple(nbr))

    def mask(self) -> int:
        """Upper-triangle bits, row-major, first pair most significant.

        Integer order of masks equals lexicographic order of adjacency
        matrices, so the canonical form below is plain integer min.
        """
        m = 0
        for i, x in enumerate(self.nbr):
            for j in range(i + 1, self.n):
                m = m << 1 | x >> j & 1
        return m

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i, x in enumerate(self.nbr) for j in range(i + 1, self.n) if x >> j & 1]


def canonical_form(g: Graph) -> Graph:
    """Lexicographically minimal adjacency matrix over all relabelings."""
    return Graph(g.n, _relabelled(g.nbr, _canonical_labelling(g.nbr)[1]))


def _relabelled(nbr, order) -> tuple[int, ...]:
    """The neighbour bitmasks ``nbr`` with vertex ``order[p]`` moved to
    position p, each row mapped bit by set bit."""
    at = [0] * len(order)  # vertex -> the bit of its new position
    for p, v in enumerate(order):
        at[v] = 1 << p
    rows = []
    for v in order:
        x = nbr[v]
        row = 0
        while x:
            low = x & -x
            row |= at[low.bit_length() - 1]
            x ^= low
        rows.append(row)
    return tuple(rows)


def _canonical_labelling(nbr: list[int], start: tuple[int, ...] | None = None
                         ) -> tuple[int, tuple[int, ...]]:
    """Minimal :meth:`Graph.mask` over all relabelings, from neighbour
    bitmasks, and a vertex order that reaches it: ``order[p]`` is the
    vertex placed at position p.  Given ``start``, an ordered partition
    of the vertices into cells as bitmasks, only the relabelings that
    place each cell before the next are taken.

    The mask lists row 0 first, so positions are filled in order.  With
    positions 0..t-1 placed, the unplaced vertices form an ordered
    partition into cells (one cell, or ``start``, at first), and position
    t takes a vertex of the first cell.  Row t is least when that
    vertex's non-neighbours precede its neighbours in every cell, which
    fixes row t and splits each cell in two.  Every state reaching the
    least row goes on to the next level, once per distinct partition,
    since the partition fixes the future.  A state keeps the last of the
    orders placed that reach it, as a chain of (earlier chain, vertex)
    pairs that ends in None; every one of them leads to the least mask.
    A vertex with a lower twin (the same
    neighbours, apart from each other) in the first cell is not tried:
    swapping the two is an automorphism that fixes every placed vertex
    and every cell, so it maps one choice's future onto the other's.
    Without this, the empty graph and K_n would keep a state per subset.
    """
    n = len(nbr)
    # bits of the lower vertices with v's open or closed neighbourhood; an
    # open one never equals a closed one, so one dict holds both
    twins = [0] * n
    lower: dict[int, int] = {}
    for v, x in enumerate(nbr):
        for hood in (x, x | 1 << v):
            twins[v] |= lower.get(hood, 0)
            lower[hood] = lower.get(hood, 0) | 1 << v
    states = {start or ((1 << n) - 1,): None}
    mask = 0
    for t in range(n - 1):
        best = -1
        survivors: dict[tuple[int, ...], tuple | None] = {}
        for cells, placed in states.items():
            first = cells[0]
            while first:
                bit = first & -first
                first ^= bit
                v = bit.bit_length() - 1
                if twins[v] & cells[0]:
                    continue
                nv = nbr[v]
                rest = cells[0] ^ bit
                parts = (rest,) + cells[1:] if rest else cells[1:]
                row = 0
                for c in parts:
                    row = row << c.bit_count() | (1 << (c & nv).bit_count()) - 1
                if 0 <= best < row:
                    continue
                if row != best:
                    best = row
                    survivors = {}
                survivors[tuple([x for c in parts for x in (c & ~nv, c & nv) if x])] = (
                    placed, v)
        mask = mask << (n - 1 - t) | best
        states = survivors
    (last,), placed = next(iter(states.items()))
    order = [last.bit_length() - 1]
    while placed:
        placed, v = placed
        order.append(v)
    return mask, tuple(reversed(order))


class Search:
    """Backtracking over the vertex maps of one graph: it maps 0, 1, ...,
    n-1 in turn, tries images in increasing order and prunes by degree
    and by adjacency with the vertices already mapped, so it returns the
    lex-first automorphism with some images forced."""

    def __init__(self, nbr: list[int]):
        n = len(nbr)
        self.n = n
        self.nbr = nbr
        by_degree: dict[int, int] = {}
        for v, x in enumerate(nbr):
            d = x.bit_count()
            by_degree[d] = by_degree.get(d, 0) | 1 << v
        # bits of the vertices of v's degree, v's own among them
        self.same_degree = [by_degree[x.bit_count()] for x in nbr]
        self.earlier_nbrs = [_members(x & (1 << v) - 1) for v, x in enumerate(nbr)]

    def first(self, forced: dict[int, int], nonidentity: bool = False,
              prune=None) -> Permutation | None:
        """The lex-first automorphism with ``perm[k] == forced[k]`` for every key.

        With ``nonidentity`` the identity does not count.  ``prune`` is
        called with the bitmask of the points a partial map moves, each
        time that set grows; it returns True to drop every completion.
        A level forced to itself passes every test and moves no point,
        so the search starts after the longest run of such levels from 0.
        """
        k = 0
        while forced.get(k) == k:
            k += 1
        return self._extend(k, list(range(self.n)), (1 << k) - 1, 0, forced, nonidentity,
                            prune)

    def _extend(self, k, images, used, moved, forced, nonidentity, prune):
        if k == self.n:
            return tuple(images) if moved or not nonidentity else None
        # the images of k's earlier neighbours must be exactly the mapped
        # vertices adjacent to k's image
        want = 0
        for m in self.earlier_nbrs[k]:
            want |= 1 << images[m]
        candidates = self.same_degree[k] & ~used
        f = forced.get(k)
        if f is not None:
            candidates &= 1 << f
        nbr = self.nbr
        while candidates:
            bit = candidates & -candidates
            candidates ^= bit
            j = bit.bit_length() - 1
            if nbr[j] & used != want:
                continue
            grown = moved if j == k else moved | bit | 1 << k
            if grown != moved and prune is not None and prune(grown):
                continue
            images[k] = j
            found = self._extend(k + 1, images, used | bit, grown, forced, nonidentity, prune)
            if found is not None:
                return found
        return None


def _members(mask: int) -> list[int]:
    """The set bits of a non-negative ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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


def generators(search: Search) -> tuple[list[Permutation], int, int]:
    """Generators of the automorphism group, its order and its number of orbits.

    The order is the product of the basic orbit lengths |i^(G_i)| along
    the stabiliser chain G = G_0 >= G_1 >= ... >= G_n = 1 with base
    0, 1, ..., n-1, where G_i fixes 0..i-1 pointwise.  Levels run from
    the deepest up.  At level i every generator found so far fixes
    0..i-1, and together they generate G_(i+1) on entry.  Each vertex
    j > i of i's degree that the closed orbit of i does not yet reach is
    searched for; an automorphism fixing 0..i-1 and sending i to j
    becomes a new generator.  On exit the generators reach every image
    of i under G_i, so they generate G_i.

    When j is a twin of i (the same neighbours, apart from each other),
    the transposition (i j) is taken without a search, and it is the
    automorphism the search would return.  The lex-first map with that
    prefix could differ from it only by sending some k, i < k < j, to i
    and every point between i and k to itself.  Such a map s sends k to
    i, so some automorphism fixing 0..i-1 sends i to k, and k joined i's
    cell earlier at this level; and (i j)s fixes 0..k-1 and sends k to
    j, so j joined k's cell at level k.  Then j is in i's cell already
    and is not searched for.
    """
    n = search.n
    nbr = search.nbr
    gens: list[Permutation] = []
    order = 1
    # the orbits of the group the generators found so far generate, each
    # the set cell[v] of every point v in it: a new generator joins the
    # cells of each point and its image; at the end they are G's orbits
    cell = [{v} for v in range(n)]
    orbits = n
    forced = {v: v for v in range(n)}
    for i in reversed(range(n)):
        for j in _members(search.same_degree[i] & -(2 << i)):  # j > i
            if j in cell[i]:
                continue
            if _twins(nbr, i, j):
                swap = list(range(n))
                swap[i], swap[j] = j, i
                perm = tuple(swap)
            else:
                forced[i] = j
                perm = search.first(forced)
                if perm is None:
                    continue
            gens.append(perm)
            for v, w in enumerate(perm):
                a, b = cell[v], cell[w]
                if a is not b:
                    if len(a) < len(b):
                        a, b = b, a
                    a |= b
                    for u in b:
                        cell[u] = a
                    orbits -= 1
        del forced[i]  # level i - 1 forces 0..i-2 only
        order *= len(cell[i])
    return gens, order, orbits


def _twins(nbr, a: int, b: int) -> bool:
    """Whether a and b have the same neighbours apart from each other, so
    that swapping them is an automorphism."""
    return not (nbr[a] ^ nbr[b]) & ~(1 << a | 1 << b)


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 1."""
    return _connected(g.nbr, (1 << g.n) - 1)


def enumerate_connected(n: int) -> list[Graph]:
    """One canonical representative per isomorphism class of connected graphs.

    Representatives are the minimal masks, in ascending mask order.
    """
    if not 1 <= n <= MAX_ENUMERATE_VERTICES:
        raise GraphError(f"enumeration supports 1..{MAX_ENUMERATE_VERTICES} vertices")
    return [Graph(n, rows) for rows in _connected_rows(n).values()]


def _connected_masks(n: int) -> list[int]:
    """Canonical masks of the connected graphs on n vertices, ascending."""
    return list(_connected_rows(n))


def _connected_rows(n: int) -> dict[int, tuple[int, ...]]:
    """The canonical mask of each connected graph on n vertices, mapped to
    its canonical neighbour bitmasks, in ascending mask order.

    Generation by canonical deletion (McKay, "Isomorph-free exhaustive
    generation", J. Algorithms 1998).  Removing a leaf of a spanning tree
    leaves a connected graph, so every connected graph G has a non-cut
    vertex, and G is a canonical parent P on n - 1 vertices plus a new
    vertex v with a non-empty neighbourhood.  The child is kept only when
    v is a canonical deletion vertex of G: among the non-cut vertices w
    of G, v has the least invariant (degree, then sorted neighbour
    degrees), and among those of least invariant, the canonical mask of
    G - w is least at v.

    The rule depends on the isomorphism class of G alone, and every
    vertex it accepts leaves the same canonical mask.  So G is kept from
    no parent but that mask, and it is kept from that parent: relabel G
    so that an accepted w comes last and G - w reads as P; the new vertex
    w then has the neighbourhood that makes the child.  Duplicates can
    only come from one parent, a dict per parent removes them, and the
    parents' dicts are disjoint.
    """
    if n == 1:
        return {0: (0,)}
    found: dict[int, tuple[int, ...]] = {}
    for parent, rows in _connected_rows(n - 1).items():
        found.update(_children(parent, rows))
    return dict(sorted(found.items()))


def _children(parent: int, base: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
    """The children of one canonical parent, its mask ``parent`` and its
    rows ``base``, whose new vertex is a canonical deletion vertex: each
    canonical mask mapped to the child's rows relabelled by the order
    that reaches it."""
    new = 1 << len(base)
    kept = {}
    for hood in _hood_representatives(base):
        nbr = [x | new if hood >> i & 1 else x for i, x in enumerate(base)]
        nbr.append(hood)
        if _deletes_canonically(nbr, parent):
            mask, order = _canonical_labelling(nbr)
            kept[mask] = _relabelled(nbr, order)
    return kept


def _hood_representatives(base: tuple[int, ...]) -> list[int]:
    """One neighbourhood from each orbit of Aut(P) on the non-empty
    neighbourhoods the degree bound keeps, the least of each, in
    increasing order.

    Let m be the least degree of a non-cut vertex of P.  The bound keeps
    the neighbourhoods of at most m vertices, and those of m + 1 that
    hold every non-cut vertex of degree m.  Every other one makes a child
    that the rule rejects.  A non-cut vertex u of P stays non-cut in the
    child unless the new vertex v hangs on u alone, and its degree grows
    by at most one.  So with more than m + 1 neighbours, v has a higher
    degree than a non-cut vertex of degree m in P has in the child, and
    with m + 1 that miss a non-cut u of degree m, v has a higher degree
    than u, which keeps degree m; in both cases v does not hang on that
    vertex alone, so it stays non-cut.

    Aut(P) keeps degrees and cut vertices, so it maps kept neighbourhoods
    onto kept ones.  Neighbourhoods in one orbit give isomorphic children
    by an isomorphism that fixes the new vertex, so the rule keeps all of
    them or none, and one of them is enough.
    """
    k = len(base)
    everyone = (1 << k) - 1
    m = k  # above every degree in P
    least = 0  # bits of the non-cut vertices of degree m
    for w, x in enumerate(base):
        d = x.bit_count()
        if d <= m and _connected(base, everyone ^ 1 << w):
            if d < m:
                m, least = d, 0
            least |= 1 << w
    hoods = [h for h in range(1, 1 << k)
             if (size := h.bit_count()) <= m or size == m + 1 and h & least == least]
    gens, _, _ = generators(Search(base))
    if not gens:
        return hoods
    on_hoods = [_on_subsets(s) for s in gens]
    seen: set[int] = set()
    reps = []
    for hood in hoods:
        if hood not in seen:
            reps.append(hood)
            seen |= orbit(hood, on_hoods)
    return reps


def _on_subsets(perm: Permutation) -> list[int]:
    """The permutation that ``perm`` induces on vertex sets, as bitmasks."""
    image = [0] * (1 << len(perm))
    for h in range(1, len(image)):
        low = h & -h
        image[h] = image[h ^ low] | 1 << perm[low.bit_length() - 1]
    return image


def _deletes_canonically(nbr: list[int], parent: int) -> bool:
    """Whether the last vertex v is a canonical deletion vertex of the
    connected graph ``nbr``, given that deleting v leaves the canonical
    mask ``parent``.  Ties on the invariant are settled by canonical
    masks, which are computed only after every cheaper test passed.

    A tie w is labelled only when it is not a twin of v (the same
    neighbours, apart from each other) and not a twin of a tie labelled
    before it.  Swapping two twins is an automorphism of the graph that
    maps deleting the one onto deleting the other, so the graphs left
    are isomorphic: deleting a twin of v leaves the mask ``parent``, and
    deleting a twin of a labelled tie leaves the mask already compared.
    """
    v = len(nbr) - 1
    everyone = (1 << len(nbr)) - 1
    deg = [x.bit_count() for x in nbr]
    dv = deg[v]
    sig_v = None
    ties = []
    for w in range(v):
        if deg[w] > dv:
            continue
        if deg[w] == dv:
            if sig_v is None:
                sig_v = _neighbour_degrees(nbr[v], deg)
            sig = _neighbour_degrees(nbr[w], deg)
            if sig > sig_v or not _connected(nbr, everyone ^ 1 << w):
                continue
            if sig < sig_v:
                return False
            ties.append(w)
        elif _connected(nbr, everyone ^ 1 << w):
            return False
    labelled = [v]
    for w in ties:
        if any(_twins(nbr, u, w) for u in labelled):
            continue
        if _canonical_labelling(_delete(nbr, w))[0] < parent:
            return False
        labelled.append(w)
    return True


def _neighbour_degrees(hood: int, deg: list[int]) -> list[int]:
    return sorted(deg[u] for u in range(len(deg)) if hood >> u & 1)


def _connected(nbr: list[int], rest: int) -> bool:
    """Whether the vertices in the bitmask ``rest`` induce a connected
    graph, by a breadth-first search over neighbour bitmasks; no vertex
    counts as connected."""
    reach = frontier = rest & -rest
    while frontier:
        bit = frontier & -frontier
        step = nbr[bit.bit_length() - 1] & rest & ~reach
        reach |= step
        frontier = (frontier ^ bit) | step
    return reach == rest


def _delete(nbr: list[int], w: int) -> list[int]:
    """Neighbour masks with vertex w removed and later vertices shifted down."""
    low = (1 << w) - 1
    return [x & low | x >> 1 & ~low for u, x in enumerate(nbr) if u != w]


_G6_PREFIX = ">>graph6<<"


def parse_graph6(text: str) -> Graph:
    """Decode a one-line graph6 string (n <= 16)."""
    s = text.strip()
    if s.startswith(_G6_PREFIX):
        s = s[len(_G6_PREFIX):]
    if not s:
        raise Graph6Error("empty graph6 string")
    head = ord(s[0])
    if head == 126:
        raise Graph6Error("multi-byte vertex count: n > 62 not supported")
    if not 63 <= head <= 125:
        raise Graph6Error(f"malformed header byte {s[0]!r}")
    n = head - 63
    if not 1 <= n <= MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} outside 1..{MAX_VERTICES}")
    k = n * (n - 1) // 2
    need = (k + 5) // 6
    payload = s[1:]
    if len(payload) < need:
        raise Graph6Error("truncated bit payload")
    if len(payload) > need:
        raise Graph6Error("trailing characters after bit payload")
    x = 0
    for c in payload:
        v = ord(c) - 63
        if not 0 <= v < 64:
            raise Graph6Error(f"malformed payload byte {c!r}")
        x = x << 6 | v
    pad = 6 * need - k
    if x & (1 << pad) - 1:
        raise Graph6Error("nonzero padding bits")
    # the k bits list the pairs (i, j), i < j, column by column, the first
    # most significant; reversed, bit j(j-1)/2 + i holds (i, j), so column
    # j is the part of nbr[j] below bit j
    y = int(format(x >> pad, f"0{k}b")[::-1], 2)
    nbr = [0] * n
    for j in range(1, n):
        col = y >> j * (j - 1) // 2 & (1 << j) - 1
        nbr[j] |= col
        bit = 1 << j
        while col:
            low = col & -col
            nbr[low.bit_length() - 1] |= bit
            col ^= low
    return Graph(n, tuple(nbr))


def to_graph6(g: Graph) -> str:
    """Encode a graph as graph6; bit-exact inverse of :func:`parse_graph6`."""
    n = g.n
    k = n * (n - 1) // 2
    y = 0  # the payload reversed, as parse_graph6 reads it
    for j in range(n - 1, 0, -1):
        y = y << j | g.nbr[j] & (1 << j) - 1
    need = (k + 5) // 6
    x = int(format(y, f"0{k}b")[::-1], 2) << 6 * need - k
    return chr(n + 63) + "".join([chr(63 + (x >> s & 63)) for s in range(6 * need - 6, -1, -6)])


def looks_like_adjacency(text: str) -> bool:
    """True for text of 0/1 digits and whitespace, which no graph6 line
    can be (graph6 characters lie in the range '?'..'~')."""
    stripped = text.strip()
    return bool(stripped) and all(c in "01 \t\n\r" for c in stripped)


def parse_adjacency(text: str) -> Graph:
    """Parse a 0/1 adjacency matrix, one row per line, whitespace tolerant."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        entries = []
        for c in stripped:
            if c in "01":
                entries.append(c)
            elif not c.isspace():
                raise AdjacencyError(f"invalid character {c!r} on line {lineno}")
        rows.append("".join(entries))
    if not rows:
        raise AdjacencyError("empty adjacency input")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise AdjacencyError(f"non-square matrix: {n} rows but row lengths {[len(r) for r in rows]}")
    if n > MAX_VERTICES:
        raise AdjacencyError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    for i in range(n):
        if rows[i][i] != "0":
            raise AdjacencyError(f"nonzero diagonal at vertex {i + 1}")
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise AdjacencyError(f"asymmetric matrix at ({i + 1},{j + 1})")
    # row i read right to left is the binary numeral of nbr[i]
    return Graph(n, tuple(int(r[::-1], 2) for r in rows))
