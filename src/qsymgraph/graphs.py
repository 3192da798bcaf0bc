"""Finite simple undirected graphs: parsing, canonical forms, enumeration.

Graphs are stored as symmetric 0/1 adjacency matrices with empty diagonal.
Vertices are 0-based internally; all user-facing rendering is 1-based.
Matrix powers use Python integers, so walk counts never overflow.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

MAX_VERTICES = 16

# n = 8 (11,117 graphs) enumerated and classified in about 15 s in all on a
# 2-core machine; the cap stays until that run has a pinned table.
MAX_ENUMERATE_VERTICES = 7


class GraphError(ValueError):
    """Invalid graph data or unparsable graph input."""


class Graph6Error(GraphError):
    """Malformed graph6 string."""


class AdjacencyError(GraphError):
    """Malformed adjacency-matrix text."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on ``n`` vertices with adjacency rows ``adj``."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_VERTICES:
            raise GraphError(f"vertex count {self.n} outside 1..{MAX_VERTICES}")
        if len(self.adj) != self.n or any(len(row) != self.n for row in self.adj):
            raise GraphError("adjacency matrix is not n x n")
        for i in range(self.n):
            if self.adj[i][i] != 0:
                raise GraphError(f"self-loop at vertex {i + 1}")
            for j in range(self.n):
                if self.adj[i][j] not in (0, 1):
                    raise GraphError(f"non-binary adjacency entry at ({i + 1},{j + 1})")
                if self.adj[i][j] != self.adj[j][i]:
                    raise GraphError(f"asymmetric adjacency at ({i + 1},{j + 1})")

    @staticmethod
    def from_edges(n: int, edges, *, one_based: bool = True) -> "Graph":
        """Build a graph from an edge list, 1-based by default."""
        off = 1 if one_based else 0
        rows = [[0] * n for _ in range(n)]
        for i, j in edges:
            a, b = i - off, j - off
            if not (0 <= a < n and 0 <= b < n):
                raise GraphError(f"edge ({i},{j}) outside vertex range")
            if a == b:
                raise GraphError(f"self-loop at vertex {i}")
            rows[a][b] = rows[b][a] = 1
        return Graph(n, tuple(tuple(r) for r in rows))

    @staticmethod
    def from_mask(n: int, mask: int) -> "Graph":
        """Inverse of :meth:`mask`."""
        pairs = _pairs(n)
        k = len(pairs)
        rows = [[0] * n for _ in range(n)]
        for p, (i, j) in enumerate(pairs):
            if mask >> (k - 1 - p) & 1:
                rows[i][j] = rows[j][i] = 1
        return Graph(n, tuple(tuple(r) for r in rows))

    def mask(self) -> int:
        """Upper-triangle bits, row-major, first pair most significant.

        Integer order of masks equals lexicographic order of adjacency
        matrices, so the canonical form below is plain integer min.
        """
        pairs = _pairs(self.n)
        k = len(pairs)
        m = 0
        for p, (i, j) in enumerate(pairs):
            if self.adj[i][j]:
                m |= 1 << (k - 1 - p)
        return m

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in range(i + 1, self.n) if self.adj[i][j]]

    def edge_count(self) -> int:
        return len(self.edges())

    def degree(self, v: int) -> int:
        return sum(self.adj[v])


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def canonical_form(g: Graph) -> Graph:
    """Lexicographically minimal adjacency matrix over all relabelings."""
    return Graph.from_mask(g.n, _canonical_mask(_neighbour_masks(g)))


def _neighbour_masks(g: Graph) -> list[int]:
    return [sum(1 << j for j, a in enumerate(row) if a) for row in g.adj]


def _canonical_mask(nbr: list[int]) -> int:
    """Minimal :meth:`Graph.mask` over all relabelings, from neighbour bitmasks.

    The mask lists row 0 first, so positions are filled in order.  With
    positions 0..t-1 placed, the unplaced vertices form an ordered
    partition into cells, and position t takes a vertex of the first cell.
    Row t is least when that vertex's non-neighbours precede its
    neighbours in every cell, which fixes row t and splits each cell in
    two.  Every state reaching the least row goes on to the next level,
    once per distinct partition, since the partition fixes the future.
    """
    n = len(nbr)
    states = {((1 << n) - 1,)}
    mask = 0
    for t in range(n - 1):
        best = -1
        survivors: set[tuple[int, ...]] = set()
        for cells in states:
            first = cells[0]
            while first:
                bit = first & -first
                first ^= bit
                nv = nbr[bit.bit_length() - 1]
                rest = cells[0] ^ bit
                parts = (rest,) + cells[1:] if rest else cells[1:]
                row = 0
                for c in parts:
                    row = row << c.bit_count() | (1 << (c & nv).bit_count()) - 1
                if 0 <= best < row:
                    continue
                if row != best:
                    best = row
                    survivors = set()
                survivors.add(tuple(x for c in parts for x in (c & ~nv, c & nv) if x))
        mask = mask << (n - 1 - t) | best
        states = survivors
    return mask


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 1."""
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in range(g.n):
            if g.adj[v][w] and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def matrix_power(g: Graph, l: int) -> tuple[tuple[int, ...], ...]:
    """Exact l-th power of the adjacency matrix; entry (i,j) counts walks."""
    if l < 1:
        raise ValueError("power must be >= 1")
    n = g.n
    result = g.adj
    base = g.adj
    l -= 1
    while l:
        if l & 1:
            result = _mat_mul(result, base, n)
        l >>= 1
        if l:
            base = _mat_mul(base, base, n)
    return result


def _mat_mul(a, b, n):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def enumerate_connected(n: int) -> list[Graph]:
    """One canonical representative per isomorphism class of connected graphs.

    Representatives are the minimal masks, in ascending mask order.
    """
    if not 1 <= n <= MAX_ENUMERATE_VERTICES:
        raise GraphError(f"enumeration supports 1..{MAX_ENUMERATE_VERTICES} vertices")
    return [Graph.from_mask(n, m) for m in _connected_masks(n)]


def _connected_masks(n: int) -> list[int]:
    """Canonical masks of the connected graphs on n vertices, ascending.

    Removing a leaf of a spanning tree leaves a connected graph, so every
    connected graph is a smaller representative plus a new vertex with a
    non-empty neighbourhood.
    """
    if n == 1:
        return [0]
    new = 1 << (n - 1)
    found = set()
    for m in _connected_masks(n - 1):
        base = _neighbour_masks(Graph.from_mask(n - 1, m))
        for hood in range(1, new):
            nbr = [x | new if hood >> i & 1 else x for i, x in enumerate(base)]
            nbr.append(hood)
            found.add(_canonical_mask(nbr))
    return sorted(found)


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
    bits = []
    for c in payload:
        v = ord(c) - 63
        if not 0 <= v < 64:
            raise Graph6Error(f"malformed payload byte {c!r}")
        bits.extend((v >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[k:]):
        raise Graph6Error("nonzero padding bits")
    rows = [[0] * n for _ in range(n)]
    p = 0
    for j in range(1, n):
        for i in range(j):
            rows[i][j] = rows[j][i] = bits[p]
            p += 1
    return Graph(n, tuple(tuple(r) for r in rows))


def to_graph6(g: Graph) -> str:
    """Encode a graph as graph6; bit-exact inverse of :func:`parse_graph6`."""
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(g.adj[i][j])
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(g.n + 63)]
    for p in range(0, len(bits), 6):
        v = 0
        for b in bits[p:p + 6]:
            v = v << 1 | b
        chars.append(chr(v + 63))
    return "".join(chars)


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
                entries.append(int(c))
            elif not c.isspace():
                raise AdjacencyError(f"invalid character {c!r} on line {lineno}")
        rows.append(entries)
    if not rows:
        raise AdjacencyError("empty adjacency input")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise AdjacencyError(f"non-square matrix: {n} rows but row lengths {[len(r) for r in rows]}")
    if n > MAX_VERTICES:
        raise AdjacencyError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    for i in range(n):
        if rows[i][i] != 0:
            raise AdjacencyError(f"nonzero diagonal at vertex {i + 1}")
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise AdjacencyError(f"asymmetric matrix at ({i + 1},{j + 1})")
    return Graph(n, tuple(tuple(r) for r in rows))
