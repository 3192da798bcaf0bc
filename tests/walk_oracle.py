"""Adjacency matrices and their exact powers, for tests only.

The package reads a graph as neighbour bitmasks and never forms a
matrix.  Here the adjacency matrix is rebuilt from the edge list alone,
so the walk counts it gives are independent of the bitmask code they
check.  Entry (i, j) of A^l counts the walks of length l from i to j;
Python integers never overflow.
"""

from __future__ import annotations

from qsymgraph import Graph

Matrix = tuple[tuple[int, ...], ...]


def adjacency(g: Graph) -> Matrix:
    """The 0/1 adjacency matrix of ``g``, from ``g.edges()``."""
    rows = [[0] * g.n for _ in range(g.n)]
    for i, j in g.edges():
        rows[i][j] = rows[j][i] = 1
    return tuple(tuple(r) for r in rows)


def matrix_power(g: Graph, l: int) -> Matrix:
    """Exact l-th power of the adjacency matrix, by repeated squaring."""
    if l < 1:
        raise ValueError("power must be >= 1")
    result = base = adjacency(g)
    l -= 1
    while l:
        if l & 1:
            result = _mat_mul(result, base)
        l >>= 1
        if l:
            base = _mat_mul(base, base)
    return result


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )
