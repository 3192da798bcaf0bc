"""``Graph`` validation entry by entry, for tests only.

``validation_error`` walks the adjacency matrix in row-major order and
returns the message ``Graph`` raises for the first fault it meets, or
None for a valid graph.  It reads each entry on its own, so it shares no
bit trick with the package's check.
"""

from __future__ import annotations

from qsymgraph.graphs import MAX_VERTICES


def validation_error(n: int, nbr) -> str | None:
    if not 1 <= n <= MAX_VERTICES:
        return f"vertex count {n} outside 1..{MAX_VERTICES}"
    if len(nbr) != n or any(m < 0 or m >= 1 << n for m in nbr):
        return "adjacency matrix is not n x n"
    entry = [[nbr[i] >> j & 1 for j in range(n)] for i in range(n)]
    for i in range(n):
        if entry[i][i]:
            return f"self-loop at vertex {i + 1}"
        for j in range(n):
            if entry[i][j] != entry[j][i]:
                return f"asymmetric adjacency at ({i + 1},{j + 1})"
    return None
