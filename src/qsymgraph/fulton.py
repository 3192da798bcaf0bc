"""Zero patterns forced by closed-walk counts (Fulton's criterion).

If the i-th and j-th diagonal entries of some adjacency power differ, the
magic-unitary generator u_ij must vanish, and by symmetry so must u_ji.
By Cayley-Hamilton every power A^l with l >= n is a fixed linear
combination of A^0, ..., A^(n-1), and A^0 has a constant diagonal, so
powers 1..n-1 (at least power 1) decide every pair.  The criterion is
vacuous on walk-regular (in particular vertex-transitive) graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph


@dataclass(frozen=True)
class ZeroPattern:
    """n x n boolean matrix of generators forced to zero, plus the last power examined."""

    n: int
    forced_zero: tuple[tuple[bool, ...], ...]
    max_power_used: int

    def forced_count(self) -> int:
        return sum(sum(row) for row in self.forced_zero)

    def alive(self) -> list[tuple[int, int]]:
        """Generator positions not forced to zero, row-major, 0-based."""
        return [
            (i, j)
            for i in range(self.n)
            for j in range(self.n)
            if not self.forced_zero[i][j]
        ]


def zero_pattern(g: Graph) -> ZeroPattern:
    """Compare diagonal walk counts for every power up to n - 1 (at least 1).

    Stops early once every off-diagonal entry is forced; diagonal entries
    are never forced.

    Row i of A^k is one int with a w-bit field per column, so that
    row_i(A^k) is the sum of row_l(A^(k-1)) over the neighbours l of i.
    No entry up to power n - 1 exceeds (n-1)^(n-1), so no field carries
    into the next; w is at most 59 for n <= 16.
    """
    n = g.n
    cap = max(n - 1, 1)
    w = ((n - 1) ** (n - 1)).bit_length()
    mask = (1 << w) - 1
    nbrs = [[l for l in range(n) if row[l]] for row in g.adj]
    rows = [sum(1 << (w * l) for l in nb) for nb in nbrs]
    # vertices keep equal keys while all their diagonal counts agree
    keys = [()] * n
    for used in range(1, cap + 1):
        if used > 1:
            rows = [sum([rows[l] for l in nb]) for nb in nbrs]
        keys = [key + ((rows[i] >> (w * i)) & mask,) for i, key in enumerate(keys)]
        if len(set(keys)) == n:
            break
    forced = tuple(tuple(ki != kj for kj in keys) for ki in keys)
    return ZeroPattern(n, forced, used)


def render_pattern(pattern: ZeroPattern) -> str:
    """Partially specified generator matrix with entries "0" or "u_ij"."""
    cells = []
    for i in range(pattern.n):
        row = []
        for j in range(pattern.n):
            if pattern.forced_zero[i][j]:
                row.append("0")
            elif pattern.n <= 9:
                row.append(f"u_{i + 1}{j + 1}")
            else:
                row.append(f"u_{i + 1}_{j + 1}")
        cells.append(row)
    width = max(len(c) for row in cells for c in row)
    return "\n".join(" ".join(c.rjust(width) for c in row) for row in cells)
