"""Zero patterns forced by closed-walk counts (Fulton's criterion).

If the i-th and j-th diagonal entries of some adjacency power differ, the
magic-unitary generator u_ij must vanish, and by symmetry so must u_ji.
By Cayley-Hamilton every power A^l with l >= n is a fixed linear
combination of A^0, ..., A^(n-1), and A^0 has a constant diagonal, so
powers 1..n-1 (at least power 1) decide every pair.  So the pattern is a
partition of the vertices into classes of equal counts, and u_ii always
survives.  The criterion is vacuous on walk-regular (in particular
vertex-transitive) graphs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graphs import Graph


@dataclass(frozen=True)
class ZeroPattern:
    """Walk-count classes, ``classes[i]`` the least vertex of i's class,
    plus the last power examined; u_ij is forced to zero exactly when i
    and j lie in different classes."""

    classes: tuple[int, ...]
    max_power_used: int

    def __post_init__(self):  # least-vertex names make equal partitions equal
        cl = self.classes
        if any(not 0 <= c <= i or cl[c] != c for i, c in enumerate(cl)):
            raise ValueError(f"classes {cl} do not name each class by its least vertex")

    @property
    def n(self) -> int:
        return len(self.classes)

    def forced_count(self) -> int:
        return self.n ** 2 - sum(k * k for k in Counter(self.classes).values())

    def alive(self) -> list[tuple[int, int]]:
        """Generator positions not forced to zero, row-major, 0-based."""
        cl = self.classes
        return [(i, j) for i, ci in enumerate(cl) for j, cj in enumerate(cl) if ci == cj]


def zero_pattern(g: Graph, orbits: int | None = None) -> ZeroPattern:
    """Compare diagonal walk counts for every power up to n - 1 (at least 1).

    Stops early once there are as many classes as ``orbits``, the number
    of orbits of Aut(g), or as vertices when it is not given.  Walk
    counts are constant on orbits, so every class is a union of orbits,
    and once the classes are the orbits no later power splits one.

    Row i of A^k is one int with a w-bit field per column, so that
    row_i(A^k) is the sum of row_l(A^(k-1)) over the neighbours l of i.
    No entry up to power n - 1 exceeds (n-1)^(n-1), so no field carries
    into the next; w is at most 59 for n <= 16.
    """
    n = g.n
    cap = max(n - 1, 1)
    stop = n if orbits is None else orbits
    w = ((n - 1) ** (n - 1)).bit_length()
    mask = (1 << w) - 1
    nbrs = [[l for l in range(n) if x >> l & 1] for x in g.nbr]
    rows = [sum(1 << (w * l) for l in nb) for nb in nbrs]
    # vertices keep equal keys while all their diagonal counts agree
    keys = [()] * n
    for used in range(1, cap + 1):
        if used > 1:
            rows = [sum([rows[l] for l in nb]) for nb in nbrs]
        keys = [key + ((rows[i] >> (w * i)) & mask,) for i, key in enumerate(keys)]
        if len(set(keys)) == stop:
            break
    first: dict = {}
    return ZeroPattern(tuple(first.setdefault(key, i) for i, key in enumerate(keys)), used)


def render_pattern(pattern: ZeroPattern) -> str:
    """Partially specified generator matrix with entries "0" or "u_ij"."""
    cl = pattern.classes
    sep = "" if len(cl) <= 9 else "_"
    cells = [["0" if ci != cj else f"u_{i + 1}{sep}{j + 1}" for j, cj in enumerate(cl)]
             for i, ci in enumerate(cl)]
    width = max(len(c) for row in cells for c in row)
    return "\n".join(" ".join(c.rjust(width) for c in row) for row in cells)
