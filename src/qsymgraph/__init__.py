"""Quantum symmetries of finite simple graphs.

A graph has quantum symmetries when the defining algebra of its quantum
automorphism group is noncommutative.  This package decides the question
by combining a disjoint-automorphism certificate, walk-count zero
patterns, and a commutativity check via two-sided Groebner bases in the
free algebra.
"""

from .automorphisms import (
    AutGroup,
    are_disjoint,
    automorphism_group,
    cycle_notation,
    find_disjoint_pair,
)
from .classify import (
    CheckResult,
    CheckStatus,
    ClassifyConfig,
    Presentation,
    Verdict,
    VerdictKind,
    build_relations,
    classify,
    qsym_check,
)
from .fulton import ZeroPattern, render_pattern, zero_pattern
from .graphs import (
    Graph,
    GraphError,
    canonical_form,
    enumerate_connected,
    is_connected,
    parse_adjacency,
    parse_graph6,
    to_graph6,
)
from .groebner import EngineLimits, GBasis, ResourceCapError, complete
from .pipeline import BatchReport, GraphRecord, OrderRow, RunConfig, render_table, run_batch

__all__ = [name for name in dir() if not name.startswith("_")]
