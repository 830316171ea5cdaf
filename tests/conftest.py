"""Shared helpers: fixture loading and small space constructors."""

import random
from fractions import Fraction
from pathlib import Path

from hypothesis import settings

from ordspace.formats import parse_hasse, parse_rank_matrix
from ordspace.space import DistanceMatrix, OrdinalSpace, all_pairs, ordinal_type

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# property tests draw the same examples on every run, and a slow example is
# never a failure; each test keeps its own max_examples
settings.register_profile("default", derandomize=True, deadline=None)
settings.load_profile("default")


def fixture_text(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


def load_space(name):
    return parse_rank_matrix(fixture_text(name))


def load_hasse(name):
    return parse_hasse(fixture_text(name))


def collinear(*xs):
    """Ordinal type of points on the line at the given rational positions."""
    rows = [[Fraction(abs(a - b)) for b in xs] for a in xs]
    return ordinal_type(DistanceMatrix.from_rows(rows))


def space_from_values(n, values):
    """Space whose pair ranks follow the given raw values (pair order of
    all_pairs); values are dense-ranked so levels are 1..k."""
    distinct = sorted(set(values))
    level = {v: i + 1 for i, v in enumerate(distinct)}
    rows = [[0] * n for _ in range(n)]
    for (i, j), v in zip(all_pairs(n), values):
        rows[i][j] = rows[j][i] = level[v]
    return OrdinalSpace(n, len(distinct), tuple(tuple(r) for r in rows))


def random_space(rng: random.Random, n, max_value=None):
    p = n * (n - 1) // 2
    if max_value is None:
        max_value = p
    return space_from_values(n, [rng.randint(1, max_value) for _ in range(p)])


def relabel(s: OrdinalSpace, perm):
    rows = [[s.ranks[perm[i]][perm[j]] for j in range(s.n)] for i in range(s.n)]
    return OrdinalSpace(s.n, s.k, tuple(tuple(r) for r in rows))
