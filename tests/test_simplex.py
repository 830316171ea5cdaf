"""Exact simplex solver used by the line embedder, and the full-tableau
solver it replaced, kept here as a reference: the condensed tableau must make
the same pivots and so return the same integers."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, collinear
from ordspace import line, simplex
from ordspace.errors import SizeLimitError, SolverError
from ordspace.formats import parse_comparisons, parse_distance_csv, parse_rank_matrix
from ordspace.simplex import _MAX_ITERS, OPTIMAL, UNBOUNDED
from ordspace.space import from_comparisons, ordinal_type


def check_feasible(x, constraints):
    assert all(v >= 0 for v in x)
    for coeffs, rhs in constraints:
        assert sum(c * v for c, v in zip(coeffs, x)) <= rhs


def test_known_optimum():
    objective = [3, 2]
    constraints = [
        ([1, 1], 4),
        ([1, 0], 2),
    ]
    status, x, value = simplex.solve_lp(objective, constraints)
    assert status == simplex.OPTIMAL
    assert value == 10
    assert x == [Fraction(2), Fraction(2)]
    check_feasible(x, constraints)


def test_unbounded():
    status, x, value = simplex.solve_lp([1], [([-1], 0)])
    assert status == simplex.UNBOUNDED
    assert x is None and value is None


def test_margin_program_shape():
    # maximize t with t - g1 <= 0, t - g2 <= 0, t - (g2 - g1) <= 0, g1 + g2 <= 1
    objective = [0, 0, 1]
    constraints = [
        ([-1, 0, 1], 0),
        ([0, -1, 1], 0),
        ([1, -1, 1], 0),
        ([1, 1, 0], 1),
    ]
    status, x, value = simplex.solve_lp(objective, constraints)
    assert status == simplex.OPTIMAL
    assert value == Fraction(1, 3)
    assert x[:2] == [Fraction(1, 3), Fraction(2, 3)]


def test_beale_cycling_example_terminates():
    # classic degenerate instance that cycles under naive pivoting, with
    # the objective and the first two rows scaled by 100 to integers
    objective = [75, -15000, 2, -600]
    constraints = [
        ([25, -6000, -4, 900], 0),
        ([50, -9000, -2, 300], 0),
        ([0, 0, 1, 0], 1),
    ]
    status, x, value = simplex.solve_lp(objective, constraints)
    assert status == simplex.OPTIMAL
    assert value == 5
    assert x == [Fraction(1, 25), 0, 1, 0]
    check_feasible(x, constraints)


def test_exact_rationals_survive():
    # a fractional optimum from integer rows
    status, x, value = simplex.solve_lp([2], [([3], 1)])
    assert status == simplex.OPTIMAL
    assert x == [Fraction(1, 3)]
    assert value == Fraction(2, 3)


def test_width_mismatch_rejected():
    with pytest.raises(ValueError):
        simplex.solve_lp([1], [([1, 2], 1)])


@pytest.mark.parametrize(
    "objective, row",
    [
        # a (coeffs, sense, rhs) triple is not a row
        ([1], ([1], "<=", 0)),
        ([1], ([Fraction(1, 2)], 1)),
        ([1], ([1], -1)),
        ([Fraction(1)], ([1], 1)),
    ],
)
def test_unsupported_rows_rejected(objective, row):
    with pytest.raises(ValueError):
        simplex.solve_lp(objective, [row])


# ---------------------------------------------------------------------------
# the full-tableau solver, kept as the reference: every column is stored,
# basic ones included

def reference_solve_lp(objective, constraints):
    """Maximize objective . x over x >= 0 subject to constraints.

    objective: list of ints, one per variable.
    constraints: list of (coeffs, rhs), each the row coeffs . x <= rhs with
    integer coeffs and an integer rhs >= 0; any other row raises ValueError.
    Returns (status, x, value); x is a list of Fractions and value a
    Fraction, both None unless OPTIMAL.
    """
    nvars = len(objective)
    if any(type(c) is not int for c in objective):
        raise ValueError("objective coefficients must be integers")
    rows = []
    for coeffs, rhs in constraints:
        row = [*coeffs, rhs]
        if len(row) != nvars + 1:
            raise ValueError("constraint width does not match objective")
        if any(type(v) is not int for v in row) or rhs < 0:
            raise ValueError("constraints must be integer <= rows with rhs >= 0")
        rows.append(row)

    # columns: variables, then one slack per row, which starts the basis
    T, basis = [], []
    for i, row in enumerate(rows):
        basis.append(nvars + i)
        t = row[:-1] + [0] * len(rows) + row[-1:]
        t[basis[-1]] = 1
        T.append(t)
    d = 1  # the identity starting basis has determinant 1

    cost = list(objective) + [0] * len(rows)
    value, d = _run(T, basis, cost, d)
    if value is None:
        return UNBOUNDED, None, None
    x = [Fraction(0)] * nvars
    for i, bi in enumerate(basis):
        if bi < nvars:
            x[bi] = Fraction(T[i][-1], d)
    return OPTIMAL, x, value


def _run(T, basis, cost, d):
    """Simplex iterations on the tableau T / d; returns the optimal value
    as a Fraction (None if unbounded) and the denominator."""
    ncols = len(cost)
    obj = [d * c for c in cost] + [0]
    for i, row in enumerate(T):
        cb = cost[basis[i]]
        if cb:
            obj = [o - cb * v for o, v in zip(obj, row)]

    for _ in range(_MAX_ITERS):
        entering = -1
        for j in range(ncols):
            if obj[j] > 0:
                entering = j
                break
        if entering < 0:
            return Fraction(-obj[-1], d), d
        # min ratio rhs / entry over positive entries; d > 0 cancels out
        leaving = -1
        for i, row in enumerate(T):
            a = row[entering]
            if a > 0:
                if leaving < 0:
                    leaving = i
                    continue
                here = row[-1] * T[leaving][entering]
                best = T[leaving][-1] * a
                if here < best or (here == best and basis[i] < basis[leaving]):
                    leaving = i
        if leaving < 0:
            return None, d
        obj, d = _pivot(T, basis, obj, leaving, entering, d)
    raise SolverError("simplex iteration cap exceeded")


def _pivot(T, basis, obj, leaving, entering, d):
    """Fraction-free pivot on a positive entry; returns the updated
    objective row (or None) and the new denominator p."""
    prow = T[leaving]
    p = prow[entering]
    for i, row in enumerate(T):
        if i != leaving:
            f = row[entering]
            T[i] = [(p * v - f * w) // d for v, w in zip(row, prow)]
    if obj is not None:
        f = obj[entering]
        obj = [(p * v - f * w) // d for v, w in zip(obj, prow)]
    basis[leaving] = entering
    return obj, p


# ---------------------------------------------------------------------------
# the condensed tableau against the reference


def same_as_reference(objective, constraints):
    got = simplex.solve_lp(objective, constraints)
    assert got == reference_solve_lp(objective, constraints)
    return got


coefficient = st.integers(-3, 3)


@st.composite
def integer_lps(draw):
    """Random integer LPs in solve_lp's form, rich in degenerate rows: rows
    with rhs 0, scaled copies of earlier rows, and opposite copies of rhs 0
    rows, which together hold an equality as the margin program's ties do."""
    n = draw(st.integers(1, 4))
    row = st.tuples(
        st.lists(coefficient, min_size=n, max_size=n),
        st.sampled_from([0, 0, 1, 2, 5]),
    )
    rows = draw(st.lists(row, max_size=5))
    copies = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(-1, 3)), max_size=2))
    for index, factor in copies:
        if rows:
            coeffs, rhs = rows[index % len(rows)]
            if factor and (factor > 0 or rhs == 0):
                rows.append(([factor * c for c in coeffs], factor * rhs))
    return draw(st.lists(coefficient, min_size=n, max_size=n)), rows


@settings(max_examples=600)
@given(integer_lps())
def test_condensed_tableau_matches_the_full_tableau(lp):
    same_as_reference(*lp)


BEALE = (
    [75, -15000, 2, -600],
    [([25, -6000, -4, 900], 0), ([50, -9000, -2, 300], 0), ([0, 0, 1, 0], 1)],
)


@pytest.mark.parametrize(
    "objective, constraints, status",
    [
        # an equality as two opposite rows, and scaled copies of one row:
        # ratio ties, where the smaller basis index leaves
        ([1, -1], [([1, -1], 0), ([-1, 1], 0), ([1, 0], 4)], OPTIMAL),
        ([1, 1], [([1, 1], 1), ([2, 2], 2)], OPTIMAL),
        ([0, -1, 1], [([0, 1, 2], 1), ([1, 1, -2], 1)], OPTIMAL),
        ([-1, 0, 1], [([2, 1, 1], 2), ([2, -1, 0], 2), ([-2, -1, 2], 0)], OPTIMAL),
        ([1], [([0], 0)], UNBOUNDED),
        # the margin program of three equally spaced points: its tie
        # d(x1,x2) = d(x2,x3) as two opposite rows
        ([0, 0, 1], [([-1, 0, 1], 0), ([0, -1, 1], 0), ([-1, 1, 0], 0), ([1, -1, 0], 0),
                     ([0, -1, 1], 0), ([1, 1, 0], 1)], OPTIMAL),
        # optimal at the start; every pivot degenerate; no rows at all
        ([0, 0], [([1, -1], 0)], OPTIMAL),
        ([1], [], UNBOUNDED),
        ([-1], [], OPTIMAL),
        ([1, 1], [([1, 0], 0), ([0, 1], 0), ([1, 1], 0)], OPTIMAL),
        (*BEALE, OPTIMAL),
    ],
)
def test_degenerate_programs_match_the_full_tableau(objective, constraints, status):
    assert same_as_reference(objective, constraints)[0] == status


@settings(max_examples=300)
@given(st.data())
def test_a_pivot_keeps_the_nonbasic_columns_of_the_full_tableau(data):
    # positive pivots anywhere, not only where Bland's rule and the ratio
    # test lead, side by side on the full tableau [A | I | b] and the
    # condensed [A | b]
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 4))
    rows = [data.draw(st.lists(coefficient, min_size=n + 1, max_size=n + 1)) for _ in range(m)]
    full = [r[:-1] + [int(i == j) for j in range(m)] + r[-1:] for i, r in enumerate(rows)]
    T, cols, basis, d = [list(r) for r in rows], list(range(n)), list(range(n, n + m)), 1
    full_basis, full_d = list(basis), 1
    for _ in range(data.draw(st.integers(1, 4))):
        choices = [(r, e) for r in range(m) for e in range(len(cols)) if T[r][e] > 0]
        if not choices:
            break
        r, e = data.draw(st.sampled_from(choices))
        _, full_d = _pivot(full, full_basis, None, r, cols[e], full_d)
        d = simplex._pivot(T, basis, cols, r, e, d)
        assert (basis, d) == (full_basis, full_d)
        assert T == [[row[v] for v in cols] + row[-1:] for row in full]


def margin_programs(spaces, monkeypatch):
    """The LPs embed_line sends to solve_lp for the given spaces."""
    seen = []
    real = simplex.solve_lp

    def record(objective, constraints):
        seen.append((objective, constraints))
        return real(objective, constraints)

    monkeypatch.setattr(simplex, "solve_lp", record)
    for s in spaces:
        try:
            line.embed_line(s)
        except SizeLimitError:
            pass
    monkeypatch.undo()
    return seen


def fixture_spaces():
    read = {".ord": parse_rank_matrix,
            ".csv": lambda t: ordinal_type(parse_distance_csv(t)),
            ".cmp": lambda t: from_comparisons(parse_comparisons(t))}
    return [read[p.suffix](p.read_text()) for p in sorted(FIXTURES.iterdir()) if p.suffix in read]


def test_margin_programs_match_the_full_tableau(monkeypatch):
    # seeded line spaces, n = 2..8, with distinct and with tied gaps
    rng = random.Random(26)
    spaces = [
        collinear(*rng.sample(range(top), n))
        for n in range(2, 9)
        for top in (n + 2, 3 * n, 1000)
        for _ in range(6)
    ]
    programs = margin_programs(spaces + fixture_spaces(), monkeypatch)
    # every line space reaches its one LP; the fixtures add theirs
    assert len(programs) > len(spaces)
    for objective, constraints in programs:
        same_as_reference(objective, constraints)
