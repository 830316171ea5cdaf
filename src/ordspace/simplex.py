"""Exact two-phase simplex on a fraction-free integer tableau.

Small dense tableau solver for the margin programs in the line embedder.
The tableau holds integers over one common positive denominator d, so the
rational tableau is T / d. A pivot keeps the pivot row and maps every other
row, the objective row included, to (p * row - f * pivot_row) / d, an exact
division, after which the pivot element p is the new denominator (Edmonds
1967; Bareiss 1968). The pivots are the ones a Fraction tableau would make:
Bland's rule both for the entering column and ratio ties, ratios compared by
integer cross-products, so the iteration terminates; an iteration cap turns
any remaining surprise into SolverError rather than a wrong answer.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SolverError

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"

_MAX_ITERS = 20000


def solve_lp(objective, constraints):
    """Maximize objective . x over x >= 0 subject to constraints.

    objective: list of ints, one per variable.
    constraints: list of (coeffs, sense, rhs) with integer coeffs, sense
    "<=" or "==", and an integer rhs >= 0, so every "<=" slack starts the
    basis; any other row raises ValueError.
    Returns (status, x, value); x is a list of Fractions and value a
    Fraction, both None unless OPTIMAL.
    """
    nvars = len(objective)
    if any(type(c) is not int for c in objective):
        raise ValueError("objective coefficients must be integers")
    rows = []
    for coeffs, sense, rhs in constraints:
        row = [*coeffs, rhs]
        if len(row) != nvars + 1:
            raise ValueError("constraint width does not match objective")
        if sense not in ("<=", "==") or any(type(v) is not int for v in row) or rhs < 0:
            raise ValueError("constraints must be integer rows, <= or ==, with rhs >= 0")
        rows.append((row, sense))

    # columns: variables, then one slack per "<=" row, then one artificial
    # per "==" row to start the basis
    nslack = sum(sense == "<=" for _, sense in rows)
    ncols = nvars + len(rows)
    artificial = set(range(nvars + nslack, ncols))
    slack, art = nvars, nvars + nslack
    T, basis = [], []
    for row, sense in rows:
        if sense == "<=":
            basis.append(slack)
            slack += 1
        else:
            basis.append(art)
            art += 1
        t = row[:-1] + [0] * len(rows) + row[-1:]
        t[basis[-1]] = 1
        T.append(t)
    d = 1  # the identity starting basis has determinant 1

    if artificial:
        phase1 = [0] * ncols
        for j in artificial:
            phase1[j] = -1
        value, d = _run(T, basis, phase1, d, blocked=frozenset())
        if value is None or value < 0:
            return INFEASIBLE, None, None
        d = _drive_out_artificials(T, basis, d, artificial)

    cost = list(objective) + [0] * len(rows)
    value, d = _run(T, basis, cost, d, blocked=frozenset(artificial))
    if value is None:
        return UNBOUNDED, None, None
    x = [Fraction(0)] * nvars
    for i, bi in enumerate(basis):
        if bi < nvars:
            x[bi] = Fraction(T[i][-1], d)
    return OPTIMAL, x, value


def _run(T, basis, cost, d, blocked):
    """Simplex iterations for one phase on the tableau T / d; returns the
    optimal value as a Fraction (None if unbounded) and the denominator."""
    ncols = len(cost)
    obj = [d * c for c in cost] + [0]
    for i, row in enumerate(T):
        cb = cost[basis[i]]
        if cb:
            obj = [o - cb * v for o, v in zip(obj, row)]

    for _ in range(_MAX_ITERS):
        entering = -1
        for j in range(ncols):
            if j not in blocked and obj[j] > 0:
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
    """Fraction-free pivot; returns the updated objective row (or None) and
    the new denominator p. A negative pivot (only ever met driving out an
    artificial) negates the pivot row first; that negates every row of the
    result, which keeps d > 0 and the rational tableau unchanged."""
    prow = T[leaving]
    p = prow[entering]
    if p < 0:
        T[leaving] = prow = [-v for v in prow]
        p = -p
    for i, row in enumerate(T):
        if i != leaving:
            f = row[entering]
            T[i] = [(p * v - f * w) // d for v, w in zip(row, prow)]
    if obj is not None:
        f = obj[entering]
        obj = [(p * v - f * w) // d for v, w in zip(obj, prow)]
    basis[leaving] = entering
    return obj, p


def _drive_out_artificials(T, basis, d, artificial):
    """Swap basic zero-level artificials for real columns; redundant rows
    (all-zero on real columns) are neutralized in place. Returns the new
    denominator."""
    ncols = len(T[0]) - 1
    for i in range(len(T)):
        if basis[i] not in artificial:
            continue
        pivot_col = -1
        for j in range(ncols):
            if j not in artificial and T[i][j] != 0:
                pivot_col = j
                break
        if pivot_col < 0:
            # redundant constraint; clear the row so it can never pivot
            T[i] = [0] * (ncols + 1)
            continue
        _, d = _pivot(T, basis, None, i, pivot_col, d)
    # artificial columns are blocked from entering afterwards
    return d
