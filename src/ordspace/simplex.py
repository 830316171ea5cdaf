"""Exact two-phase simplex on a condensed fraction-free integer tableau.

Small dense tableau solver for the margin programs in the line embedder.
The tableau holds integers over one common positive denominator d, so the
rational tableau is T / d. It is condensed: only the nonbasic columns and
the rhs are stored, since a basic column is always d times a unit vector
and storing it adds nothing (D. Avis, "lrs: a revised implementation of the
reverse search vertex enumeration algorithm", 2000). A pivot on (r, e)
keeps row r and maps every other row, the objective row included, to
(p * row - f * row_r) / d, an exact division, after which the pivot element
p is the new denominator (Edmonds 1967; Bareiss 1968). The leaving
variable's column takes slot e: s in row r and -f * s / d in every other
row, where f is that row's old entry in slot e and s = d, or -d when the
pivot row was negated. The pivots are the ones a Fraction tableau would
make: Bland's rule, the smallest variable index, both for the entering
column and ratio ties, ratios compared by integer cross-products, so the
iteration terminates; an iteration cap turns any remaining surprise into
SolverError rather than a wrong answer.
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

    # variables: the given ones, then one slack per "<=" row, then one
    # artificial per "==" row to start the basis; cols[j] is the variable
    # in nonbasic slot j, the given ones to start with
    nslack = sum(sense == "<=" for _, sense in rows)
    first_art = nvars + nslack
    basis, slack, art = [], nvars, first_art
    for _, sense in rows:
        basis.append(slack if sense == "<=" else art)
        slack, art = slack + (sense == "<="), art + (sense == "==")
    T = [row for row, _ in rows]
    cols = list(range(nvars))
    d = 1  # the identity starting basis has determinant 1

    if art > first_art:
        phase1 = [0] * first_art + [-1] * (art - first_art)
        value, d = _run(T, basis, cols, phase1, d)
        if value is None or value < 0:
            return INFEASIBLE, None, None
        d = _drive_out_artificials(T, basis, cols, d, first_art)
        # artificial columns may never enter again, so they are dropped
        keep = [j for j, v in enumerate(cols) if v < first_art] + [len(cols)]
        T = [[row[j] for j in keep] for row in T]
        cols = [cols[j] for j in keep[:-1]]

    cost = list(objective) + [0] * len(rows)
    value, d = _run(T, basis, cols, cost, d)
    if value is None:
        return UNBOUNDED, None, None
    x = [Fraction(0)] * nvars
    for i, bi in enumerate(basis):
        if bi < nvars:
            x[bi] = Fraction(T[i][-1], d)
    return OPTIMAL, x, value


def _run(T, basis, cols, cost, d):
    """Simplex iterations for one phase on the tableau T / d; returns the
    optimal value as a Fraction (None if unbounded) and the denominator."""
    obj = [d * cost[v] for v in cols] + [0]
    for i, row in enumerate(T):
        cb = cost[basis[i]]
        if cb:
            obj = [o - cb * v for o, v in zip(obj, row)]

    for _ in range(_MAX_ITERS):
        # Bland's rule; a basic column's reduced cost is 0, so only the
        # nonbasic ones are candidates
        entering = -1
        for j, o in enumerate(obj[:-1]):
            if o > 0 and (entering < 0 or cols[j] < cols[entering]):
                entering = j
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
        obj, d = _pivot(T, basis, cols, obj, leaving, entering, d)
    raise SolverError("simplex iteration cap exceeded")


def _pivot(T, basis, cols, obj, leaving, entering, d):
    """Fraction-free pivot; returns the updated objective row (or None) and
    the new denominator p. A negative pivot (only ever met driving out an
    artificial) negates the pivot row first, and with it the leaving
    column, s = -d; that negates every row of the result, which keeps d > 0
    and the rational tableau unchanged."""
    prow = T[leaving]
    p, s = prow[entering], d
    if p < 0:
        T[leaving] = prow = [-v for v in prow]
        p, s = -p, -d
    for i, row in enumerate(T):
        if i != leaving:
            f = row[entering]
            T[i] = row = [(p * v - f * w) // d for v, w in zip(row, prow)]
            row[entering] = -f * s // d
    if obj is not None:
        f = obj[entering]
        obj = [(p * v - f * w) // d for v, w in zip(obj, prow)]
        obj[entering] = -f * s // d
    prow[entering] = s
    basis[leaving], cols[entering] = cols[entering], basis[leaving]
    return obj, p


def _drive_out_artificials(T, basis, cols, d, first_art):
    """Swap basic zero-level artificials for real columns, the smallest
    variable index first; redundant rows (all-zero on real columns) are
    neutralized in place. Returns the new denominator."""
    for i, row in enumerate(T):
        if basis[i] < first_art:
            continue
        pivot_col = -1
        for j, v in enumerate(row[:-1]):
            if v and cols[j] < first_art and (pivot_col < 0 or cols[j] < cols[pivot_col]):
                pivot_col = j
        if pivot_col < 0:
            # redundant constraint; clear the row so it can never pivot
            T[i] = [0] * len(row)
            continue
        _, d = _pivot(T, basis, cols, None, i, pivot_col, d)
    return d
