"""Exact one-phase simplex on a condensed fraction-free integer tableau.

Small dense solver for the line embedder's margin program. Every row is
coeffs . x <= rhs with integers and rhs >= 0, so the slack basis at x = 0
starts the simplex and there is no phase 1. The tableau T holds integers
over one positive denominator d, and stores only the nonbasic columns and
the rhs, since a basic column is d times a unit vector (D. Avis, "lrs",
2000); its last row is the objective. A pivot on (r, e) keeps row r and
maps every other row to (p * row - f * row_r) / d, an exact division; the
pivot element p > 0 is the new denominator (Edmonds 1967; Bareiss 1968),
and the leaving variable's column takes slot e: d in row r, -f elsewhere.
At the optimum the objective row holds -d times each row's dual weight in
that row's slack column (V. Chvatal, Linear Programming, 1983, ch. 5).
Pivots follow Bland's rule, the smallest variable index for the entering
column and for ratio ties, with ratios compared by integer cross-products,
so the iteration terminates; a cap turns any surprise into SolverError.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SolverError

OPTIMAL = "OPTIMAL"
UNBOUNDED = "UNBOUNDED"

_MAX_ITERS = 20000


def solve_lp(objective, constraints):
    """Maximize objective . x over x >= 0 subject to constraints.

    objective: list of ints, one per variable.
    constraints: list of (coeffs, rhs), each the row coeffs . x <= rhs with
    integer coeffs and an integer rhs >= 0; any other row raises ValueError.
    x = 0 is feasible, so the status is OPTIMAL or UNBOUNDED. Returns
    (status, x, value); x is a list of Fractions and value a Fraction,
    both None unless OPTIMAL.
    """
    nvars = len(objective)
    if any(type(c) is not int for c in objective):
        raise ValueError("objective coefficients must be integers")
    T = []
    for coeffs, rhs in constraints:
        row = [*coeffs, rhs]
        if len(row) != nvars + 1:
            raise ValueError("constraint width does not match objective")
        if any(type(v) is not int for v in row) or rhs < 0:
            raise ValueError("constraints must be integer <= rows with rhs >= 0")
        T.append(row)

    # variables: the given ones, then one slack per row; cols[j] is the
    # variable in nonbasic slot j. The slack basis is the identity, so d = 1
    # and the objective row is the objective itself.
    basis = list(range(nvars, nvars + len(T)))
    cols = list(range(nvars))
    T.append([*objective, 0])
    d = 1
    for _ in range(_MAX_ITERS):
        # Bland's rule; a basic column's reduced cost is 0, so only the
        # nonbasic ones are candidates
        candidates = [j for j, o in enumerate(T[-1][:-1]) if o > 0]
        if not candidates:
            at = dict(zip(basis, T))
            x = [Fraction(at[v][-1], d) if v in at else Fraction(0) for v in range(nvars)]
            return OPTIMAL, x, Fraction(-T[-1][-1], d)
        entering = min(candidates, key=cols.__getitem__)
        # min ratio rhs / entry over positive entries; d > 0 cancels out
        leaving = -1
        for i, bi in enumerate(basis):
            a = T[i][entering]
            if a > 0 and (leaving < 0 or (T[i][-1] * T[leaving][entering], bi)
                          < (T[leaving][-1] * a, basis[leaving])):
                leaving = i
        if leaving < 0:
            return UNBOUNDED, None, None
        d = _pivot(T, basis, cols, leaving, entering, d)
    raise SolverError("simplex iteration cap exceeded")


def _pivot(T, basis, cols, leaving, entering, d):
    """Fraction-free pivot on the positive entry T[leaving][entering] of
    the tableau T / d, every row of T included; returns the new
    denominator."""
    prow = T[leaving]
    p = prow[entering]
    for i, row in enumerate(T):
        if i != leaving:
            f = row[entering]
            T[i] = row = [(p * v - f * w) // d for v, w in zip(row, prow)]
            row[entering] = -f
    prow[entering] = d
    basis[leaving], cols[entering] = cols[entering], basis[leaving]
    return p
