"""Exact simplex solver used by the line embedder."""

from fractions import Fraction

import pytest

from ordspace import simplex


def check_feasible(x, constraints):
    assert all(v >= 0 for v in x)
    for coeffs, sense, rhs in constraints:
        lhs = sum(c * v for c, v in zip(coeffs, x))
        if sense == "<=":
            assert lhs <= rhs
        else:
            assert lhs == rhs


def test_known_optimum():
    objective = [3, 2]
    constraints = [
        ([1, 1], "<=", 4),
        ([1, 0], "<=", 2),
    ]
    status, x, value = simplex.solve_lp(objective, constraints)
    assert status == simplex.OPTIMAL
    assert value == 10
    assert x == [Fraction(2), Fraction(2)]
    check_feasible(x, constraints)


def test_infeasible():
    status, x, value = simplex.solve_lp([1], [([1], "<=", 1), ([1], "==", 2)])
    assert status == simplex.INFEASIBLE
    assert x is None and value is None


def test_unbounded():
    status, x, value = simplex.solve_lp([1], [([-1], "<=", 0)])
    assert status == simplex.UNBOUNDED
    assert x is None and value is None


def test_equality_and_negative_rhs():
    # -x1 >= -2 is refused; the caller writes it as x1 <= 2
    objective = [1, 0]
    with pytest.raises(ValueError):
        simplex.solve_lp(objective, [([1, 1], "==", 3), ([-1, 0], ">=", -2)])
    constraints = [
        ([1, 1], "==", 3),
        ([1, 0], "<=", 2),
    ]
    status, x, value = simplex.solve_lp(objective, constraints)
    assert status == simplex.OPTIMAL
    assert value == 2
    check_feasible(x, constraints)


def test_margin_program_shape():
    # maximize t with t - g1 <= 0, t - g2 <= 0, t - (g2 - g1) <= 0, g1 + g2 == 1
    objective = [0, 0, 1]
    constraints = [
        ([-1, 0, 1], "<=", 0),
        ([0, -1, 1], "<=", 0),
        ([1, -1, 1], "<=", 0),
        ([1, 1, 0], "==", 1),
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
        ([25, -6000, -4, 900], "<=", 0),
        ([50, -9000, -2, 300], "<=", 0),
        ([0, 0, 1, 0], "<=", 1),
    ]
    status, x, value = simplex.solve_lp(objective, constraints)
    assert status == simplex.OPTIMAL
    assert value == 5
    assert x == [Fraction(1, 25), 0, 1, 0]
    check_feasible(x, constraints)


def test_exact_rationals_survive():
    # a fractional optimum from integer rows
    status, x, value = simplex.solve_lp([2], [([3], "<=", 1)])
    assert status == simplex.OPTIMAL
    assert x == [Fraction(1, 3)]
    assert value == Fraction(2, 3)


def test_width_mismatch_rejected():
    with pytest.raises(ValueError):
        simplex.solve_lp([1], [([1, 2], "<=", 1)])


@pytest.mark.parametrize(
    "objective, row",
    [
        ([1], ([1], ">=", 0)),
        ([1], ([Fraction(1, 2)], "<=", 1)),
        ([1], ([1], "<=", -1)),
        ([Fraction(1)], ([1], "<=", 1)),
    ],
)
def test_unsupported_rows_rejected(objective, row):
    with pytest.raises(ValueError):
        simplex.solve_lp(objective, [row])
