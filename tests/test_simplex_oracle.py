"""The simplex solver against an independent oracle: the best vertex of a
bounded polyhedron, found by solving every square system of its
constraint hyperplanes."""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ordspace import simplex

BOX = 5


def satisfies(x, constraints):
    if any(v < 0 for v in x):
        return False
    return all(sum(c * v for c, v in zip(coeffs, x)) <= rhs for coeffs, rhs in constraints)


def solve_square(rows):
    """Unique solution of the square system [a | b] rows, or None."""
    a = [[Fraction(v) for v in coeffs] + [Fraction(rhs)] for coeffs, rhs in rows]
    n = len(a)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] / a[i][i] for i in range(n)]


def best_vertex(objective, constraints):
    """Maximum of the objective over the feasible vertices. With x >= 0,
    rhs >= 0 and a bounding box the feasible set is a polytope holding the
    origin, so its maximum sits at a vertex."""
    n = len(objective)
    planes = list(constraints) + [([int(i == j) for j in range(n)], 0) for i in range(n)]
    best = None
    for subset in itertools.combinations(planes, n):
        x = solve_square(subset)
        if x is not None and satisfies(x, constraints):
            value = sum(c * v for c, v in zip(objective, x))
            best = value if best is None else max(best, value)
    return best


small = st.integers(-3, 3)


@st.composite
def boxed_lps(draw):
    n = draw(st.integers(1, 3))
    objective = draw(st.lists(small, min_size=n, max_size=n))
    box = [([int(i == j) for j in range(n)], BOX) for i in range(n)]
    extra = draw(
        st.lists(
            st.tuples(
                st.lists(small, min_size=n, max_size=n),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return objective, box + extra


@settings(max_examples=300)
@given(boxed_lps())
def test_solve_lp_matches_vertex_enumeration(lp):
    objective, constraints = lp
    status, x, value = simplex.solve_lp(objective, constraints)
    assert status == simplex.OPTIMAL
    assert value == best_vertex(objective, constraints)
    assert satisfies(x, constraints)
    assert sum(c * v for c, v in zip(objective, x)) == value
