"""Ten end-to-end acceptance checks, one test per numbered criterion, each
printing a single ACCEPTANCE line with its verdict and timing.

Criterion 5 asserts the proven status of a conjecture: distinct-rank spaces
need at least n(n+1)/2 balls, with equality only for the reference diagram
shape. Exhaustive enumeration proves both clauses at n = 3 and refutes both
at n = 4: two of the thirty classes get by with 9 balls, under the
conjectured 10, and among the sixteen classes that do attain 10 balls only
six have the reference diagram shape. The check fails if the program ever
reports the bound as holding at n = 4, or if any of these numbers changes.
"""

import itertools
import os
import random
import time
from collections import Counter
from fractions import Fraction

from conftest import load_hasse, load_space, space_from_values
from ordspace.balls import ball_set, balls_at, hasse, hasse_isomorphic
from ordspace.census import (
    A263511_PREFIX,
    CensusFilter,
    Verdict,
    census_report,
    enumerate_spaces,
    minimal_hasse_shape_probe,
    triangular,
)
from ordspace.euclid import (
    cayley_menger,
    nearest_class_bound,
    plane_necessary_check,
    realize_simplex,
)
from ordspace.line import (
    NOT_EMBEDDABLE,
    MajorizationMode,
    check_majorization,
    classify_four_point,
    embed_line,
    profile_necessary_check,
)
from ordspace.orddist import d_ord, d_ord_oracle
from ordspace.space import (
    DistanceMatrix,
    Relation,
    is_isomorphic,
    ordinal_type,
    realize,
    weakly_similar,
)


def report(num, ok, detail, started, budget, finding=""):
    """Print the ACCEPTANCE line and fail unless ok within budget. detail
    names the correctness failure; finding is what a passing check shows."""
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"ACCEPTANCE {num}: {status} [{elapsed:.2f}s of {budget:.0f}s budget]"
    if not ok:
        line += f": {detail}"
    elif status == "FAIL":
        line += ": over time budget"
    elif finding:
        line += f": {finding}"
    print(line, flush=True)
    assert status == "PASS", line


TABLE_CHAINS = {
    0: ["a", "ab", "abf", "abef", "abcef", "abcdef"],
    1: ["b", "bc", "abc", "abcf", "abcdf", "abcdef"],
    2: ["c", "cd", "bcd", "bcde", "abcde", "abcdef"],
    3: ["d", "de", "cde", "cdef", "bcdef", "abcdef"],
    4: ["e", "ef", "def", "adef", "acdef", "abcdef"],
    5: ["f", "ef", "aef", "abef", "abdef", "abcdef"],
}


def test_acceptance_01_table_ball_chains():
    t0 = time.perf_counter()
    s = load_space("table6.ord")
    ok = len(ball_set(s)) == 29
    letters = "abcdef"
    for center, words in TABLE_CHAINS.items():
        chain = balls_at(s, center)
        expected = [tuple(sorted(letters.index(ch) for ch in w)) for w in words]
        ok = ok and chain == expected
    report(1, ok, "six-point table chains or total differ", t0, 1.0)


def test_acceptance_02_tree_pair():
    t0 = time.perf_counter()
    a = load_space("tree5_a.ord")
    b = load_space("tree5_b.ord")
    ok = len(ball_set(a)) == 9 and len(ball_set(b)) == 9
    ok = ok and hasse_isomorphic(hasse(ball_set(a)), hasse(ball_set(b)))
    ok = ok and not is_isomorphic(a, b)
    ok = ok and not weakly_similar(realize(a), realize(b))
    report(2, ok, "five-point tree pair invariants differ", t0, 1.0)


def test_acceptance_03_four_point_classifier_vs_lp():
    t0 = time.perf_counter()
    spaces = enumerate_spaces(4, CensusFilter.ALL)
    ok = len(spaces) == 225
    embeddable = 0
    for s in spaces:
        tag = classify_four_point(s)
        witness = embed_line(s)
        agreed = (tag is not NOT_EMBEDDABLE) == (witness is not None)
        ok = ok and agreed
        embeddable += witness is not None
    ok = ok and embeddable == 14 and census_report(4).r1_embeddable_count == 14
    report(3, ok, f"classifier/LP disagreement or count {embeddable} != 14", t0, 30.0)


def test_acceptance_04_max_ball_prefix():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2, 3, 4):
        ext = census_report(n).extremes
        ok = ok and ext.max_balls == A263511_PREFIX[n - 1]
        ok = ok and ext.matches_A263511 is Verdict.MATCH
    detail = "max ball counts differ from (1,3,6,12)"
    budget = 60.0
    if os.environ.get("ORDSPACE_HUGE"):
        budget = 4 * 3600.0
        ext = census_report(5, huge=True).extremes
        ok = ok and ext.max_balls == 19 and ext.matches_A263511 is Verdict.MATCH
        detail = "n=5 maximum differs from 19"
    report(4, ok, detail, t0, budget)


def test_acceptance_05_min_ball_triangular_bound():
    # Conjecture: at least triangular(n) balls, equality only for the
    # reference shape. Pinned per n: (minimum ball count, classes at the
    # minimum, classes at triangular(n), of those matching the reference).
    t0 = time.perf_counter()
    proven = {3: (6, 1, 1, 1), 4: (9, 2, 16, 6)}
    ok = True
    detail = []
    for n, ref_name in ((3, "ref3.hasse"), (4, "ref4.hasse")):
        probe = minimal_hasse_shape_probe(n, load_hasse(ref_name))
        got = (probe.min_balls, probe.min_attainers, probe.bound_attainers, probe.bound_matching)
        holds = n == 3
        if (
            probe.expected_min != triangular(n)
            or got != proven[n]
            or probe.bound_is_minimum is not holds
            or probe.equality_clause_holds is not holds
        ):
            ok = False
            detail.append(f"n={n}: probe reports {got}, proven {proven[n]}")
    # outside the census: S4 acts freely on the 720 injective assignments
    counts = Counter(len(ball_set(space_from_values(4, v))) for v in itertools.permutations(range(6)))
    if min(counts) != 9 or (counts[9], counts[10]) != (24 * 2, 24 * 16):
        ok = False
        detail.append(f"raw n=4 ball counts {sorted(counts.items())}")
    witness = space_from_values(4, [1, 6, 5, 4, 3, 2])
    if witness.k != 6 or len(ball_set(witness)) != 9:
        ok = False
        detail.append("hand-built 9-ball witness changed")
    finding = (
        "bound holds at n=3 (min 6, 1/1 match ref3); refuted at n=4: "
        f"min 9 < {triangular(4)} (2 classes), 6 of 16 ten-ball classes match ref4"
    )
    report(5, ok, "; ".join(detail), t0, 60.0, finding)


def test_acceptance_06_determinants_and_simplex_realization():
    t0 = time.perf_counter()
    ok = True
    for a in (Fraction(1), Fraction(3, 2), Fraction(2)):
        for k in range(1, 7):
            n = k + 1
            rows = tuple(
                tuple(Fraction(0) if i == j else a for j in range(n)) for i in range(n)
            )
            res = cayley_menger(DistanceMatrix(n, rows))
            ok = ok and res.value == (-1) ** (k + 1) * (k + 1) * a ** (2 * k)
    checked = 0
    for n in (1, 2, 3, 4):
        for s in enumerate_spaces(n, CensusFilter.ALL):
            w = realize_simplex(s)
            ok = ok and w.certificate.rank == max(n - 1, 0)
            checked += 1
    for s in enumerate_spaces(5, CensusFilter.INJECTIVE):
        w = realize_simplex(s)
        ok = ok and w.certificate.rank == 4
        checked += 1
    rng = random.Random(20260815)
    for _ in range(100):
        values = [rng.randint(1, 21) for _ in range(21)]
        s = space_from_values(7, values)
        w = realize_simplex(s)
        ok = ok and w.certificate.rank == 6
        checked += 1
    report(6, ok, f"determinant or realization failure ({checked} spaces)", t0, 60.0)


def test_acceptance_07_seven_point_counterexample():
    t0 = time.perf_counter()
    s = load_space("seven_swap.ord")
    ident = tuple(range(7))
    full = check_majorization(s, ident, MajorizationMode.FULL)
    ok = not full.ok and full.counterexample == ((1, 3, 4), (4, 6, 7))
    ok = ok and check_majorization(s, ident, MajorizationMode.CONSECUTIVE).ok
    report(7, ok, f"got {full.counterexample}", t0, 1.0)


def test_acceptance_08_distance_metric_suite():
    t0 = time.perf_counter()
    ok = True
    values = {}
    for n in (1, 2, 3, 4):
        spaces = enumerate_spaces(n, CensusFilter.ALL)
        for i, a in enumerate(spaces):
            for j in range(i, len(spaces)):
                b = spaces[j]
                r = d_ord(a, b)
                ok = ok and (r.value == 0) == (i == j)
                ok = ok and d_ord(b, a).value == r.value
                oracle_value, _ = d_ord_oracle(a, b)
                ok = ok and oracle_value == r.value
                if n == 3:
                    values[(i, j)] = values[(j, i)] = r.value
        if n == 3:
            for i, j, t in itertools.product(range(len(spaces)), repeat=3):
                ok = ok and values[(i, t)] <= values[(i, j)] + values[(j, t)]
    spaces4 = enumerate_spaces(4, CensusFilter.ALL)
    rng = random.Random(8)
    cache = {}

    def dval(i, j):
        if (i, j) not in cache:
            cache[(i, j)] = cache[(j, i)] = d_ord(spaces4[i], spaces4[j]).value
        return cache[(i, j)]

    for _ in range(200):
        i, j, t = (rng.randrange(225) for _ in range(3))
        ok = ok and dval(i, t) <= dval(i, j) + dval(j, t)
    report(8, ok, "metric property violated or oracle disagreement", t0, 120.0)


def test_acceptance_09_necessary_condition_suites():
    t0 = time.perf_counter()
    ok = True
    for n in (2, 3, 4):
        for s in enumerate_spaces(n, CensusFilter.ALL):
            if embed_line(s) is not None:
                ok = ok and profile_necessary_check(s) == (True, None)
    plane_ok, violations = plane_necessary_check(space_from_values(5, [1] * 10))
    ok = ok and not plane_ok
    ok = ok and ("diametrical_pairs", 10, 5) in violations
    ok = ok and nearest_class_bound(10) == 19
    report(9, ok, "a necessary-condition suite failed", t0, 60.0)


def test_acceptance_10_round_trip_and_axioms():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2, 3, 4):
        for s in enumerate_spaces(n, CensusFilter.ALL):
            ok = ok and ordinal_type(realize(s)) == s
            pts = range(s.n)
            for x, y in itertools.product(pts, repeat=2):
                for z, w in itertools.product(pts, repeat=2):
                    r = s.relation(x, y, z, w)
                    if (x, y) == (z, w):
                        ok = ok and r is Relation.EQ
                    ok = ok and r is s.relation(y, x, z, w)
                    ok = ok and r is s.relation(x, y, w, z)
                    ok = ok and r is s.relation(z, w, x, y).flipped()
                    if x == y:
                        expected = Relation.EQ if z == w else Relation.LT
                        ok = ok and r is expected
            for x, y, u, v, z, w in itertools.product(pts, repeat=6):
                ab = s.relation(x, y, u, v)
                bc = s.relation(u, v, z, w)
                ac = s.relation(x, y, z, w)
                if ab is Relation.EQ and bc is Relation.EQ:
                    ok = ok and ac is Relation.EQ
                elif ab is Relation.LT and bc is not Relation.GT:
                    ok = ok and ac is Relation.LT
                elif ab is not Relation.GT and bc is Relation.LT:
                    ok = ok and ac is Relation.LT
    report(10, ok, "round trip or axiom failure", t0, 60.0)
