"""Exact Cayley-Menger machinery, simplex realization, plane bounds, the
heuristic embedder, and the subset probe."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import collinear, load_space, random_space, space_from_values
from ordspace import euclid
from ordspace.census import CensusFilter, enumerate_spaces
from ordspace.errors import ValidationError
from ordspace.euclid import (
    EMBEDDABLE,
    INCONCLUSIVE,
    NOT_EMBEDDABLE_STATUS,
    _certificate_from_squared,
    blumenthal_check,
    cayley_menger,
    dp_pairs,
    embed_heuristic,
    menger_probe,
    nearest_class_bound,
    plane_necessary_check,
    realize_simplex,
)
from ordspace.space import DistanceMatrix, all_pairs

ALL_EQUAL_5 = space_from_values(5, [1] * 10)


def equal_distance_matrix(n, a):
    rows = [[Fraction(0) if i == j else Fraction(a) for j in range(n)] for i in range(n)]
    return DistanceMatrix(n, tuple(tuple(r) for r in rows))


def triangle(a, b, c):
    return DistanceMatrix(
        3,
        (
            (Fraction(0), Fraction(a), Fraction(b)),
            (Fraction(a), Fraction(0), Fraction(c)),
            (Fraction(b), Fraction(c), Fraction(0)),
        ),
    )


def ranks_from_squared(squared, n):
    values = sorted({squared[i][j] for i, j in all_pairs(n)})
    level = {v: r + 1 for r, v in enumerate(values)}
    rows = [[0] * n for _ in range(n)]
    for i, j in all_pairs(n):
        rows[i][j] = rows[j][i] = level[squared[i][j]]
    return tuple(tuple(r) for r in rows)


def test_equal_distances_closed_form():
    # k+1 mutually equidistant points: determinant (-1)^(k+1) (k+1) a^(2k)
    for a in (Fraction(1), Fraction(3, 2), Fraction(2)):
        for k in range(1, 7):
            res = cayley_menger(equal_distance_matrix(k + 1, a))
            assert res.k == k
            assert res.value == (-1) ** (k + 1) * (k + 1) * a ** (2 * k)
            assert res.sign == (-1) ** (k + 1)


def test_two_point_determinant():
    res = cayley_menger(equal_distance_matrix(2, Fraction(5, 3)))
    assert res.value == 2 * Fraction(5, 3) ** 2
    res = cayley_menger(equal_distance_matrix(2, 1), points=[0])
    assert (res.k, res.value, res.sign) == (0, -1, -1)


def test_right_triangle_area():
    # D = -16 A^2 for three points; the 3-4-5 triangle has area 6
    res = cayley_menger(triangle(3, 4, 5))
    assert res.value == -16 * 36
    assert res.sign == -1


def test_collinear_triple_degenerates():
    res = cayley_menger(triangle(1, 3, 2))
    assert res.value == 0 and res.sign == 0
    ok, bad_k = blumenthal_check(triangle(1, 3, 2))
    assert not ok and bad_k == 2


def test_blumenthal_accepts_right_triangle():
    assert blumenthal_check(triangle(3, 4, 5)) == (True, None)


def test_scaling_law():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(2, 5)
        vals = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n * (n - 1) // 2)]
        rows = [[Fraction(0)] * n for _ in range(n)]
        it = iter(vals)
        for i, j in all_pairs(n):
            rows[i][j] = rows[j][i] = next(it)
        d = DistanceMatrix(n, tuple(tuple(r) for r in rows))
        c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        scaled = DistanceMatrix(n, tuple(tuple(c * v for v in r) for r in rows))
        base = cayley_menger(d)
        assert cayley_menger(scaled).value == c ** (2 * base.k) * base.value


def test_determinant_against_float_oracle():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 6)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i, j in all_pairs(n):
            rows[i][j] = rows[j][i] = Fraction(rng.randint(1, 12), rng.randint(1, 5))
        d = DistanceMatrix(n, tuple(tuple(r) for r in rows))
        exact = cayley_menger(d).value
        m = np.zeros((n + 1, n + 1))
        m[0, 1:] = m[1:, 0] = 1.0
        for i in range(n):
            for j in range(n):
                m[i + 1, j + 1] = float(rows[i][j]) ** 2
        approx = np.linalg.det(m)
        assert math.isclose(float(exact), approx, rel_tol=1e-6, abs_tol=1e-6)


def test_cayley_menger_subset_argument():
    s = load_space("table6.ord")
    w = realize_simplex(s)
    d = DistanceMatrix(
        3,
        tuple(
            tuple(w.certificate.squared[i][j] for j in (0, 2, 5))
            for i in (0, 2, 5)
        ),
    )
    # squared entries are not distances; just exercise subset selection
    full = cayley_menger(d)
    direct = cayley_menger(d, points=[0, 1, 2])
    assert full == direct
    with pytest.raises(ValidationError):
        cayley_menger(d, points=[0, 0])
    with pytest.raises(ValidationError):
        cayley_menger(d, points=[])


def simplex_fixture_names():
    return ["min3.ord", "min4.ord", "tree5_a.ord", "table6.ord", "case_d8.ord"]


def test_realize_simplex_fixtures():
    for name in simplex_fixture_names():
        s = load_space(name)
        w = realize_simplex(s)
        assert w.certificate is not None
        assert w.dim == s.n - 1
        cert = w.certificate
        assert cert.rank == s.n - 1
        # independent ordinal check on the exact squared distances
        assert ranks_from_squared(cert.squared, s.n) == s.ranks


def test_realize_simplex_all_equal_is_regular():
    w = realize_simplex(ALL_EQUAL_5)
    cert = w.certificate
    assert cert.rank == 4
    values = {cert.squared[i][j] for i, j in all_pairs(5)}
    assert values == {Fraction(9, 4)}


def test_realize_simplex_float_view_orders_like_ranks():
    s = load_space("min4.ord")
    w = realize_simplex(s)
    coords = w.coords
    assert len(coords) == 4 and all(len(p) == 3 for p in coords)
    dist = {}
    for i, j in all_pairs(4):
        dist[(i, j)] = math.dist(coords[i], coords[j])
    for (p, q) in all_pairs(4):
        for (r, t) in all_pairs(4):
            if s.ranks[p][q] < s.ranks[r][t]:
                assert dist[(p, q)] < dist[(r, t)] - 1e-9


def test_realize_simplex_single_point():
    w = realize_simplex(space_from_values(1, []))
    assert w.dim == 0 and w.certificate is not None


def scaled_distances(s, h):
    """The compatible metric 1 + rank/(2k * 2^h) that realize_simplex tries."""
    rows = [
        [
            Fraction(0) if i == j else 1 + Fraction(s.ranks[i][j], 2 * s.k) / Fraction(2) ** h
            for j in range(s.n)
        ]
        for i in range(s.n)
    ]
    return DistanceMatrix(s.n, tuple(tuple(r) for r in rows))


def test_pivot_verdict_matches_blumenthal():
    # realize_simplex decides by the L D L^T pivots alone; by Sylvester's
    # criterion that is Blumenthal's determinant test. Every space here
    # passes at h >= 0, so scales 2, 4 and 8 (h < 0) supply the negatives,
    # singular Gram matrices among them.
    rng = random.Random(5)
    spaces = [s for n in (1, 2, 3, 4) for s in enumerate_spaces(n, CensusFilter.ALL)]
    spaces += [random_space(rng, 5) for _ in range(100)]
    verdicts = set()
    for s in spaces:
        for h in range(-3, 4):
            d = scaled_distances(s, h)
            cert = _certificate_from_squared(tuple(tuple(v * v for v in r) for r in d.values))
            pivots_positive = cert is not None and cert.rank == s.n - 1
            assert pivots_positive == blumenthal_check(d)[0]
            verdicts.add(pivots_positive)
    assert verdicts == {True, False}


def test_realize_simplex_halves_the_scale():
    # the ninth seeded seven-point input of acceptance check 6
    values = [4, 9, 1, 17, 2, 16, 12, 7, 21, 5, 10, 14, 8, 3, 21, 7, 21, 21, 1, 1, 16]
    s = space_from_values(7, values)
    assert not blumenthal_check(scaled_distances(s, 0))[0]
    cert = realize_simplex(s).certificate
    assert cert.rank == 6
    once = scaled_distances(s, 1).values
    assert cert.squared == tuple(tuple(v * v for v in r) for r in once)
    assert ranks_from_squared(cert.squared, 7) == s.ranks


def test_realize_simplex_rejects_a_singular_certificate(monkeypatch):
    # points 0, 1 and 3 on the line: a PSD Gram matrix of rank 1, which
    # certifies no triangle, so realize_simplex must halve the scale
    line = tuple(tuple(Fraction((a - b) ** 2) for b in (0, 1, 3)) for a in (0, 1, 3))
    singular = _certificate_from_squared(line)
    assert singular is not None and singular.rank == 1
    real = euclid._certificate_from_squared
    seen = []

    def singular_first(squared, dim=None):
        seen.append(squared)
        return singular if len(seen) == 1 else real(squared, dim)

    monkeypatch.setattr(euclid, "_certificate_from_squared", singular_first)
    s = load_space("min3.ord")
    cert = realize_simplex(s).certificate
    assert cert.rank == 2
    assert len(seen) == 2
    once = scaled_distances(s, 1).values
    assert cert.squared == seen[1] == tuple(tuple(v * v for v in r) for r in once)


def test_realize_simplex_certificate_pinned():
    # 1 + rank/6 gives squared distances 49/36, 16/9 and 9/4. The anchored
    # Gram matrix pivots on its larger diagonal 9/4 (point 2), so
    # L = (11/12)/(9/4) = 11/27 and the second pivot is
    # 49/36 - (11/12)^2/(9/4) = 80/81.
    cert = realize_simplex(load_space("min3.ord")).certificate
    assert cert.order == (0, 2, 1)
    assert cert.unit_lower == ((1, 0), (Fraction(11, 27), 1))
    assert cert.diag == (Fraction(9, 4), Fraction(80, 81))
    for a, b in itertools.product(range(3), repeat=2):
        assert cert.squared_distance(a, b) == cert.squared[cert.order[a]][cert.order[b]]


def test_squared_matches_space_needs_positive_distances():
    s = space_from_values(3, [1, 2, 2])
    row = lambda *v: tuple(map(Fraction, v))
    good = (row(0, 1, 4), row(1, 0, 4), row(4, 4, 0))
    zero = (row(0, 0, 1), row(0, 0, 1), row(1, 1, 0))
    assert euclid._squared_matches_space(good, s)
    assert not euclid._squared_matches_space(zero, s)


def test_dp_pairs():
    assert dp_pairs(load_space("min3.ord")) == ((0, 2),)
    assert dp_pairs(load_space("table6.ord")) == ((0, 3),)
    assert dp_pairs(ALL_EQUAL_5) == tuple(all_pairs(5))
    assert dp_pairs(space_from_values(1, [])) == ()


def test_plane_check_all_equal_five():
    ok, violations = plane_necessary_check(ALL_EQUAL_5)
    assert not ok
    assert violations == [
        ("diametrical_pairs", 10, 5),
        ("top_class", 10, 5),
        ("nearest_class", 10, 7),
    ]


def test_plane_check_passes_plane_like_spaces():
    for name in ["min3.ord", "case_d2.ord", "table6.ord", "min4.ord"]:
        ok, violations = plane_necessary_check(load_space(name))
        assert ok and violations == []


def test_plane_check_second_class_fires():
    s = space_from_values(5, [1] * 8 + [2] * 2)
    ok, violations = plane_necessary_check(s)
    names = [v[0] for v in violations]
    assert not ok
    assert "second_class" in names and "nearest_class" in names


def test_plane_check_second_nearest_fires():
    s = space_from_values(9, [1] * 5 + [2] * 31)
    ok, violations = plane_necessary_check(s)
    assert not ok
    assert ("second_nearest_class", 31, Fraction(216, 7)) in violations


def test_nearest_class_bound_values():
    assert nearest_class_bound(10) == 19
    # 12n-3 is a perfect square at n=7; the ceiling must not overshoot
    assert nearest_class_bound(7) == 12

    def oracle(n):
        m = 12 * n - 3
        t = 0
        while t * t < m:
            t += 1
        return 3 * n - t

    for n in range(2, 200):
        assert nearest_class_bound(n) == oracle(n)


def verify_witness_ranks(s, w):
    if w.certificate is None:
        squared = [[Fraction(0)] * s.n for _ in range(s.n)]
        for i, j in all_pairs(s.n):
            d2 = sum((a - b) ** 2 for a, b in zip(w.coords[i], w.coords[j]))
            squared[i][j] = squared[j][i] = d2
        assert ranks_from_squared(squared, s.n) == s.ranks
    else:
        cert = w.certificate
        assert cert is not None and cert.rank <= w.dim
        assert ranks_from_squared(cert.squared, s.n) == s.ranks


def test_embed_heuristic_square():
    s = space_from_values(4, [1, 2, 1, 1, 2, 1])  # unit square with diagonals
    w = embed_heuristic(s, 2, seed=1)
    assert w is not None and w.dim == 2
    verify_witness_ranks(s, w)


def test_embed_heuristic_equilateral():
    s = space_from_values(3, [1, 1, 1])
    w = embed_heuristic(s, 2, seed=1)
    assert w is not None
    verify_witness_ranks(s, w)


def test_embed_heuristic_collinear_in_the_plane():
    s = collinear(0, 1, 3, 7)
    w = embed_heuristic(s, 2, seed=2)
    assert w is not None
    verify_witness_ranks(s, w)


def test_embed_heuristic_none_is_inconclusive():
    # all-equal four points have no plane realization; must come back None
    s = space_from_values(4, [1] * 6)
    assert embed_heuristic(s, 2, restarts=4, seed=0) is None


def test_embed_heuristic_deterministic():
    s = space_from_values(4, [1, 2, 1, 1, 2, 1])
    w1 = embed_heuristic(s, 2, seed=7)
    w2 = embed_heuristic(s, 2, seed=7)
    assert w1.coords == w2.coords


def test_embed_heuristic_validation_and_trivial():
    s = space_from_values(2, [1])
    with pytest.raises(ValidationError):
        embed_heuristic(s, 0)
    w = embed_heuristic(space_from_values(1, []), 3)
    assert w.certificate is None and w.coords == ((Fraction(0),) * 3,)


def test_menger_probe_all_equal_five():
    rep = menger_probe(ALL_EQUAL_5, 2, restarts=4)
    assert rep.max_subset_size == 5
    assert rep.subset_counts == ((2, 10, 0, 0), (3, 10, 0, 0), (4, 0, 5, 0), (5, 0, 1, 0))
    assert rep.whole_status == NOT_EMBEDDABLE_STATUS
    assert rep.conjecture_consistent is True
    assert set(rep.refuted_subsets) == set(itertools.combinations(range(5), 4)) | {
        (0, 1, 2, 3, 4)
    }


def test_menger_probe_line_positive():
    rep = menger_probe(load_space("min3.ord"), 1)
    assert rep.whole_status == EMBEDDABLE
    assert rep.conjecture_consistent is True
    assert all(ref == 0 and inc == 0 for (_, _, ref, inc) in rep.subset_counts)


def test_menger_probe_line_refuted():
    rep = menger_probe(load_space("twomax3.ord"), 1)
    assert rep.whole_status == NOT_EMBEDDABLE_STATUS
    assert (0, 1, 2) in rep.refuted_subsets
    assert rep.conjecture_consistent is True


def test_menger_probe_subset_criterion_fails_on_the_line():
    # 4 of the 30,240 injective five-point classes have every subspace on at
    # most four points line-embeddable while the whole is not; this is the first
    rep = menger_probe(load_space("menger5.ord"), 1)
    assert rep.subset_counts == ((2, 10, 0, 0), (3, 10, 0, 0), (4, 5, 0, 0))
    assert rep.refuted_subsets == ()
    assert rep.whole_status == NOT_EMBEDDABLE_STATUS
    assert rep.conjecture_consistent is False


def test_menger_probe_inconclusive():
    rep = menger_probe(load_space("min3.ord"), 2, restarts=0)
    assert rep.whole_status == INCONCLUSIVE
    assert rep.conjecture_consistent is None


def test_menger_probe_refuted_subset_refutes_the_whole():
    # every four-point subset of nine points with distinct ranks in pair
    # order is refuted, so the whole is decided without embed_line, whose
    # guard stops at eight points; nine collinear points stay undecided
    rep = menger_probe(space_from_values(9, list(range(36))), 1)
    assert rep.subset_counts == ((2, 36, 0, 0), (3, 84, 0, 0), (4, 0, 126, 0))
    assert rep.whole_status == NOT_EMBEDDABLE_STATUS
    assert rep.conjecture_consistent is True
    rep = menger_probe(collinear(0, 1, 3, 7, 12, 20, 33, 54, 88), 1)
    assert rep.subset_counts == ((2, 36, 0, 0), (3, 84, 0, 0), (4, 126, 0, 0))
    assert rep.whole_status == INCONCLUSIVE
    assert rep.conjecture_consistent is None


def test_exact_checks_on_degenerate_inputs():
    assert plane_necessary_check(space_from_values(1, [])) == (True, [])
    # the unit triangle needs the plane
    unit_triangle = tuple(tuple(Fraction(int(i != j)) for j in range(3)) for i in range(3))
    assert _certificate_from_squared(unit_triangle, dim=1) is None
