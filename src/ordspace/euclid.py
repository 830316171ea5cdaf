"""Euclidean embeddings: exact determinant criteria, simplex realization,
plane necessary conditions, and a heuristic embedder with exact
verification.

Everything decision-grade is exact: Cayley-Menger determinants by integer
Bareiss elimination after clearing denominators, coordinate certificates
by a fraction-free pivoted L D L^T of the anchored Gram matrix, cleared to
integers once (realize_simplex builds the integers directly and has nothing
to clear). Its pivots alone decide positive (semi)definiteness
and rank, and one exact integer identity, P G P^T = L D L^T, re-verifies
the factors; the certificate holds them as rationals, so squared distances
recompute exactly. Square roots are taken only for display coordinates,
never for comparisons.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SizeLimitError, SolverError, ValidationError
from .line import embed_line
from .space import DistanceMatrix, OrdinalSpace, _ranks_like, all_pairs, dp_pairs, subspace

SCALE_HALVINGS = 32  # realize_simplex's cap; it stops long before
DESCENT_STEPS = 600  # Adam steps per restart of embed_heuristic


# ---------------------------------------------------------------------------
# Cayley-Menger

@dataclass(frozen=True)
class CMResult:
    k: int  # number of points minus one
    value: Fraction
    sign: int  # -1, 0, +1


def _bareiss_det(m):
    """Exact determinant of a square integer matrix, fraction free."""
    a = [row[:] for row in m]
    size = len(a)
    sign = 1
    prev = 1
    for r in range(size - 1):
        if a[r][r] == 0:
            swap = next((i for i in range(r + 1, size) if a[i][r] != 0), None)
            if swap is None:
                return 0
            a[r], a[swap] = a[swap], a[r]
            sign = -sign
        for i in range(r + 1, size):
            for j in range(r + 1, size):
                a[i][j] = (a[i][j] * a[r][r] - a[i][r] * a[r][j]) // prev
            a[i][r] = 0
        prev = a[r][r]
    return sign * a[-1][-1]


def cayley_menger(d: DistanceMatrix, points=None) -> CMResult:
    """Bordered determinant of squared distances among the chosen points
    (default: all), computed exactly.

    Denominators are cleared first: scaling every squared distance by q
    scales the determinant by q^k, which preserves the sign and is divided
    back out.
    """
    pts = list(range(d.n)) if points is None else list(points)
    if len(set(pts)) != len(pts) or not pts:
        raise ValidationError("points must be distinct and nonempty")
    k = len(pts) - 1
    q, num = _cleared([[d.values[i][j] ** 2 for j in pts] for i in pts])
    m = [[0] + [1] * (k + 1)] + [[1] + row for row in num]
    value = Fraction(_bareiss_det(m), q**k)
    return CMResult(k, value, (value > 0) - (value < 0))


def blumenthal_check(d: DistanceMatrix):
    """Irreducible embeddability of n points in R^(n-1): the determinant on
    the first k+1 points must have sign (-1)^(k+1) for every k = 1..n-1.
    Returns (ok, first failing k or None). Kept as the reference that the
    tests check `_ldl_int`'s pivot verdict against."""
    for k in range(1, d.n):
        res = cayley_menger(d, points=range(k + 1))
        if res.sign != (-1) ** (k + 1):
            return False, k
    return True, None


# ---------------------------------------------------------------------------
# exact coordinate certificates

@dataclass(frozen=True)
class ExactCertificate:
    """Coordinates in factored form: point order[0] at the origin, point
    order[i] at row i-1 of L * sqrt(diag). L and diag are rational, so all
    squared distances recompute exactly as squared[a][b]."""

    squared: tuple  # n x n Fractions
    order: tuple  # point indices, anchor first
    unit_lower: tuple  # (n-1) x (n-1) Fractions
    diag: tuple  # n-1 nonnegative Fractions
    rank: int

    def squared_distance(self, a, b):
        """Recompute |x_a - x_b|^2 from the factors (a, b index order)."""
        L, D = self.unit_lower, self.diag
        m = len(self.order) - 1

        def row(i):
            return L[i - 1] if i else (Fraction(0),) * m

        ra, rb = row(a), row(b)
        return sum((ra[t] - rb[t]) ** 2 * D[t] for t in range(m))

    def float_coordinates(self, dim):
        """Display coordinates. Each factor is the correctly rounded
        quotient of its integer numerator and denominator, as float() of a
        Fraction is, so the floats are those of float(L) * sqrt(float(D))."""
        roots = [math.sqrt(v.numerator / v.denominator) for v in self.diag]
        n = len(self.order)
        coords = [None] * n
        coords[self.order[0]] = (0.0,) * dim
        for i in range(1, n):
            row = self.unit_lower[i - 1]
            xs = [row[t].numerator / row[t].denominator * roots[t] for t in range(self.rank)]
            xs += [0.0] * (dim - self.rank)
            coords[self.order[i]] = tuple(xs)
        return tuple(coords)


def _ldl_int(g):
    """Fraction-free pivoted L D L^T of a symmetric integer matrix, in the
    style of Bareiss (1968).

    The pivot is the largest remaining diagonal entry, first index on ties.
    Every remaining diagonal entry is its Schur-complement value times the
    previous pivot, a common positive factor, so the pivot order is that of
    the rational elimination. Returns (perm, a, pivots): for t < rank and
    i >= t, a[i][t] is the fraction-free factor of G[perm][:, perm], with
    a[t][t] = pivots[t] > 0 its leading principal minor of order t+1.
    Returns None when G is not positive semidefinite: a negative pivot, or
    a zero pivot over a nonzero tail.
    """
    m = len(g)
    a = [list(row) for row in g]
    perm = list(range(m))
    pivots = []
    prev = 1
    for step in range(m):
        best = max(range(step, m), key=lambda i: a[i][i])
        pivot = a[best][best]
        if pivot < 0:
            return None
        if pivot == 0:
            if any(a[i][j] for i in range(step, m) for j in range(step, m)):
                return None
            break
        perm[step], perm[best] = perm[best], perm[step]
        a[step], a[best] = a[best], a[step]
        for row in a:
            row[step], row[best] = row[best], row[step]
        for i in range(step + 1, m):
            ai = a[i]
            for j in range(step + 1, i + 1):
                ai[j] = a[j][i] = (pivot * ai[j] - ai[step] * a[j][step]) // prev
        pivots.append(pivot)
        prev = pivot
    return perm, a, pivots


def _cleared(squared):
    """(q, q * squared) with q the lcm of the denominators, so that every
    entry of the scaled matrix is an integer."""
    q = math.lcm(*(v.denominator for row in squared for v in row))
    return q, [[v.numerator * (q // v.denominator) for v in row] for row in squared]


def _certificate_from_squared(squared, dim=None):
    """Exact embedding test for a rational squared-distance matrix.

    Denominators are cleared by their lcm q, as in cayley_menger, and the
    cleared matrix goes to _certificate_from_cleared. Returns the
    certificate, or None when the points do not embed (in dimension dim)."""
    return _certificate_from_cleared(squared, *_cleared(squared), dim)


def _certificate_from_cleared(squared, q, num, dim=None):
    """The certificate of squared = num / q, from the integer matrix num.

    The Gram matrix anchored at point 0, scaled by 2q, is an integer matrix
    G. Its pivots decide: the points embed iff G is positive semidefinite,
    in dimension rank(G). The factors are re-verified by one exact integer
    identity, P G P^T = L D L^T with the fraction-free L and D cleared by
    the product of the pivots. Any common factor of q and num scales the
    t-th fraction-free factor by its (t+1)-th power, which cancels in L and
    D. Returns the certificate, or None when G is not PSD (or its rank
    exceeds dim)."""
    n = len(num)
    m = n - 1
    g = [[num[0][i] + num[0][j] - num[i][j] for j in range(1, n)] for i in range(1, n)]
    factored = _ldl_int(g)
    if factored is None:
        return None
    perm, a, pivots = factored
    rank = len(pivots)
    if dim is not None and rank > dim:
        return None
    # G[perm i][perm j] == sum_t a[i][t] a[j][t] / (p[t] p[t+1]), cleared
    # by the product of the pivots
    p = [1, *pivots]
    total = math.prod(pivots)
    weights = [total // (p[t] * p[t + 1]) for t in range(rank)]
    for i in range(m):
        for j in range(i + 1):
            terms = sum(a[i][t] * a[j][t] * weights[t] for t in range(min(j + 1, rank)))
            if terms != total * g[perm[i]][perm[j]]:
                raise SolverError("certificate failed exact recomputation")
    zero, one = Fraction(0), Fraction(1)
    unit_lower = tuple(
        tuple(
            Fraction(a[i][t], pivots[t]) if t < min(i, rank) else one if t == i else zero
            for t in range(m)
        )
        for i in range(m)
    )
    diag = tuple(Fraction(p[t + 1], 2 * q * p[t]) for t in range(rank))
    diag += (zero,) * (m - rank)
    order = (0,) + tuple(i + 1 for i in perm)
    return ExactCertificate(squared, order, unit_lower, diag, rank)


def _squared_matches_space(squared, s):
    """Do the squared distances order exactly like the rank matrix? Squared
    comparisons decide the original ones since distances are positive."""
    num = _cleared(squared)[1]
    return _ranks_like(s, [num[i][j] for i, j in all_pairs(s.n)])


@dataclass(frozen=True)
class EuclidWitness:
    """Verified Euclidean realization: either exact Fraction coords and no
    certificate, or float coords (display only) with the exactness in the
    certificate."""

    dim: int
    coords: tuple
    certificate: ExactCertificate | None = None


def realize_simplex(s: OrdinalSpace) -> EuclidWitness:
    """Nondegenerate simplex in R^(n-1) realizing the rank matrix.

    Uses the compatible metric 1 + rank/(2k * 2^h), starting at h = 0. With
    c = 2k * 2^h the squared distances are (c + rank)^2 / c^2, so the
    integers (c + rank)^2 over q = c^2 go straight to the factorisation, and
    2q times the anchored Gram matrix is an integer matrix; the pivots of
    its fraction-free L D L^T decide. Fractions are built only for the
    certificate: the k distinct squared values, L and D. All n-1 pivots
    positive means positive definite, which by Sylvester's criterion is
    exactly Blumenthal's determinant sign test; otherwise the scale is
    halved, and near the regular simplex the test must pass, so the loop
    terminates long before the cap. The factors are re-verified by one
    exact integer identity and the integer squares by their order against
    the ranks. The display floats are correctly rounded integer quotients of
    L and D, so they are bit for bit float(L) * sqrt(float(D)).
    """
    n, k = s.n, s.k
    for h in range(SCALE_HALVINGS):
        c = 2 * k << h
        q = c * c or 1  # one point: no distance, c = 0
        num = [[(c + r) ** 2 if r else 0 for r in row] for row in s.ranks]
        value = [Fraction(0)] + [Fraction((c + r) ** 2, q) for r in range(1, k + 1)]
        squared = tuple(tuple(value[r] for r in row) for row in s.ranks)
        cert = _certificate_from_cleared(squared, q, num)
        if cert is not None and cert.rank == n - 1:
            if not _ranks_like(s, [num[i][j] for i, j in all_pairs(n)]):
                raise SolverError("simplex witness failed ordinal re-verification")
            return EuclidWitness(n - 1, cert.float_coordinates(n - 1), cert)
    raise SolverError(f"no positive definite scale after {SCALE_HALVINGS} halvings")


# ---------------------------------------------------------------------------
# plane necessary conditions

def _isqrt_ceil(m):
    r = math.isqrt(m)
    return r if r * r == m else r + 1


def plane_necessary_check(s: OrdinalSpace):
    """Counting conditions every plane-embeddable space satisfies.

    Checks the diametrical bound |DP| <= n and the class-size bounds: the
    top class at most n, the second class at most floor(3n/2), the second
    nearest class strictly below 24n/7, the nearest class at most
    floor(3n - sqrt(12n - 3)). Returns (ok, violations) with violations a
    list of (clause, size, bound) triples; bounds on absent classes are
    vacuous.
    """
    if s.n < 2:
        return True, []
    n = s.n
    sizes = [len(c) for c in s.level_classes()]  # index r-1 = rank r
    k = s.k
    violations = []
    dp = len(dp_pairs(s))
    if dp > n:
        violations.append(("diametrical_pairs", dp, n))
    top = sizes[k - 1]
    if top > n:
        violations.append(("top_class", top, n))
    if k >= 2:
        second = sizes[k - 2]
        bound = (3 * n) // 2
        if second > bound:
            violations.append(("second_class", second, bound))
        second_nearest = sizes[1]
        if 7 * second_nearest >= 24 * n:  # strict bound, kept exact
            violations.append(("second_nearest_class", second_nearest, Fraction(24 * n, 7)))
    nearest = sizes[0]
    nearest_bound = nearest_class_bound(n)
    if nearest > nearest_bound:
        violations.append(("nearest_class", nearest, nearest_bound))
    return not violations, violations


def nearest_class_bound(n: int) -> int:
    """floor(3n - sqrt(12n - 3)) computed without floats."""
    return 3 * n - _isqrt_ceil(12 * n - 3)


# ---------------------------------------------------------------------------
# heuristic embedder

def _descend(s, dim, rng):
    """Adam descent on squared hinge + tie losses over pair distances,
    rescaled to mean distance 1 and recentred every step, so no restart
    drifts until float64 merges its points."""
    n = s.n
    pairs = s.pairs()
    M = len(pairs)
    ranks = np.array([s.ranks[i][j] for i, j in pairs])
    ii = np.array([p[0] for p in pairs])
    jj = np.array([p[1] for p in pairs])
    lt = ranks[:, None] < ranks[None, :]
    eq = (ranks[:, None] == ranks[None, :]) & (np.arange(M)[:, None] < np.arange(M))
    margin = 1.0 / (2 * s.k * n)

    x = rng.normal(size=(n, dim))
    mom = np.zeros_like(x)
    vel = np.zeros_like(x)
    b1, b2, lr, eps = 0.9, 0.999, 0.05, 1e-12
    for t in range(1, DESCENT_STEPS + 1):
        delta = x[ii] - x[jj]
        dist = np.sqrt((delta**2).sum(axis=1)) + 1e-12
        scale = dist.mean()
        x /= scale
        delta /= scale
        dist /= scale
        h = margin + dist[:, None] - dist[None, :]
        h = np.where(lt, np.maximum(h, 0.0), 0.0)
        diff = np.where(eq, dist[:, None] - dist[None, :], 0.0)
        grad_d = 2 * (h.sum(axis=1) - h.sum(axis=0)) + 2 * (
            diff.sum(axis=1) - diff.sum(axis=0)
        )
        unit = delta / dist[:, None]
        gx = np.zeros_like(x)
        np.add.at(gx, ii, grad_d[:, None] * unit)
        np.add.at(gx, jj, -grad_d[:, None] * unit)
        mom = b1 * mom + (1 - b1) * gx
        vel = b2 * vel + (1 - b2) * gx**2
        mhat = mom / (1 - b1**t)
        vhat = vel / (1 - b2**t)
        x -= lr * mhat / (np.sqrt(vhat) + eps)
        x -= x.mean(axis=0)
    return x


def _class_means(s, x):
    """Cheap screen: group the float squared distances by rank class; the
    classes must already be in rank order and keep ties tight. Returns the
    class means by rank, or None. Never decides success."""
    groups = {}
    for i, j in s.pairs():
        groups.setdefault(s.ranks[i][j], []).append(float(((x[i] - x[j]) ** 2).sum()))
    means = [sum(g) / len(g) for _, g in sorted(groups.items())]
    spread = max(max(g) - min(g) for g in groups.values())
    gaps = [b - a for a, b in zip(means, means[1:])]
    if all(g > 0 for g in gaps) and spread < 0.2 * min(gaps, default=means[0]):
        return means
    return None


def _witness_from_rational_coords(s, x, dim):
    for den in (10**3, 10**6, 10**9):
        coords = tuple(
            tuple(Fraction(float(v)).limit_denominator(den) for v in row)
            for row in x
        )
        squared = tuple(
            tuple(
                sum((a - b) ** 2 for a, b in zip(coords[i], coords[j]))
                for j in range(s.n)
            )
            for i in range(s.n)
        )
        if _squared_matches_space(squared, s):
            return EuclidWitness(dim, coords)
    return None


def _witness_from_class_targets(s, means, dim):
    """Tie-aware exact verification: snap squared distances to one rational
    target per rank class, near its float mean, and decide embeddability of
    the snapped matrix exactly through the Gram factorization."""
    targets = [Fraction(0)] + [Fraction(m).limit_denominator(10**8) for m in means]
    if any(a >= b for a, b in zip(targets, targets[1:])):
        return None
    squared = tuple(
        tuple(targets[s.ranks[i][j]] for j in range(s.n)) for i in range(s.n)
    )
    cert = _certificate_from_squared(squared, dim=dim)
    if cert is None or not _squared_matches_space(squared, s):
        return None
    return EuclidWitness(dim, cert.float_coordinates(dim), cert)


def embed_heuristic(
    s: OrdinalSpace,
    dim: int,
    restarts: int = 32,
    seed: int = 0,
) -> EuclidWitness | None:
    """Random-restart descent for an R^dim realization.

    Success is claimed only after exact verification: either the rounded
    rational coordinates reproduce the rank matrix, or the class-snapped
    squared distances admit an exact PSD factorization of rank <= dim.
    Returning None is inconclusive, never a refutation.
    """
    if dim < 1:
        raise ValidationError("dimension must be positive")
    if s.n == 1:
        return EuclidWitness(dim, ((Fraction(0),) * dim,))
    for restart in range(restarts):
        rng = np.random.default_rng([seed, restart])
        x = _descend(s, dim, rng)
        means = _class_means(s, x)
        if means is None:
            continue
        witness = _witness_from_rational_coords(s, x, dim)
        if witness is None:
            witness = _witness_from_class_targets(s, means, dim)
        if witness is not None:
            return witness
    return None


# ---------------------------------------------------------------------------
# subset probe

@dataclass(frozen=True)
class MengerReport:
    dim: int
    max_subset_size: int
    subset_counts: tuple  # ((size, embeddable, refuted, inconclusive), ...)
    refuted_subsets: tuple
    whole_status: str
    conjecture_consistent: bool | None


EMBEDDABLE = "EMBEDDABLE"
NOT_EMBEDDABLE_STATUS = "NOT_EMBEDDABLE"
INCONCLUSIVE = "INCONCLUSIVE"


def _embedding_status(t, dim, seed, restarts):
    if dim == 1:
        try:
            return EMBEDDABLE if embed_line(t) else NOT_EMBEDDABLE_STATUS
        except SizeLimitError:
            return INCONCLUSIVE
    if dim == 2:
        ok, _ = plane_necessary_check(t)
        if not ok:
            return NOT_EMBEDDABLE_STATUS
    if embed_heuristic(t, dim, restarts=restarts, seed=seed) is not None:
        return EMBEDDABLE
    return INCONCLUSIVE


def menger_probe(
    s: OrdinalSpace, dim: int, seed: int = 0, restarts: int = 16
) -> MengerReport:
    """Check the subset heuristic: every subspace on at most dim+3 points
    examined next to the whole space. A report of all-embeddable subsets
    with a refuted whole would witness a failure of the subset criterion;
    the function only reports, it proves nothing beyond the exact parts.
    Embeddability is hereditary, so a refuted subset refutes the whole,
    which is then not examined itself."""
    max_size = min(s.n, dim + 3)
    counts = []
    refuted = []
    for size in range(2, max_size + 1):
        emb = ref = inc = 0
        for sub in itertools.combinations(range(s.n), size):
            st = _embedding_status(subspace(s, sub), dim, seed, restarts)
            if st == EMBEDDABLE:
                emb += 1
            elif st == NOT_EMBEDDABLE_STATUS:
                ref += 1
                refuted.append(sub)
            else:
                inc += 1
        counts.append((size, emb, ref, inc))
    whole = NOT_EMBEDDABLE_STATUS if refuted else _embedding_status(s, dim, seed, restarts)
    if whole == INCONCLUSIVE:
        consistent = None
    elif whole == EMBEDDABLE or refuted:
        consistent = True
    else:  # a refuted whole, no refuted subset: a failure once all are decided
        consistent = False if all(inc == 0 for *_, inc in counts) else None
    return MengerReport(
        dim=dim,
        max_subset_size=max_size,
        subset_counts=tuple(counts),
        refuted_subsets=tuple(refuted),
        whole_status=whole,
        conjecture_consistent=consistent,
    )
