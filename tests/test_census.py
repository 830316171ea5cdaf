"""Exhaustive enumeration by isomorphism class and the conjecture reports."""

import itertools
import subprocess
import sys

import pytest

from conftest import load_hasse, load_space, relabel
from ordspace.balls import ball_set, hasse, hasse_isomorphic
from ordspace.census import (
    A263511_PREFIX,
    CensusFilter,
    Verdict,
    burnside_count,
    census_report,
    enumerate_spaces,
    fubini,
    minimal_hasse_shape_probe,
    triangular,
)
from ordspace.errors import SizeLimitError, ValidationError
from ordspace.space import (
    OrdinalSpace,
    all_pairs,
    canonical_form,
    canonical_level_vector,
    find_isomorphism,
)

ALL_COUNTS = {1: 1, 2: 1, 3: 4, 4: 225}
INJECTIVE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 30}


def test_sequence_helpers():
    assert triangular(3) == 6 and triangular(4) == 10 and triangular(10) == 55
    assert A263511_PREFIX == (1, 3, 6, 12, 19, 29, 40)
    assert [fubini(p) for p in range(5)] == [1, 1, 3, 13, 75]


def test_enumeration_counts():
    for n, expected in ALL_COUNTS.items():
        assert len(enumerate_spaces(n, CensusFilter.ALL)) == expected
    for n, expected in INJECTIVE_COUNTS.items():
        assert len(enumerate_spaces(n, CensusFilter.INJECTIVE)) == expected


def test_burnside_agrees_and_extends_beyond_enumeration():
    for n in (2, 3, 4):
        assert burnside_count(n, CensusFilter.ALL) == ALL_COUNTS[n]
        assert burnside_count(n, CensusFilter.INJECTIVE) == INJECTIVE_COUNTS[n]
    assert burnside_count(5, CensusFilter.ALL) == 856608
    assert burnside_count(5, CensusFilter.INJECTIVE) == 30240


def test_representatives_are_canonical_and_sorted():
    spaces = enumerate_spaces(4, CensusFilter.ALL)
    assert len(set(spaces)) == len(spaces)
    levels = [tuple(s.ranks[i][j] for i, j in s.pairs()) for s in spaces]
    assert levels == sorted(levels)
    for s in spaces[:10] + spaces[::25]:
        assert canonical_form(s) == s


def test_injective_census_is_the_distinct_rank_slice():
    for n in (3, 4):
        full = enumerate_spaces(n, CensusFilter.ALL)
        slice_count = sum(s.k == n * (n - 1) // 2 for s in full)
        assert slice_count == INJECTIVE_COUNTS[n]
        injective = set(enumerate_spaces(n, CensusFilter.INJECTIVE))
        assert {s for s in full if s.k == n * (n - 1) // 2} == injective


def test_fixture_classes_appear_in_census():
    spaces = set(enumerate_spaces(4, CensusFilter.ALL))
    for name in ("case_d8.ord", "min4.ord"):
        assert canonical_form(load_space(name)) in spaces


def test_enumeration_guards():
    with pytest.raises(SizeLimitError):
        enumerate_spaces(5, CensusFilter.ALL)
    with pytest.raises(SizeLimitError):
        enumerate_spaces(6, CensusFilter.INJECTIVE)
    with pytest.raises(ValidationError):
        enumerate_spaces(0)


def _raw_surjections(p, injective):
    """Every level vector of length p onto 1..k, for some k."""
    if injective:
        yield from itertools.permutations(range(1, p + 1))
        return
    for levels in itertools.product(range(1, p + 1), repeat=p):
        if set(levels) == set(range(1, max(levels, default=0) + 1)):
            yield levels


@pytest.mark.parametrize("filt", list(CensusFilter))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orderly_generation_matches_canonicalize_and_dedup(n, filt):
    # the generate-and-canonicalize census, kept as a slow oracle
    pairs = all_pairs(n)
    seen = set()
    for levels in _raw_surjections(len(pairs), filt is CensusFilter.INJECTIVE):
        rows = [[0] * n for _ in range(n)]
        for (a, b), v in zip(pairs, levels):
            rows[a][b] = rows[b][a] = v
        seen.add(canonical_form(OrdinalSpace.from_rows(rows)))
    expected = tuple(sorted(seen, key=lambda s: s.level_vector()))
    assert enumerate_spaces(n, filt) == expected


def test_injective_census_n5_is_canonical_sorted_and_complete():
    levels = [s.level_vector() for s in enumerate_spaces(5, CensusFilter.INJECTIVE)]
    assert levels == sorted(levels)
    assert len(levels) == burnside_count(5, CensusFilter.INJECTIVE)
    assert all(canonical_level_vector(v, 5) == v for v in levels)


def test_census_extremes_n3():
    ext = census_report(3).extremes
    assert ext.max_balls == 6 and ext.matches_A263511 is Verdict.MATCH
    assert ext.min_balls_distinct == 6 and ext.matches_triangular is Verdict.MATCH
    assert len(ball_set(ext.max_witness)) == 6


def test_census_extremes_n4_min_is_below_the_conjectured_bound():
    # the triangular-number lower bound fails at n = 4: two injective-rank
    # classes get by with 9 balls, under the conjectured 10
    ext = census_report(4).extremes
    assert ext.max_balls == 12 and ext.matches_A263511 is Verdict.MATCH
    assert ext.min_balls_distinct == 9
    assert ext.matches_triangular is Verdict.MISMATCH
    assert len(ball_set(ext.min_witness)) == 9
    assert ext.min_witness.k == 6


def test_census_extremes_untested_at_the_ends():
    # one point ranks no pair: one class under either filter, no minimum
    for filt in CensusFilter:
        rep = census_report(1, filt)
        assert (rep.total_nonisomorphic, rep.burnside_total) == (1, 1)
        ext = rep.extremes
        assert ext.max_balls == 1 and ext.matches_A263511 is Verdict.MATCH
        assert ext.min_balls_distinct is None and ext.matches_triangular is Verdict.UNTESTED
    # the n = 5 injective census sees no other class, so it has no maximum
    ext = census_report(5, CensusFilter.INJECTIVE).extremes
    assert ext.max_balls is None and ext.matches_A263511 is Verdict.UNTESTED
    assert ext.min_balls_distinct == 13 and ext.matches_triangular is Verdict.MISMATCH


def test_census_r1_embeddable_counts():
    assert [census_report(n).r1_embeddable_count for n in (1, 2, 3, 4)] == [1, 1, 2, 14]
    with pytest.raises(SizeLimitError):
        census_report(5)


def test_shape_probe_n3_confirms_conjecture():
    rep = minimal_hasse_shape_probe(3, load_hasse("ref3.hasse"))
    assert rep.min_balls == 6 and rep.expected_min == 6
    assert rep.bound_is_minimum
    assert (rep.min_attainers, rep.min_matching) == (1, 1)
    assert (rep.bound_attainers, rep.bound_matching) == (1, 1)
    assert rep.equality_clause_holds
    assert rep.mismatch_witnesses == ()


def test_shape_probe_n4_refutes_both_clauses():
    rep = minimal_hasse_shape_probe(4, load_hasse("ref4.hasse"))
    assert rep.min_balls == 9 and rep.expected_min == 10
    assert not rep.bound_is_minimum
    assert (rep.min_attainers, rep.min_matching) == (2, 0)
    assert (rep.bound_attainers, rep.bound_matching) == (16, 6)
    assert not rep.equality_clause_holds
    assert len(rep.mismatch_witnesses) == 10
    for s in rep.mismatch_witnesses:
        assert len(ball_set(s)) == 10
        assert not hasse_isomorphic(hasse(ball_set(s)), load_hasse("ref4.hasse"))


def test_shape_probe_guard():
    with pytest.raises(ValidationError):
        minimal_hasse_shape_probe(5, load_hasse("ref4.hasse"))


def test_census_report_n3():
    rep = census_report(3, CensusFilter.ALL)
    assert rep.total_nonisomorphic == 4
    assert rep.burnside_total == 4
    assert rep.r1_embeddable_count == 2
    assert rep.extremes.matches_A263511 is Verdict.MATCH
    assert set(rep.runtime_seconds) == {"enumerate", "burnside", "extremes", "r1"}


def test_census_report_injective_n4():
    rep = census_report(4, CensusFilter.INJECTIVE)
    assert rep.total_nonisomorphic == 30
    assert rep.r1_embeddable_count is None
    assert "r1" not in rep.runtime_seconds


def test_census_classes_pairwise_nonisomorphic_n3():
    spaces = enumerate_spaces(3, CensusFilter.ALL)
    for i, a in enumerate(spaces):
        for b in spaces[i + 1 :]:
            assert find_isomorphism(a, b) is None
    # every relabeling lands back on its representative
    for s in spaces:
        assert canonical_form(relabel(s, (2, 0, 1))) == s


EVERY_MODULE = (
    "import importlib, pkgutil, ordspace\n"
    "for m in pkgutil.iter_modules(ordspace.__path__):\n"
    "    importlib.import_module('ordspace.' + m.name)\n"
)


@pytest.mark.parametrize(
    "imports, unwanted",
    [
        # numpy alone adds about 12 MB to a census run's peak memory
        ("import ordspace.census\n", ("numpy",)),
        # tempting for experiments, but not dependencies
        (EVERY_MODULE, ("scipy", "networkx")),
    ],
    ids=["census-numpy", "every-module-scipy-networkx"],
)
def test_import_loads_no_unwanted_module(imports, unwanted):
    code = f"import sys\n{imports}loaded = [m for m in {unwanted!r} if m in sys.modules]\nassert not loaded, loaded\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
