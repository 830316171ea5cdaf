"""Command-line interface: golden outputs, exit codes, JSON schema."""

import argparse
import contextlib
import io
import json
import random
import re
import subprocess
import sys
import time
import warnings

import pytest

from conftest import FIXTURES, collinear, random_space, space_from_values
from ordspace import __version__, cli
from ordspace.cli import build_parser, main
from ordspace.formats import format_rank_matrix, parse_rank_matrix
from ordspace.space import find_isomorphism

HEADER = f"# ordspace {__version__} seed=0"


def run(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


def fx(name):
    return FIXTURES / name


def test_balls_golden():
    code, out, err = run("balls", fx("min3.ord"))
    assert code == 0 and err == ""
    assert out.splitlines() == [
        HEADER,
        "6",
        "{x1}",
        "{x2}",
        "{x3}",
        "{x1,x2}",
        "{x2,x3}",
        "{x1,x2,x3}",
    ]


def test_ordtype_recovers_line_ranks():
    code, out, _ = run("ordtype", fx("seven_line.csv"))
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "7 21"
    # the plain line: no rank swap, r(x1,x4) = 13 sits below r(x4,x7) = 14
    assert lines[2].split() == "0 3 5 13 16 18 21".split()


def test_iso_positive_and_negative():
    code, out, _ = run("iso", fx("min3.ord"), fx("min3.ord"))
    assert code == 0
    assert "isomorphic; witness: x1->x1 x2->x2 x3->x3" in out
    code, out, _ = run("iso", fx("tree5_a.ord"), fx("tree5_b.ord"))
    assert code == 1
    assert "not isomorphic; Hasse diagrams isomorphic: yes" in out


def test_dord_with_oracle():
    code, out, _ = run("dord", fx("tree5_a.ord"), fx("tree5_b.ord"), "--oracle")
    assert code == 0
    assert "d_ord = 2" in out
    assert "oracle value: 2 (agrees: yes)" in out
    assert "(x1,x2) vs (x3,x4)" in out


def test_embed1d_witness_golden():
    code, out, _ = run("embed1d", fx("min3.ord"))
    assert code == 0
    assert out.splitlines() == [
        HEADER,
        "embeddable in the line",
        "ordering: x1 x2 x3",
        "gaps: 1/3 (0.333333), 2/3 (0.666667)",
        "margin: 1/3",
    ]


def test_embed1d_profile_obstruction():
    code, out, _ = run("embed1d", fx("twomax3.ord"))
    assert code == 1
    assert "not embeddable in the line" in out
    assert "obstruction: top class has 2 pairs" in out


def test_embed1d_lp_obstruction(tmp_path):
    # passes every profile condition yet admits no consistent placement
    f = tmp_path / "s.ord"
    f.write_text("4 3\n0 3 2 1\n3 0 2 1\n2 2 0 1\n1 1 1 0\n")
    code, out, _ = run("embed1d", f)
    assert code == 1
    assert "obstruction: no point ordering admits a consistent placement" in out


def test_t10_classification():
    code, out, _ = run("t10", fx("case_d8.ord"))
    assert code == 0 and "case d8" in out
    # 3-point input is a usage error, not a negative result
    code, _, err = run("t10", fx("twomax3.ord"))
    assert code == 2 and "input error" in err


def test_t10_not_embeddable(tmp_path):
    f = tmp_path / "ae4.ord"
    f.write_text("4 1\n0 1 1 1\n1 0 1 1\n1 1 0 1\n1 1 1 0\n")
    code, out, _ = run("t10", f)
    assert code == 1
    assert "NOT_EMBEDDABLE" in out


def test_hasse_dot_golden():
    code, out, _ = run("hasse", fx("min3.ord"), "--dot")
    assert code == 0
    assert out.splitlines()[0] == f"// ordspace {__version__} seed=0"
    assert 'v3 [label="{x1,x2}"];' in out
    assert "v3 -> v5;" in out


def test_hasse_dot_refuses_json():
    code, out, err = run("hasse", fx("min3.ord"), "--dot", "--format", "json")
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "--dot" in err and "--format json" in err


def test_hasse_text_round_trips(tmp_path):
    code, out, _ = run("hasse", fx("min4.ord"))
    assert code == 0
    body = "\n".join(out.splitlines()[1:]) + "\n"
    from ordspace.formats import parse_hasse

    h = parse_hasse(body)
    assert len(h.vertices) == 10


def test_validate_positive():
    code, out, _ = run("validate", fx("chain3.cmp"))
    assert code == 0
    assert "valid ordinal space" in out
    assert out.splitlines()[2:] == ["3 3", "0 1 3", "1 0 2", "3 2 0"]


def test_validate_cycle(tmp_path):
    f = tmp_path / "bad.cmp"
    f.write_text("3\n1 2 1 3 LT\n1 3 1 2 LT\n")
    code, out, _ = run("validate", f)
    assert code == 1
    assert "invalid: axiom (iii) violated" in out
    assert "  d(x1,x2) < d(x1,x3)" in out
    assert "  d(x1,x3) < d(x1,x2)" in out


def test_validate_cycle_through_an_equality(tmp_path):
    # the two strict lines alone are consistent; the equality closes the cycle
    f = tmp_path / "bad.cmp"
    f.write_text("3\n1 2 1 3 LT\n1 3 2 3 EQ\n2 3 1 2 LT\n")
    code, out, _ = run("validate", f)
    assert code == 1
    assert out.splitlines() == [
        HEADER,
        "invalid: axiom (iii) violated",
        "  d(x1,x2) < d(x1,x3)",
        "  d(x1,x3) = d(x2,x3)",
        "  d(x2,x3) < d(x1,x2)",
    ]


def test_validate_underdetermined(tmp_path):
    f = tmp_path / "partial.cmp"
    f.write_text("3\n1 2 1 3 LT\n")
    code, out, _ = run("validate", f)
    assert code == 1
    assert "invalid: comparisons leave two pair classes unordered" in out
    assert "classes: (x1,x2) vs (x2,x3)" in out
    code, out, _ = run("validate", f, "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False and doc["underdetermined"] == [[[1, 2]], [[2, 3]]]


def test_readme_command_line_example():
    readme = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```\n", 2)[1]
    runs = block.split("$ ordspace ")[1:]
    assert [r.split()[0] for r in runs] == ["balls", "embed1d", "iso", "census"]
    for r in runs:
        command, *shown = r.rstrip("\n").splitlines()
        args = [FIXTURES.parent / a if a.startswith("fixtures/") else a for a in command.split()]
        _, out, _ = run(*args)
        assert out.splitlines() == shown, command


def test_readme_guards_name_every_limit():
    """Each module-level *_LIMIT constant of the package is named, as
    `module.NAME`, in the README's paragraph on guards."""
    root = FIXTURES.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    guards = readme.split("Guards are fixed constants", 1)[1].split("\n\n", 1)[0]
    names = [
        f"{path.stem}.{name}"
        for path in sorted((root / "src" / "ordspace").glob("*.py"))
        for name in re.findall(r"^([A-Z_]+_LIMIT) =", path.read_text(encoding="utf-8"), re.M)
    ]
    assert len(names) >= 3
    assert [name for name in names if f"`{name}`" not in guards] == []


def test_readme_table_lists_every_flag():
    """Each subcommand row of the README table names the flags the parser
    accepts for it, apart from the shared --format, --seed and -h."""
    readme = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("Subcommands:", 1)[1].split("\n\n", 2)[1]
    rows = {}
    for row in table.splitlines()[2:]:
        usage = row.split("`")[1]
        rows[usage.split()[0]] = set(re.findall(r"--[a-z0-9-]+", usage))
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    shared = {"--format", "--seed", "-h", "--help"}
    accepted = {
        name: {o for a in sp._actions for o in a.option_strings} - shared
        for name, sp in subparsers.choices.items()
    }
    assert rows == accepted


def test_embednd_certificate_route():
    code, out, _ = run("embednd", fx("allequal5.ord"), "--dim", "4")
    assert code == 0
    assert "verified embedding into R^4" in out
    assert "squared-distance factorization" in out


def test_embednd_inconclusive():
    code, out, _ = run("embednd", fx("allequal5.ord"), "--dim", "2", "--restarts", "2")
    assert code == 1
    assert "inconclusive" in out


@pytest.mark.parametrize("dim, seed", [(2, 0), (2, 1), (2, 2), (3, 1)])
def test_embednd_abandons_a_drifting_restart_quietly(dim, seed):
    # the descent recentres every step, so no restart drifts until float64
    # merges its points, and numpy has nothing to warn of
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run("embednd", fx("allequal5.ord"), "--dim", dim, "--seed", seed)
    assert [str(w.message) for w in caught] == [] and err == ""
    assert code == 1
    assert out.splitlines() == [
        f"# ordspace {__version__} seed={seed}",
        f"no verified embedding into R^{dim} found",
        "inconclusive: heuristic search failure is not a refutation",
    ]


def test_menger_probe_refuted_subset_refutes_the_whole(tmp_path):
    # nine points are past embed_line's guard; a refuted subset still decides
    cases = [
        (space_from_values(9, list(range(36))), 1, "NOT_EMBEDDABLE", "yes"),
        (collinear(0, 1, 3, 7, 12, 20, 33, 54, 88), 0, "INCONCLUSIVE", "unknown"),
    ]
    for s, exit_code, whole, consistent in cases:
        f = tmp_path / "nine.ord"
        f.write_text(format_rank_matrix(s))
        code, out, err = run("menger-probe", f, "--dim", "1")
        assert (code, err) == (exit_code, "")
        assert out.splitlines()[-2:] == [
            f"whole space: {whole}",
            f"subset criterion consistent: {consistent}",
        ]


def test_check_r2_golden():
    code, out, _ = run("check-r2", fx("allequal5.ord"))
    assert code == 1
    assert out.splitlines()[1:] == [
        "not embeddable in the plane",
        "violated: diametrical_pairs (size 10, bound 5)",
        "violated: top_class (size 10, bound 5)",
        "violated: nearest_class (size 10, bound 7)",
    ]
    code, out, _ = run("check-r2", fx("table6.ord"))
    assert code == 0
    assert "all plane necessary conditions hold" in out


def test_menger_probe_golden():
    code, out, _ = run(
        "menger-probe", fx("allequal5.ord"), "--dim", "2", "--restarts", "4"
    )
    assert code == 1
    assert "size 4: 0 embeddable, 5 refuted, 0 inconclusive" in out
    assert "whole space: NOT_EMBEDDABLE" in out
    assert "subset criterion consistent: yes" in out


def test_menger_probe_reports_subset_criterion_failure():
    code, out, _ = run("menger-probe", fx("menger5.ord"), "--dim", "1")
    assert code == 1
    assert "whole space: NOT_EMBEDDABLE" in out
    assert "subset criterion consistent: NO" in out


def test_iso_past_the_hasse_vertex_guard_exits_3(tmp_path):
    rng = random.Random(10)
    files = []
    for name in ("a.ord", "b.ord"):
        f = tmp_path / name
        f.write_text(format_rank_matrix(random_space(rng, 10)))
        files.append(f)
    code, out, err = run("iso", *files)
    assert code == 3 and out == ""
    assert err == "guard exceeded: hasse isomorphism: size 82 exceeds guard limit 64\n"


def test_iso_checks_the_hasse_guard_before_the_point_search(tmp_path, monkeypatch):
    rng = random.Random(10)
    files = []
    for name in ("a.ord", "b.ord"):
        f = tmp_path / name
        f.write_text(format_rank_matrix(random_space(rng, 10)))
        files.append(f)

    def no_search(a, b):
        raise AssertionError("the point search ran before the Hasse guard")

    monkeypatch.setattr(cli, "find_isomorphism", no_search)
    code, out, err = run("iso", *files)
    assert (code, out) == (3, "")
    assert err == "guard exceeded: hasse isomorphism: size 82 exceeds guard limit 64\n"


def test_iso_on_large_spaces_stops_at_the_hasse_guard(tmp_path):
    """The point match on 1,100 points keeps its own stack, so no recursion
    limit is hit; the 1,101 balls then exceed the 64-set Hasse guard."""
    n = 1100
    row = lambda i: " ".join("0" if j == i else "1" for j in range(n))
    text = f"{n} 1\n" + "\n".join(map(row, range(n))) + "\n"
    a, b = tmp_path / "a.ord", tmp_path / "b.ord"
    a.write_text(text)
    b.write_text(text)
    code, out, err = run("iso", a, b)
    assert (code, out) == (3, "")
    assert err == "guard exceeded: hasse isomorphism: size 1101 exceeds guard limit 64\n"
    s = parse_rank_matrix(text)
    assert find_isomorphism(s, s) == tuple(range(n))


def test_embednd_exact_coordinates_route():
    code, out, _ = run("embednd", fx("min3.ord"), "--dim", "1", "--restarts", "4")
    assert code == 0
    assert out.splitlines()[1:] == [
        "verified embedding into R^1",
        "x1: (-399/545)  ~ (-0.73211)",
        "x2: (-19/531)  ~ (-0.0357815)",
        "x3: (397/517)  ~ (0.767892)",
    ]


def test_embed1d_json_renders_fractions():
    code, out, _ = run("embed1d", fx("min3.ord"), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["gaps"] == ["1/3", "2/3"] and doc["margin"] == "1/3"


def test_census_text_and_json_out(tmp_path):
    code, out, _ = run("census", "--n", "3")
    assert code == 0
    assert out.splitlines() == [
        HEADER,
        "n = 3, filter = ALL",
        "isomorphism classes: 4 (orbit count 4)",
        "max balls: 6 [MATCH]",
        "min balls (injective ranks): 6 [MATCH]",
        "line-embeddable classes: 2",
    ]
    dest = tmp_path / "report.json"
    code, out, _ = run("census", "--n", "4", "--filter", "injective", "--out", dest)
    assert code == 0
    data = json.loads(dest.read_text())
    assert data["version"] == __version__
    assert data["classes"] == 30 and data["orbit_count"] == 30
    assert data["min_balls_distinct"] == 9
    assert data["min_balls_verdict"] == "MISMATCH"
    assert data["r1_embeddable"] is None
    # witnesses ship as parseable rank-matrix blocks
    from ordspace.formats import parse_rank_matrix
    from ordspace.balls import ball_set

    witness = parse_rank_matrix(data["min_witness"])
    assert len(ball_set(witness)) == 9


def test_census_out_file_is_the_json_report(tmp_path):
    dest = tmp_path / "report.json"
    code, out, _ = run("census", "--n", "3", "--format", "json", "--out", dest)
    assert code == 0
    # one report, one document builder: the file holds the printed JSON
    assert dest.read_text() == out
    assert json.loads(out)["command"] == "census"


def test_census_guard_exit():
    code, _, err = run("census", "--n", "5")
    assert code == 3
    assert "guard exceeded" in err


def test_census_orbit_count_mismatch_exits_internal(monkeypatch):
    # the census checks its class count against the orbit count; a
    # disagreement is a broken invariant, never a negative answer
    monkeypatch.setattr("ordspace.census.burnside_count", lambda n, filt: 7)
    code, out, err = run("census", "--n", "3")
    assert code == 70 and out == ""
    assert "internal error: enumeration found 4 classes, orbit count says 7" in err


def test_missing_and_malformed_files(tmp_path):
    code, _, err = run("balls", tmp_path / "nope.ord")
    assert code == 2 and "input error" in err
    f = tmp_path / "mangled.ord"
    f.write_text("3 3\n0 1\n")
    code, _, err = run("balls", f)
    assert code == 2 and "input error" in err


def test_binary_input_is_an_input_error(tmp_path):
    # bytes that are not UTF-8 must exit 2, never escape as a traceback
    f = tmp_path / "binary.ord"
    f.write_bytes(b"\xff\xfe\x00\x80")
    for argv in (
        ("ordtype", f),
        ("validate", f),
        ("iso", f, fx("min3.ord")),
        ("iso", fx("min3.ord"), f),
        ("dord", f, fx("min3.ord")),
        ("balls", f),
        ("hasse", f),
        ("embed1d", f),
        ("t10", f),
        ("embednd", f, "--dim", "2"),
        ("check-r2", f),
        ("menger-probe", f, "--dim", "2"),
    ):
        code, _, err = run(*argv)
        assert code == 2, argv
        assert "input error" in err and "Traceback" not in err, argv


def test_restarts_must_be_positive():
    for argv in (
        ("embednd", fx("min3.ord"), "--dim", "2", "--restarts", "0"),
        ("embednd", fx("min3.ord"), "--dim", "2", "--restarts", "-3"),
        ("menger-probe", fx("min3.ord"), "--dim", "1", "--restarts", "0"),
        ("menger-probe", fx("min3.ord"), "--dim", "1", "--restarts", "-3"),
    ):
        code, out, err = run(*argv)
        assert code == 2 and out == "", argv
        assert "--restarts" in err, argv


def test_huge_exponent_is_an_input_error(tmp_path):
    # Fraction would expand 10**999999999 exactly: about 415 MB
    f = tmp_path / "huge.csv"
    f.write_text("0,1e999999999\n1e999999999,0\n")
    start = time.perf_counter()
    code, out, err = run("ordtype", f)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "input error" in err and "Traceback" not in err
    f.write_text("0,1e4300\n1e4300,0\n")
    code, out, _ = run("ordtype", f)
    assert code == 0
    assert out.splitlines()[1:] == ["2 1", "0 1", "1 0"]


def test_json_reports_carry_version_and_seed():
    code, out, _ = run(
        "dord", fx("min3.ord"), fx("twomax3.ord"), "--format", "json", "--seed", "5"
    )
    assert code == 0
    data = json.loads(out)
    assert data["version"] == __version__
    assert data["seed"] == 5
    assert data["command"] == "dord"
    assert data["value"] == 1
    assert data["witness"] == [1, 2, 3]


def test_iso_and_dord_json_points_are_1_based(tmp_path):
    f = tmp_path / "min3_swapped.ord"
    f.write_text("3 3\n0 2 3\n2 0 1\n3 1 0\n")  # min3.ord with x1 and x3 exchanged
    code, out, _ = run("iso", fx("min3.ord"), f, "--format", "json")
    assert code == 0 and json.loads(out)["witness"] == [3, 2, 1]
    code, out, _ = run("iso", fx("min3.ord"), f)
    assert "isomorphic; witness: x1->x3 x2->x2 x3->x1" in out
    code, out, _ = run("dord", fx("tree5_a.ord"), fx("tree5_b.ord"), "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["witness"] == [1, 2, 3, 4, 5]
    assert data["disagreements"] == [[[1, 2], [3, 4]], [[1, 2], [3, 5]]]


def test_embed1d_json_negative():
    code, out, _ = run("embed1d", fx("twomax3.ord"), "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["embeddable"] is False
    assert data["obstruction"] == "top class has 2 pairs"


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ordspace.cli", "balls", str(fx("min3.ord"))],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "6"


def test_help_lists_subcommands():
    code, out, _ = run("--help")
    assert code == 0
    for name in ("ordtype", "validate", "iso", "dord", "balls", "hasse",
                 "embed1d", "t10", "embednd", "check-r2", "census", "menger-probe"):
        assert name in out


FUZZ_COMMANDS = {
    ".ord": [["balls"], ["hasse"], ["hasse", "--dot"], ["embed1d"], ["t10"], ["check-r2"],
             ["embednd", "--dim", "2", "--restarts", "1"], ["menger-probe", "--dim", "1"]],
    ".csv": [["ordtype"]],
    ".cmp": [["validate"]],
}


def corrupted(rng, data):
    """data after 1-4 random byte flips, inserts or deletes."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        op = rng.choice(("flip", "insert", "delete") if data else ("insert",))
        if op == "insert":
            data.insert(rng.randint(0, len(data)), rng.randrange(256))
        elif op == "flip":
            data[rng.randrange(len(data))] ^= rng.randrange(1, 256)
        else:
            del data[rng.randrange(len(data))]
    return bytes(data)


def test_corrupted_fixtures_exit_with_documented_codes(tmp_path):
    """Every command on fixtures with a few bytes changed ends in exit code
    0, 1, 2 or 3; an exception escaping `main` fails the test."""
    rng = random.Random(14)
    fixtures = sorted(p for p in FIXTURES.iterdir() if p.suffix in FUZZ_COMMANDS)
    codes = {}
    for _ in range(400):
        source = rng.choice(fixtures)
        command = rng.choice(FUZZ_COMMANDS[source.suffix])
        target = tmp_path / f"input{source.suffix}"
        target.write_bytes(corrupted(rng, source.read_bytes()))
        code, _, err = run(command[0], target, *command[1:])
        assert code in (0, 1, 2, 3), (source.name, command, target.read_bytes(), err)
        codes[code] = codes.get(code, 0) + 1
    assert codes.get(2, 0) > 0 and codes.get(0, 0) > 0, codes


def test_dord_oracle_answers_up_to_eight_points(tmp_path):
    # the oracle shares d_ord's 8-point cap, so it answers wherever d_ord does
    a, b = tmp_path / "a8.ord", tmp_path / "b8.ord"
    a.write_text(format_rank_matrix(collinear(0, 1, 3, 7, 12, 20, 30, 45)))
    b.write_text(format_rank_matrix(collinear(0, 2, 3, 7, 12, 20, 31, 45)))
    for argv in (("dord", fx("seven_swap.ord"), fx("seven_swap.ord"), "--oracle"),
                 ("dord", a, b, "--oracle")):
        code, out, err = run(*argv)
        assert code == 0 and err == "", argv
        value = out.splitlines()[1].removeprefix("d_ord = ")
        assert f"oracle value: {value} (agrees: yes)" in out, argv
