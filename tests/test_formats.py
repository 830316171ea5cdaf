import random
from fractions import Fraction

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_text, load_hasse, load_space, random_space, space_from_values
from ordspace.balls import HasseDiagram, ball_set, hasse, hasse_isomorphic
from ordspace.cli import main
from ordspace.errors import ValidationError
from ordspace.formats import (
    _parse_scalar,
    format_comparisons,
    format_distance_csv,
    format_hasse,
    format_rank_matrix,
    parse_comparisons,
    parse_distance_csv,
    parse_hasse,
    parse_rank_matrix,
)
from ordspace.space import from_comparisons, ordinal_type, realize, to_comparisons


def test_rank_matrix_round_trip():
    rng = random.Random(3)
    for _ in range(25):
        s = random_space(rng, rng.randint(1, 6))
        assert parse_rank_matrix(format_rank_matrix(s)) == s


def test_rank_matrix_comments_and_blanks():
    s = parse_rank_matrix("# note\n\n3 2\n0 1 2\n1 0 1\n2 1 0\n# trailing\n")
    assert s.n == 3 and s.k == 2


def test_rank_matrix_errors():
    with pytest.raises(ValidationError):
        parse_rank_matrix("")
    with pytest.raises(ValidationError):
        parse_rank_matrix("3\n0 1\n1 0\n")
    with pytest.raises(ValidationError):
        parse_rank_matrix("2 1\n0 1\n")
    with pytest.raises(ValidationError):
        parse_rank_matrix("2 1\n0 x\nx 0\n")


def test_distance_csv_round_trip():
    for name in ("min4.ord", "tree5_b.ord"):
        d = realize(load_space(name))
        assert parse_distance_csv(format_distance_csv(d)) == d


def test_distance_csv_literals():
    d = parse_distance_csv("0,1/2,0.75\n1/2,0,1.5\n0.75,1.5,0\n")
    assert d.values[0][1] == Fraction(1, 2)
    assert d.values[0][2] == Fraction(3, 4)
    with pytest.raises(ValidationError):
        parse_distance_csv("0,1\n1,0,2\n")
    with pytest.raises(ValidationError):
        parse_distance_csv("0,zap\nzap,0\n")
    # exponents up to Python's 4,300-digit integer limit, underscores allowed
    assert parse_distance_csv("0,1e4_300\n1e4300,0\n").values[0][1] == 10**4300
    with pytest.raises(ValidationError):
        parse_distance_csv("0,1e-4_301\n1e-4301,0\n")


def test_comparisons_round_trip():
    c = to_comparisons(load_space("table6.ord"))
    assert parse_comparisons(format_comparisons(c)) == c


def test_comparisons_errors():
    with pytest.raises(ValidationError):
        parse_comparisons("3\n1 2 3 LT\n")  # four tokens only
    with pytest.raises(ValidationError):
        parse_comparisons("3\n1 2 1 3 NEAR\n")
    with pytest.raises(ValidationError):
        parse_comparisons("2\n1 2 1 3 LT\n")  # index 3 out of range


def test_hasse_round_trip():
    diagrams = [hasse(ball_set(load_space(name))) for name in ("min3.ord", "min4.ord", "tree5_a.ord")]
    # a vertex with no members is a line with none after the colon
    diagrams.append(hasse([frozenset(), frozenset({0})]))
    for h in diagrams:
        text = format_hasse(h)
        back = parse_hasse(text)
        assert hasse_isomorphic(back, h)
        assert format_hasse(back) == text  # writing is canonical


def test_hasse_reference_fixtures_parse():
    ref3 = load_hasse("ref3.hasse")
    assert len(ref3.vertices) == 6 and len(ref3.arcs) == 6
    ref4 = load_hasse("ref4.hasse")
    assert len(ref4.vertices) == 10 and len(ref4.arcs) == 12


def test_hasse_errors():
    with pytest.raises(ValidationError):
        parse_hasse("")
    with pytest.raises(ValidationError):
        parse_hasse("hasse 2\nv 1 : 1\n")  # count mismatch
    with pytest.raises(ValidationError):
        parse_hasse("hasse 2\nv 1 : 1\nv 1 : 2\n")  # duplicate id
    with pytest.raises(ValidationError):
        parse_hasse("hasse 2\nv 1 : 1\nv 2 : 1 2\na 1 3\n")  # unknown arc end
    with pytest.raises(ValidationError):
        parse_hasse("hasse 1\nv 1 : 0\n")  # ids are 1-based
    with pytest.raises(ValidationError):
        parse_hasse("hasse 1\nw 1 : 1\n")  # unknown directive


# (parser, text, message, subcommand reading that format or None)
PARSE_ERRORS = [
    (parse_rank_matrix, "3 x\n", "bad header", "balls"),
    (parse_distance_csv, "", "empty distance file", "ordtype"),
    (parse_comparisons, "", "empty comparison file", "validate"),
    (parse_comparisons, "three\n", "bad point count", "validate"),
    (parse_comparisons, "3\n1 a 1 3 LT\n", "bad point index", "validate"),
    (parse_hasse, "diagram 2\n", "expected header", None),
    (parse_hasse, "hasse two\n", "bad vertex count", None),
    (parse_hasse, "hasse 1\nv 1 1\n", "expected 'v ID : members'", None),
    (parse_hasse, "hasse 1\nv x : 1\n", "bad vertex line", None),
    (parse_hasse, "hasse 1\nv 1 : 1\na 1\n", "expected 'a CHILD PARENT'", None),
    (parse_hasse, "hasse 1\nv 1 : 1\na 1 x\n", "bad arc line", None),
    # well-formed files whose sets or arcs are refused
    (parse_hasse, "hasse 2\nv 1 : 1\nv 2 : 1\n", "duplicate vertices", None),
    (parse_hasse, "hasse 1\nv 1 : 1\na 1 1\n", r"bad arc \(0, 0\)", None),
    (parse_hasse, "hasse 2\nv 1 : 1\nv 2 : 1 2\na 1 2\na 1 2\n", "duplicate arcs", None),
    (parse_hasse, "hasse 2\nv 1 : 1\nv 2 : 1 2\na 1 2\na 2 1\n", r"arc \(1, 0\) is not a strict inclusion", None),
    # strict inclusions that are not the covers: one missing, one skipping a level
    (parse_hasse, "hasse 2\nv 1 : 1\nv 2 : 1 2\n", "arcs are not the covers", None),
    (parse_hasse, fixture_text("ref4.hasse") + "a 1 8\n", "arcs are not the covers", None),
]


def test_parse_errors_are_validation_errors(tmp_path):
    suffix = {parse_rank_matrix: ".ord", parse_distance_csv: ".csv", parse_comparisons: ".cmp"}
    for parse, text, message, command in PARSE_ERRORS:
        with pytest.raises(ValidationError, match=message):
            parse(text)
        if command is not None:
            f = tmp_path / ("input" + suffix[parse])
            f.write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, str(f)])
            assert code == 2 and out.getvalue() == "", text
            assert err.getvalue().startswith("input error") and message in err.getvalue(), text
    with pytest.raises(ValidationError, match="vertices must be frozensets of points"):
        HasseDiagram((1, 2))


@st.composite
def tied_spaces(draw):
    """A space on 1-6 points whose pair values may tie."""
    n = draw(st.integers(1, 6))
    p = n * (n - 1) // 2
    values = draw(st.lists(st.integers(1, max(p, 1)), min_size=p, max_size=p))
    return space_from_values(n, values)


@settings(max_examples=200)
@given(tied_spaces())
def test_every_format_round_trips(s):
    assert parse_rank_matrix(format_rank_matrix(s)) == s
    assert ordinal_type(parse_distance_csv(format_distance_csv(realize(s)))) == s
    assert from_comparisons(parse_comparisons(format_comparisons(to_comparisons(s)))) == s
    text = format_hasse(hasse(ball_set(s)))
    assert format_hasse(parse_hasse(text)) == text


# token -> value, or ValidationError; the first ones are read by int(), the
# rest by Fraction(str)
SCALARS = [
    ("007", Fraction(7)),
    ("0/5", Fraction(0)),
    (" 12 ", Fraction(12)),
    ("12/8", Fraction(3, 2)),
    ("3/0", ValidationError),
    ("+1", Fraction(1)),
    ("-1", Fraction(-1)),
    ("1.5", Fraction(3, 2)),
    ("1e3", Fraction(1000)),
    ("1_000", Fraction(1000)),
    ("٣", Fraction(3)),  # ARABIC-INDIC DIGIT THREE
    ("²", ValidationError),  # SUPERSCRIPT TWO, a digit that int() refuses
    ("1/2/3", ValidationError),
    ("3/", ValidationError),
    ("/3", ValidationError),
]


@pytest.mark.parametrize("tok, expected", SCALARS)
def test_scalar_literals(tok, expected):
    if expected is ValidationError:
        with pytest.raises(ValidationError, match="bad numeric literal"):
            _parse_scalar(tok)
        with pytest.raises(ValidationError, match="bad numeric literal"):
            parse_distance_csv(f"0,{tok}\n{tok},0\n")
        return
    value = _parse_scalar(tok)
    assert value == expected and type(value) is Fraction
    assert value == Fraction(tok)


def test_overlong_digit_strings_are_input_errors(tmp_path):
    # int() refuses more than 4,300 digits with a ValueError, which must
    # reach the user as an input error, not a traceback
    for literal in ("7" * 5000, "1/" + "3" * 5000):
        text = f"0,{literal}\n{literal},0\n"
        with pytest.raises(ValidationError, match="bad numeric literal"):
            parse_distance_csv(text)
        f = tmp_path / "long.csv"
        f.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["ordtype", str(f)])
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("input error: bad numeric literal")
