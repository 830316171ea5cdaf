"""Command-line front end.

Exit codes: 0 a result was computed, 1 the computed answer is negative
(not isomorphic, not embeddable, conditions violated), 2 bad input,
3 a size guard refused the computation. Internal solver failures exit
with 70 so scripts never read them as negative answers.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .balls import ball_set, hasse, hasse_isomorphic
from .census import CensusFilter, census_report
from .errors import (
    AxiomViolation,
    OrdspaceError,
    SizeLimitError,
    SolverError,
    UnderdeterminedOrder,
    ValidationError,
)
from .euclid import NOT_EMBEDDABLE_STATUS, embed_heuristic, menger_probe, plane_necessary_check
from .formats import (
    _scalar_str,
    format_hasse,
    format_rank_matrix,
    hasse_dot,
    parse_comparisons,
    parse_distance_csv,
    parse_rank_matrix,
    pair_label,
    point_label,
    point_map_label,
    point_set_label,
)
from .line import (
    NOT_EMBEDDABLE,
    classify_four_point,
    embed_line,
    profile_necessary_check,
)
from .orddist import d_ord, d_ord_oracle
from .space import find_isomorphism, from_comparisons, ordinal_type

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 70


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _load_space(path):
    return parse_rank_matrix(_read(path))


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return _scalar_str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _document(args, payload):
    """The JSON report: version, seed and command, then the payload."""
    doc = {"version": __version__, "seed": args.seed, "command": args.command}
    doc.update(_jsonable(payload))
    return doc


def _emit(args, payload, text_lines):
    """One report, both renderings. Text gets the version/seed header
    comment; JSON carries them as fields."""
    if args.format == "json":
        print(json.dumps(_document(args, payload), indent=2))
    else:
        print(f"# ordspace {__version__} seed={args.seed}")
        for line in text_lines:
            print(line)


# -- subcommand handlers ----------------------------------------------------


def cmd_ordtype(args):
    d = parse_distance_csv(_read(args.file))
    s = ordinal_type(d)
    _emit(
        args,
        {"n": s.n, "k": s.k, "ranks": [list(r) for r in s.ranks]},
        format_rank_matrix(s).rstrip("\n").splitlines(),
    )
    return EXIT_OK


def cmd_validate(args):
    c = parse_comparisons(_read(args.file))
    try:
        s = from_comparisons(c)
    except AxiomViolation as exc:
        shown = [
            f"d{pair_label(x, y)} {rel.value} d{pair_label(z, w)}"
            for x, y, z, w, rel in exc.witnesses
        ]
        _emit(
            args,
            {
                "valid": False,
                "axiom": exc.axiom,
                "witnesses": [
                    [x + 1, y + 1, z + 1, w + 1, rel.name]
                    for x, y, z, w, rel in exc.witnesses
                ],
            },
            [f"invalid: axiom ({exc.axiom}) violated"] + [f"  {t}" for t in shown],
        )
        return EXIT_NEGATIVE
    except UnderdeterminedOrder as exc:
        _emit(
            args,
            {
                "valid": False,
                "underdetermined": [
                    [[x + 1, y + 1] for x, y in cls] for cls in (exc.class_a, exc.class_b)
                ],
            },
            [
                "invalid: comparisons leave two pair classes unordered",
                "classes: "
                + " ".join(pair_label(*p) for p in exc.class_a)
                + " vs "
                + " ".join(pair_label(*p) for p in exc.class_b),
            ],
        )
        return EXIT_NEGATIVE
    lines = ["valid ordinal space"]
    lines.extend(format_rank_matrix(s).rstrip("\n").splitlines())
    _emit(args, {"valid": True, "n": s.n, "k": s.k, "ranks": [list(r) for r in s.ranks]}, lines)
    return EXIT_OK


def cmd_iso(args):
    a = _load_space(args.a)
    b = _load_space(args.b)
    hi = hasse_isomorphic(hasse(ball_set(a)), hasse(ball_set(b)))
    f = find_isomorphism(a, b)
    hword = "yes" if hi else "no"
    if f is None:
        _emit(
            args,
            {"isomorphic": False, "hasse_isomorphic": hi},
            [f"not isomorphic; Hasse diagrams isomorphic: {hword}"],
        )
        return EXIT_NEGATIVE
    _emit(
        args,
        {"isomorphic": True, "witness": [y + 1 for y in f], "hasse_isomorphic": hi},
        [f"isomorphic; witness: {point_map_label(f)}", f"Hasse diagrams isomorphic: {hword}"],
    )
    return EXIT_OK


def cmd_dord(args):
    a = _load_space(args.a)
    b = _load_space(args.b)
    res = d_ord(a, b)
    lines = [
        f"d_ord = {res.value}",
        f"witness: {point_map_label(res.witness)}",
        f"disagreeing pair couples: {len(res.disagreements)}",
    ]
    lines.extend(f"  {pair_label(*pa)} vs {pair_label(*pb)}" for pa, pb in res.disagreements)
    payload = {
        "value": res.value,
        "witness": [y + 1 for y in res.witness],
        "disagreements": [
            [[x + 1 for x in pa], [x + 1 for x in pb]] for pa, pb in res.disagreements
        ],
    }
    if args.oracle:
        ov, _ = d_ord_oracle(a, b)
        agrees = ov == res.value
        lines.append(f"oracle value: {ov} (agrees: {'yes' if agrees else 'NO'})")
        payload["oracle_value"] = ov
        payload["oracle_agrees"] = agrees
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_balls(args):
    s = _load_space(args.file)
    bs = ball_set(s)
    lines = [str(len(bs))]
    lines.extend(map(point_set_label, bs))
    _emit(
        args,
        {
            "count": len(bs),
            "balls": [sorted(p + 1 for p in m) for m in bs],
        },
        lines,
    )
    return EXIT_OK


def cmd_hasse(args):
    if args.dot and args.format == "json":
        raise ValidationError("--dot writes DOT text and cannot be combined with --format json")
    s = _load_space(args.file)
    h = hasse(ball_set(s))
    if args.dot:
        sys.stdout.write(f"// ordspace {__version__} seed={args.seed}\n")
        sys.stdout.write(hasse_dot(h))
        return EXIT_OK
    _emit(
        args,
        {
            "vertices": [sorted(p + 1 for p in v) for v in h.vertices],
            "arcs": [[u + 1, v + 1] for u, v in h.arcs],
        },
        format_hasse(h).rstrip("\n").splitlines(),
    )
    return EXIT_OK


def cmd_embed1d(args):
    s = _load_space(args.file)
    w = embed_line(s)
    if w is None:
        ok, reason = profile_necessary_check(s)
        note = reason if not ok else "no point ordering admits a consistent placement"
        _emit(
            args,
            {"embeddable": False, "obstruction": note},
            ["not embeddable in the line", f"obstruction: {note}"],
        )
        return EXIT_NEGATIVE
    order = " ".join(point_label(p) for p in w.ordering)
    gaps = ", ".join(f"{_scalar_str(g)} ({float(g):.6g})" for g in w.gaps)
    _emit(
        args,
        {
            "embeddable": True,
            "ordering": [p + 1 for p in w.ordering],
            "gaps": list(w.gaps),
            "margin": w.margin,
        },
        [
            "embeddable in the line",
            f"ordering: {order}",
            f"gaps: {gaps}",
            f"margin: {_scalar_str(w.margin)}",
        ],
    )
    return EXIT_OK


def cmd_t10(args):
    s = _load_space(args.file)
    tag = classify_four_point(s)
    if tag is NOT_EMBEDDABLE:
        _emit(args, {"case": None}, ["NOT_EMBEDDABLE"])
        return EXIT_NEGATIVE
    _emit(args, {"case": tag}, [f"case {tag}"])
    return EXIT_OK


def cmd_embednd(args):
    s = _load_space(args.file)
    w = embed_heuristic(s, args.dim, restarts=args.restarts, seed=args.seed)
    if w is None:
        _emit(
            args,
            {"verified": False},
            [
                f"no verified embedding into R^{args.dim} found",
                "inconclusive: heuristic search failure is not a refutation",
            ],
        )
        return EXIT_NEGATIVE
    lines = [f"verified embedding into R^{w.dim}"]
    if w.certificate is None:
        for i, row in enumerate(w.coords):
            exact = ", ".join(_scalar_str(c) for c in row)
            approx = ", ".join(f"{float(c):.6g}" for c in row)
            lines.append(f"{point_label(i)}: ({exact})  ~ ({approx})")
    else:
        lines.append("exactness certified via squared-distance factorization;")
        lines.append("coordinates below are display approximations")
        for i, row in enumerate(w.coords):
            approx = ", ".join(f"{float(c):.6g}" for c in row)
            lines.append(f"{point_label(i)}: ({approx})")
    _emit(
        args,
        {
            "verified": True,
            "dim": w.dim,
            "exact_coordinates": w.certificate is None,
            "coordinates": [list(r) for r in w.coords],
        },
        lines,
    )
    return EXIT_OK


def cmd_check_r2(args):
    s = _load_space(args.file)
    ok, violations = plane_necessary_check(s)
    if ok:
        _emit(
            args,
            {"passes": True, "violations": []},
            ["all plane necessary conditions hold (embeddability stays open)"],
        )
        return EXIT_OK
    lines = ["not embeddable in the plane"]
    lines.extend(
        f"violated: {clause} (size {size}, bound {bound})"
        for clause, size, bound in violations
    )
    _emit(
        args,
        {
            "passes": False,
            "violations": [
                {"clause": c, "size": s_, "bound": b} for c, s_, b in violations
            ],
        },
        lines,
    )
    return EXIT_NEGATIVE


def cmd_census(args):
    filt = CensusFilter.INJECTIVE if args.filter == "injective" else CensusFilter.ALL
    rep = census_report(args.n, filt, huge=args.huge)
    ex = rep.extremes
    payload = {
        "n": rep.n,
        "filter": rep.filter.name,
        "classes": rep.total_nonisomorphic,
        "orbit_count": rep.burnside_total,
        "max_balls": ex.max_balls,
        "max_balls_verdict": ex.matches_A263511.name,
        "min_balls_distinct": ex.min_balls_distinct,
        "min_balls_verdict": ex.matches_triangular.name,
        "max_witness": format_rank_matrix(ex.max_witness) if ex.max_witness else None,
        "min_witness": format_rank_matrix(ex.min_witness) if ex.min_witness else None,
        "r1_embeddable": rep.r1_embeddable_count,
        "runtime_seconds": {k: round(v, 3) for k, v in rep.runtime_seconds.items()},
    }
    lines = [
        f"n = {rep.n}, filter = {rep.filter.name}",
        f"isomorphism classes: {rep.total_nonisomorphic} (orbit count {rep.burnside_total})",
        f"max balls: {ex.max_balls} [{ex.matches_A263511.name}]",
        f"min balls (injective ranks): {ex.min_balls_distinct} [{ex.matches_triangular.name}]",
    ]
    if rep.r1_embeddable_count is not None:
        lines.append(f"line-embeddable classes: {rep.r1_embeddable_count}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(_document(args, payload), fh, indent=2)
            fh.write("\n")
        lines.append(f"report written to {args.out}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_menger_probe(args):
    s = _load_space(args.file)
    rep = menger_probe(s, args.dim, seed=args.seed, restarts=args.restarts)
    lines = [f"dim = {rep.dim}, subsets up to size {rep.max_subset_size}"]
    for size, emb, ref, inc in rep.subset_counts:
        lines.append(
            f"size {size}: {emb} embeddable, {ref} refuted, {inc} inconclusive"
        )
    lines.append(f"whole space: {rep.whole_status}")
    cons = (
        "unknown"
        if rep.conjecture_consistent is None
        else ("yes" if rep.conjecture_consistent else "NO")
    )
    lines.append(f"subset criterion consistent: {cons}")
    _emit(
        args,
        {
            "dim": rep.dim,
            "max_subset_size": rep.max_subset_size,
            "subset_counts": [list(c) for c in rep.subset_counts],
            "refuted_subsets": [list(t) for t in rep.refuted_subsets],
            "whole_status": rep.whole_status,
            "conjecture_consistent": rep.conjecture_consistent,
        },
        lines,
    )
    return EXIT_NEGATIVE if rep.whole_status == NOT_EMBEDDABLE_STATUS else EXIT_OK


# -- wiring -----------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="ordspace",
        description="Finite ordinal spaces: balls, embeddings, censuses.",
    )
    p.add_argument("--version", action="version", version=f"ordspace {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *positionals):
        sp = sub.add_parser(name, help=help_text, description=help_text)
        sp.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="report rendering (default text)",
        )
        sp.add_argument("--seed", type=int, default=0, help="RNG seed, recorded in output")
        for positional in positionals:
            sp.add_argument(positional)
        sp.set_defaults(func=handler)
        return sp

    add("ordtype", cmd_ordtype, "rank matrix of a distance CSV", "file")
    add("validate", cmd_validate, "check a comparison list against the ordinal-space axioms", "file")
    add("iso", cmd_iso, "decide isomorphism of two spaces; also compares ball diagrams", "a", "b")

    sp = add("dord", cmd_dord, "minimum pair-comparison disagreements over bijections", "a", "b")
    sp.add_argument("--oracle", action="store_true", help="cross-check with the quadruple-counting oracle")

    add("balls", cmd_balls, "count and list all distinct balls", "file")

    sp = add("hasse", cmd_hasse, "covering digraph of the ball set under inclusion", "file")
    sp.add_argument("--dot", action="store_true", help="emit Graphviz DOT")

    add("embed1d", cmd_embed1d, "exact decision: embeddable in the real line?", "file")

    add("t10", cmd_t10, "four-point classifier: inequality-pattern case tag or NOT_EMBEDDABLE", "file")

    sp = add("embednd", cmd_embednd,
             "search a verified embedding into R^dim (failure is inconclusive)", "file")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--restarts", type=_positive_int, default=32)

    add("check-r2", cmd_check_r2, "necessary conditions for embeddability in the plane", "file")

    sp = add("census", cmd_census, "enumerate isomorphism classes and ball extremes")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--filter", choices=("all", "injective"), default="all")
    sp.add_argument("--huge", action="store_true", help="allow the large n=5 full enumeration")
    sp.add_argument("--out", help="also write the JSON report to this path")

    sp = add("menger-probe", cmd_menger_probe, "subset embeddability statistics for one space", "file")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--restarts", type=_positive_int, default=16)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SizeLimitError as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValidationError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SolverError, OrdspaceError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
