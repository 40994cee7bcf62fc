"""Command-line front end.

Subcommands: mixedvol, volume, check, fuzz, extremal, grassmann-sample,
report.  Exit codes: 0 all checks hold, 1 a violation was found, 2 usage or
input error.  Each subcommand accepts only the flags it reads: every one
takes --out; --seed on fuzz, grassmann-sample and report; --output on
check, fuzz, grassmann-sample and report.  Every value is exact.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Optional

from .grassmann import (
    MAX_COLUMNS,
    abs_map,
    check_gp3,
    check_quad_ineq,
    pluecker,
    render_pluecker_csv,
)
from .numeric import (
    approx_str,
    int_str,
    parse_matrix,
    parse_rational,
    render_matrix,
    render_rational,
)
from .reduction import SStats, extremal_config
from .rng import SplitMix64, random_columns
from .verify import (
    MAX_COEFF_BOUND,
    TARGETS,
    FuzzConfig,
    IneqReport,
    check_af_square,
    check_bezout,
    check_coeff_bound,
    check_lemma_matrix,
    check_seed,
    fuzz,
)
from .witness import pyramid_equality_report
from .zonotope import (
    Zonotope3,
    mixed_volume,
    mixed_volume_repeated,
    parse_zonotope,
    render_zonotope,
    volume,
)

_CHECK_ARITY = {"bezout": 3, "lemma": 1, "af-square": 4, "grassmann": 1}


def _load(parse, path: str):
    """Parse one input file with `parse`; errors name the path."""
    try:
        return parse(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _emit(text: str, args) -> None:
    """Write text to --out, or else to stdout.

    --out is opened at the first write and closed by `main`, so output may
    come in pieces, and a run refused before its first write creates no file.
    """
    if not args.out:
        sys.stdout.write(text)
        return
    if args.stream is None:
        args.stream = open(args.out, "w")
    args.stream.write(text)


def _rat_line(label: str, q: Fraction) -> str:
    return f"{label} = {render_rational(q)} ({approx_str(q)})"


def _report_text(report: IneqReport) -> str:
    lines = [
        _rat_line("lhs  ", report.lhs),
        _rat_line("rhs  ", report.rhs),
        _rat_line("slack", report.slack),
    ]
    if report.ratio is not None:
        lines.append(_rat_line("ratio", report.ratio))
    else:
        lines.append("ratio = undefined (a right-hand factor vanishes)")
    lines.append(f"holds = {'yes' if report.holds else 'NO'}")
    return "\n".join(lines) + "\n"


_CSV_HEADER = "lhs,rhs,slack,ratio,holds"


def _csv_row(report: IneqReport) -> str:
    """One CSV row under _CSV_HEADER, without a line end."""
    ratio = render_rational(report.ratio) if report.ratio is not None else ""
    return (f"{render_rational(report.lhs)},{render_rational(report.rhs)},"
            f"{render_rational(report.slack)},{ratio},{report.holds}")


def cmd_mixedvol(args) -> int:
    v = mixed_volume(*(_load(parse_zonotope, p) for p in args.files))
    _emit(f"{render_rational(v)} ({approx_str(v)})\n", args)
    return 0


def cmd_volume(args) -> int:
    v = volume(_load(parse_zonotope, args.file))
    _emit(f"{render_rational(v)} ({approx_str(v)})\n", args)
    return 0


def _relation_verdict(point) -> tuple[str, bool]:
    """The exchange-relation line for a minor vector, and whether every residual is 0."""
    residuals = check_gp3(point)
    bad = len(residuals) - residuals.count(0)
    return (f"exchange relations checked = {len(residuals)}, nonzero residuals = {bad}",
            bad == 0)


def _check_grassmann(args) -> int:
    columns = _load(parse_matrix, args.files[0])
    point = pluecker(columns)
    relations, ok = _relation_verdict(point)
    quad = check_quad_ineq(abs_map(point)) if len(columns) >= 5 else None
    ok = ok and (quad is None or quad.holds)
    if args.output == "csv":
        row = f"quad-ineq,{_csv_row(quad)}\n" if quad is not None else ""
        _emit(f"name,{_CSV_HEADER}\n{row}", args)
    else:
        text = f"columns = {len(columns)}, minor coordinates = {len(point.coords)}\n{relations}\n"
        if quad is not None:
            text += _report_text(quad)
        _emit(text, args)
    return 0 if ok else 1


def cmd_check(args) -> int:
    expected = _CHECK_ARITY[args.target]
    if len(args.files) != expected:
        raise ValueError(f"check {args.target} needs {expected} input file(s), "
                         f"got {len(args.files)}")
    if args.target == "grassmann":
        return _check_grassmann(args)
    # Built per call, so each check is this module's global at call time
    # (perfbench's tracer rebinds them).
    parse, render, check = {
        "bezout": (parse_zonotope, render_zonotope, check_bezout),
        "lemma": (parse_matrix, render_matrix, check_lemma_matrix),
        "af-square": (parse_zonotope, render_zonotope, check_af_square),
    }[args.target]
    inputs = [_load(parse, p) for p in args.files]
    report = check(*inputs)
    if args.output == "csv":
        _emit(f"{_CSV_HEADER}\n{_csv_row(report)}\n", args)
    else:
        _emit(_report_text(report), args)
    if not report.holds:
        sys.stderr.write("violated by input:\n" + "".join(map(render, inputs)))
        return 1
    return 0


def cmd_fuzz(args) -> int:
    target = args.target.replace("-", "_")
    config = FuzzConfig(target=target, trials=args.trials, m_max=args.m_max,
                        coeff_bound=args.coeff_bound, seed=args.seed)
    if args.output == "csv":
        _emit("trial,target,m,slack_num,slack_den,ratio_num,ratio_den\n", args)

        def on_trial(index: int, m: int, report: IneqReport) -> None:
            # The report's integer pairs (denominators positive) in lowest
            # terms, as the Fractions would print them, without building one.
            (sn, sd), ratio = report._pairs()
            g = gcd(sn, sd)
            if ratio is not None:
                rn, rd = ratio
                h = gcd(rn, rd)
                rn, rd = int_str(rn // h), int_str(rd // h)
            else:
                rn, rd = "", ""
            _emit(f"{index},{target},{m},{int_str(sn // g)},{int_str(sd // g)},{rn},{rd}\n", args)

        summary = fuzz(config, on_trial=on_trial)
    else:
        summary = fuzz(config)
        lines = [
            f"target      = {target}",
            f"trials      = {summary.trials}",
            f"seed        = {summary.seed}",
            f"failures    = {summary.failures}",
            _rat_line("min slack  ", summary.min_slack),
        ]
        if summary.max_ratio is not None:
            lines.append(_rat_line("max ratio  ", summary.max_ratio))
        lines.append("worst case (minimum slack):")
        lines.append(summary.worst_case.rstrip("\n"))
        _emit("\n".join(lines) + "\n", args)
    return 0 if summary.failures == 0 else 1


def cmd_extremal(args) -> int:
    s = SStats(*(parse_rational(v) for v in (args.s1, args.s2, args.s3, args.s4)))
    lo, hi = parse_rational(args.lo), parse_rational(args.hi)
    lo2, hi2 = parse_rational(args.lo2), parse_rational(args.hi2)
    a, b, c = extremal_config(s, lo, hi, lo2, hi2)
    report = check_bezout(a, b, c)
    balanced = s.s1 * s.s4 == s.s2 * s.s3
    lines = [
        "generators of A:",
        render_zonotope(a).rstrip("\n"),
        _rat_line("V(A,A,A)", volume(a)),
        _rat_line("V(A,B,C)", mixed_volume(a, b, c)),
        _rat_line("V(A,A,B)", mixed_volume_repeated(a, b)),
        _rat_line("V(A,A,C)", mixed_volume_repeated(a, c)),
    ]
    if report.ratio is not None:
        lines.append(_rat_line("ratio   ", report.ratio))
        lines.append(f"ratio equals 3/2: {'yes' if report.ratio == Fraction(3, 2) else 'no'}")
    else:
        lines.append("ratio    = undefined (a right-hand factor vanishes)")
    lines.append(f"s1*s4 == s2*s3: {'yes' if balanced else 'no'}")
    _emit("\n".join(lines) + "\n", args)
    return 0 if report.holds else 1


def cmd_grassmann_sample(args) -> int:
    if args.n < 3:
        raise ValueError(f"--n must be >= 3, got {args.n}")
    if args.n > MAX_COLUMNS:
        raise ValueError(f"--n must be <= {MAX_COLUMNS}, got {args.n}")
    check_coeff_bound(args.coeff_bound)
    check_seed(args.seed)
    rng = SplitMix64(args.seed)
    columns = random_columns(rng, args.n, args.coeff_bound)
    point = pluecker(columns)
    relations, ok = _relation_verdict(point)
    if args.output == "csv":
        _emit(render_pluecker_csv(point), args)
    else:
        _emit(f"# random 3x{args.n} matrix, seed {args.seed}\n"
              + render_matrix(columns)
              + f"# minor coordinates ({len(point.coords)}):\n"
              + render_pluecker_csv(point)
              + f"# {relations}\n", args)
    return 0 if ok else 1


def cmd_report(args) -> int:
    """Run the built-in showcase battery; exit 0 only if everything holds."""
    check_seed(args.seed)
    configs = [FuzzConfig(target=target, trials=args.trials, m_max=6, coeff_bound=12,
                          seed=args.seed) for target in ("bezout", "lemma", "af_square")]
    checks: list[tuple[str, IneqReport]] = []

    equality = extremal_config(SStats(*(Fraction(1),) * 4),
                               Fraction(0), Fraction(1), Fraction(0), Fraction(1))
    checks.append(("4-generator equality configuration", check_bezout(*equality)))
    checks.append(("square pyramid segment witness", pyramid_equality_report()))

    cube = Zonotope3.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    seg1 = Zonotope3.from_generators([(1, 0, 0)])
    seg2 = Zonotope3.from_generators([(0, 1, 0)])
    checks.append(("unit cube vs its edge segments", check_bezout(cube, seg1, seg2)))
    checks.append(("generator-matrix form on the cube", check_lemma_matrix(cube)))

    minors = pluecker(Zonotope3(equality[0].generators + seg1.generators + seg2.generators))
    _, gp_ok = _relation_verdict(minors)
    checks.append(("quadratic minor inequality (6 columns)", check_quad_ineq(abs_map(minors))))

    fuzz_lines = []
    all_hold = gp_ok and all(report.holds for _, report in checks)
    for config in configs:
        summary = fuzz(config)
        all_hold = all_hold and summary.failures == 0
        fuzz_lines.append(f"fuzz {config.target:<9} trials={summary.trials} "
                          f"failures={summary.failures} "
                          f"min_slack={render_rational(summary.min_slack)}")

    if args.output == "csv":
        rows = [f"{name},{_csv_row(report)}" for name, report in checks]
        _emit("\n".join([f"name,{_CSV_HEADER}"] + rows) + "\n", args)
    else:
        blocks = [f"== {name}\n{_report_text(report)}" for name, report in checks]
        blocks.append(f"== exchange-relation residuals all zero: {'yes' if gp_ok else 'NO'}\n")
        blocks.append("\n".join(fuzz_lines) + "\n")
        _emit("\n".join(blocks), args)
    return 0 if all_hold else 1


def build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write output to this path")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", choices=("text", "csv"), default="text",
                        help="output format")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=1, help="64-bit RNG seed")
    coeff_help = f"bound on sampled numerators and denominators, 1 to {MAX_COEFF_BOUND}"

    parser = argparse.ArgumentParser(
        prog="zonomix",
        description="Exact mixed volumes of zonotopes in R^3 and mechanical "
                    "verification of the inequality "
                    "V(A,A,A)V(A,B,C) <= (3/2)V(A,A,B)V(A,A,C).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mixedvol", parents=[out],
                       help="mixed volume of three zonotope files")
    p.add_argument("files", nargs=3, metavar="ZONOTOPE")
    p.set_defaults(func=cmd_mixedvol)

    p = sub.add_parser("volume", parents=[out], help="volume of a zonotope file")
    p.add_argument("file", metavar="ZONOTOPE")
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("check", parents=[out, output],
                       help="check one inequality on explicit inputs")
    p.add_argument("target", choices=sorted(_CHECK_ARITY))
    p.add_argument("files", nargs="+", metavar="FILE")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("fuzz", parents=[out, output, seed],
                       help="randomized exact checking with a deterministic seed")
    p.add_argument("--target", required=True,
                   choices=tuple(target.replace("_", "-") for target in TARGETS))
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--m-max", type=int, default=6, dest="m_max")
    p.add_argument("--coeff-bound", type=int, default=16, dest="coeff_bound", help=coeff_help)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("extremal", parents=[out],
                       help="build the 4-generator tight configuration and report it")
    p.add_argument("--s1", default="1")
    p.add_argument("--s2", default="1")
    p.add_argument("--s3", default="1")
    p.add_argument("--s4", default="1")
    p.add_argument("--lo", default="0", help="first x-slope value")
    p.add_argument("--hi", default="1", help="second x-slope value")
    p.add_argument("--lo2", default="0", help="first y-slope value")
    p.add_argument("--hi2", default="1", help="second y-slope value")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("grassmann-sample", parents=[out, output, seed],
                       help="random matrix -> minor coordinates (CSV) + relation check")
    p.add_argument("--n", type=int, default=6, help="number of columns")
    p.add_argument("--coeff-bound", type=int, default=16, dest="coeff_bound", help=coeff_help)
    p.set_defaults(func=cmd_grassmann_sample)

    p = sub.add_parser("report", parents=[out, output, seed],
                       help="named witnesses plus a short fuzz pass on every checker")
    p.add_argument("--trials", type=int, default=200)
    p.set_defaults(func=cmd_report)

    return parser


# Built at the first `main` call and kept: building costs more than a small check.
_parser = functools.cache(build_parser)

# argparse reads an argument that starts with "-" as a flag unless it looks
# like a negative decimal number, so it would take the -1/2 of
# `extremal --lo -1/2` for one.  `main` passes a rational flag followed by
# "-<digit>..." on as "--lo=-1/2"; the rational reader then accepts or
# refuses the value as it does in that form.
_RATIONAL_FLAGS = frozenset({"--s1", "--s2", "--s3", "--s4", "--lo", "--hi", "--lo2", "--hi2"})
_NEGATIVE = re.compile(r"-[0-9]")


def _join_negative_values(argv: list[str]) -> list[str]:
    """`extremal` arguments with each rational flag joined to a negative value after it."""
    if argv[:1] != ["extremal"]:
        return argv
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in _RATIONAL_FLAGS and _NEGATIVE.match(arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser().parse_args(_join_negative_values(argv))
    args.stream = None
    try:
        try:
            return args.func(args)
        finally:
            if args.stream is not None:
                args.stream.close()
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
