"""Command-line front end.

Subcommands::

    eval       weighted integral of a function file against a measure file
    decompose  local decomposition certificate at a boundary atom
    gram       monomial Gram section of a measure tuple (CSV)
    defects    shifted-norm defect report for a function and tuple
    verify     run one named verification suite, or all of them

``verify`` reports are CSV where ``--out`` ends in ``.csv``, else JSON;
``gram`` writes CSV and the rest JSON.  Identical (command, seed)
invocations produce byte-identical report files; timing to stderr only.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from .dirichlet import dirichlet_weighted, douglas_decompose
from .functions import AnalyticFunction
from .measures import CircleMeasure, MeasureTuple
from .operators import defect_sequence, gram_section
from .quadrature import QuadratureSpec
from .suites import SUITES, VerificationReport, run_all, run_suite


class InputError(ValueError):
    """Malformed input file or argument (exit code 2)."""


def _load(path: str, parse, kind: str):
    """``parse`` applied to the JSON in ``path``; bad input is an InputError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(payload)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed {kind} file {path}: {exc}") from exc


def _parse_spec(text: str | None) -> QuadratureSpec | None:
    # no --quad: the library picks the grid, and the JSON reports it
    if text is None:
        return None
    try:
        return QuadratureSpec.from_csv(text)
    except ValueError as exc:
        raise InputError(f"bad --quad value: {exc}") from exc


def _dump_json(payload) -> str:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise InputError(f"result is not finite: {exc}") from exc
    return text + "\n"


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc


def _reports_csv(reports: list[VerificationReport]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["suite", "trials", "seed", "passed", "failures",
                     "max_residual"])
    for report in reports:
        writer.writerow(
            [
                report.suite,
                report.trials,
                report.seed,
                int(report.passed),
                len(report.failures),
                repr(report.max_residual),
            ]
        )
    return buffer.getvalue()


def _emit_reports(reports: list[VerificationReport], out: str | None,
                  single: bool) -> None:
    if out is not None and out.endswith(".csv"):
        _write_text(_reports_csv(reports), out)
        return
    if single:
        payload = reports[0].to_json()
    else:
        payload = [report.to_json() for report in reports]
    _write_text(_dump_json(payload), out)


def _cmd_eval(args: argparse.Namespace) -> int:
    f = _load(args.function, AnalyticFunction.from_json, "function")
    measure = _load(args.measure, CircleMeasure.from_json, "measure")
    spec = _parse_spec(args.quad)
    result = dirichlet_weighted(
        f, measure, args.n, spec, force_quadrature=args.force_quadrature
    )
    _write_text(_dump_json(result.to_json()), args.out)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    f = _load(args.function, AnalyticFunction.from_json, "function")
    spec = _parse_spec(args.quad)
    certificate = douglas_decompose(f, cmath.exp(1j * args.atom), args.n, spec)
    _write_text(_dump_json(certificate.to_json()), args.out)
    return 0


def _cmd_gram(args: argparse.Namespace) -> int:
    measures = _load(args.measures, MeasureTuple.from_json, "measure tuple")
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        section = gram_section(measures, args.degree)
    if not np.isfinite(section.matrix).all():
        raise InputError("result is not finite: the Gram section overflows")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(section.to_csv_rows())
    _write_text(buffer.getvalue(), args.out)
    return 0


def _cmd_defects(args: argparse.Namespace) -> int:
    f = _load(args.function, AnalyticFunction.from_json, "function")
    measures = _load(args.measures, MeasureTuple.from_json, "measure tuple")
    report = defect_sequence(f, measures, args.max_order)
    _write_text(_dump_json(report.to_json()), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = _parse_spec(args.quad)
    if args.suite == "all" and args.n is not None:
        raise InputError("--n applies to a single suite, not 'all'")
    if args.suite == "all":
        reports = run_all(
            seed=args.seed, spec=spec, trials=args.trials, tolerance=args.tol
        )
    else:
        reports = [
            run_suite(
                args.suite,
                trials=args.trials,
                seed=args.seed,
                spec=spec,
                orders=None if args.n is None else [args.n],
                tolerance=args.tol,
            )
        ]
    for report in reports:
        status = "pass" if report.passed else "FAIL"
        print(
            f"[{report.suite}] {status} trials={report.trials} "
            f"max_residual={report.max_residual:.3e} "
            f"({report.elapsed:.2f}s)",
            file=sys.stderr,
        )
    _emit_reports(reports, args.out, single=args.suite != "all")
    return 0 if all(report.passed for report in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirikit",
        description=(
            "Weighted Dirichlet-type integrals on the unit disc: exact "
            "series, disc quadrature, and identity verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_quad(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--quad",
            metavar="R,A",
            help="quadrature grid: radial and angular node counts, e.g. 96,256",
        )

    def add_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", metavar="PATH", help="output file (stdout if absent)")

    p_eval = sub.add_parser("eval", help="evaluate a weighted integral")
    p_eval.add_argument("--function", required=True, help="function JSON file")
    p_eval.add_argument("--measure", required=True, help="measure JSON file")
    p_eval.add_argument("--n", type=int, required=True, help="integral order")
    p_eval.add_argument(
        "--force-quadrature",
        action="store_true",
        help="use the quadrature route even for exact polynomials",
    )
    add_quad(p_eval)
    add_out(p_eval)
    p_eval.set_defaults(handler=_cmd_eval)

    p_dec = sub.add_parser("decompose", help="local decomposition certificate")
    p_dec.add_argument("--function", required=True, help="function JSON file")
    p_dec.add_argument(
        "--atom", type=float, required=True, help="boundary atom angle (radians)"
    )
    p_dec.add_argument("--n", type=int, required=True, help="integral order")
    add_quad(p_dec)
    add_out(p_dec)
    p_dec.set_defaults(handler=_cmd_decompose)

    p_gram = sub.add_parser("gram", help="monomial Gram section (CSV)")
    p_gram.add_argument(
        "--measures", required=True, help="measure tuple JSON file"
    )
    p_gram.add_argument("--degree", type=int, required=True, help="section degree")
    add_out(p_gram)
    p_gram.set_defaults(handler=_cmd_gram)

    p_def = sub.add_parser("defects", help="shifted-norm defect report")
    p_def.add_argument("--function", required=True, help="function JSON file")
    p_def.add_argument(
        "--measures", required=True, help="measure tuple JSON file"
    )
    p_def.add_argument(
        "--max-order", type=int, default=4, help="highest difference order"
    )
    add_out(p_def)
    p_def.set_defaults(handler=_cmd_defects)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument(
        "suite",
        choices=sorted(SUITES) + ["all"],
        help="suite name, or 'all'",
    )
    p_ver.add_argument("--trials", type=int, help="trial count override")
    p_ver.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p_ver.add_argument(
        "--n",
        type=int,
        help="restrict to one order; suites without orders reject it",
    )
    p_ver.add_argument("--tol", type=float, help="tolerance override")
    add_quad(p_ver)
    add_out(p_ver)
    p_ver.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        # argparse hands [] to an option written --opt=--
        if isinstance(value, list):
            option = "--" + name.replace("_", "-")
            print(f"error: argument {option}: expected one argument", file=sys.stderr)
            return 2
    try:
        return args.handler(args)
    # bad input, or a computation that input makes fail, overflow or
    # need more memory than there is
    except (ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
