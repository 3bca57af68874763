"""Command-line frontend.

Subcommands
-----------
integral   exact value of the integral for an index tuple and upper limit
poly       the integral as a polynomial in the upper limit (coefficient list)
verify     run a named verification sweep; exit status reflects the outcome
bench      time several evaluation methods on one input (values must agree)
bernoulli  Bernoulli numbers and polynomials

Exit codes: 0 success / all instances passed, 1 verification failure or
method disagreement, 2 usage or parse error.  Rationals are rendered as
"p/q" (just "p" for integers) with the sign on the numerator; JSON mode
emits one self-contained record per invocation.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
import time
from fractions import Fraction
from typing import Sequence

from . import __version__
from .bernoulli import bernoulli_number, bernoulli_polynomial
from .integrals import (
    IntegralSpec,
    _factorial_product,
    closed_form_integral,
    closed_form_integral_poly,
    four_factor_at_one,
    oracle_integral,
    oracle_integral_poly,
    recurrence_integral,
    three_factor_at_one,
    three_factor_formula,
    two_factor_formula,
)
from .verify import SUITES, VerificationReport, run_suite

__all__ = ["format_rational", "main", "parse_index_list", "parse_rational"]

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


def parse_rational(text: str) -> Fraction:
    """Parse the wire format "p" or "p/q" (q > 0, sign on the numerator)."""
    m = _RATIONAL_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"not a rational in p/q form: {text!r}")
    return Fraction(int(m.group(1)), int(m.group(2)) if m.group(2) else 1)


def format_rational(value: Fraction) -> str:
    """Render a Fraction in the wire format (str() already matches it)."""
    return str(value)


def parse_index_list(text: str) -> tuple[int, ...]:
    """Parse a comma-separated list of nonnegative integers."""
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(not re.fullmatch(r"[0-9]+", p) for p in parts):
        raise ValueError(f"--ks must be comma-separated nonnegative integers, got {text!r}")
    return tuple(int(p) for p in parts)


def _ascii_int(text: str) -> int:
    """argparse type for integer arguments: ASCII digits with an optional minus."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"not an integer in ASCII digits: {text!r}")
    return int(text)


class _UsageError(Exception):
    pass


def _emit(record: dict, fmt: str, text_lines: Sequence[str]) -> None:
    if fmt == "json":
        print(json.dumps(record))
    else:
        for line in text_lines:
            print(line)


def _integral_value(spec: IntegralSpec, method: str) -> Fraction:
    if method == "closed":
        return closed_form_integral(spec.ks, spec.upper)
    if method == "oracle":
        return oracle_integral(spec.ks, spec.upper)
    if method == "auto":
        return _auto_value(spec)
    m = re.fullmatch(r"recurrence(?::([0-9]+))?", method)
    if m:
        mu = int(m.group(1) or 1)
        return recurrence_integral(spec.ks, spec.upper, mu) * _factorial_product(spec.ks)
    raise _UsageError(
        f"unknown method {method!r}; use closed, oracle, auto, recurrence or recurrence:<mu>"
    )


def _auto_value(spec: IntegralSpec) -> Fraction:
    # specialized formulas are preferred only over [0, 1], where the
    # at-one shapes are stated; elsewhere the general closed form runs
    ks, upper = spec.ks, spec.upper
    if upper == 1:
        if len(ks) == 2:
            return two_factor_formula(ks[0], ks[1], upper)
        if len(ks) == 3:
            if min(ks) >= 1:
                return three_factor_at_one(*ks)
            return three_factor_formula(*ks, upper)
        if len(ks) == 4:
            return four_factor_at_one(*ks)
    return closed_form_integral(ks, upper)


def _cmd_integral(args: argparse.Namespace) -> int:
    spec = IntegralSpec(parse_index_list(args.ks), parse_rational(args.upper))
    start = time.perf_counter_ns()
    value = _integral_value(spec, args.method)
    elapsed_us = (time.perf_counter_ns() - start) // 1000
    record = {
        "command": "integral",
        "ks": list(spec.ks),
        "upper": format_rational(spec.upper),
        "method": args.method,
        "value": format_rational(value),
        "time_us": elapsed_us,
    }
    _emit(record, args.format, [format_rational(value)])
    return 0


def _cmd_poly(args: argparse.Namespace) -> int:
    spec = IntegralSpec(parse_index_list(args.ks))
    start = time.perf_counter_ns()
    if args.method == "closed":
        poly = closed_form_integral_poly(spec.ks)
    else:
        poly = oracle_integral_poly(spec.ks)
    elapsed_us = (time.perf_counter_ns() - start) // 1000
    coeffs = [format_rational(c) for c in poly.coeffs]
    record = {
        "command": "poly",
        "ks": list(spec.ks),
        "method": args.method,
        "coefficients": coeffs,
        "time_us": elapsed_us,
    }
    _emit(record, args.format, [", ".join(coeffs)])
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    for flag, bound in (("--max-sum", args.max_sum), ("--max-r", args.max_r)):
        if bound < 0:
            raise _UsageError(f"{flag} must be >= 0, got {bound}")
    report: VerificationReport = run_suite(args.suite, args.max_sum, args.max_r)
    record = {"command": "verify", **report.to_dict()}
    lines = [
        f"suite: {report.suite}",
        f"instances: {report.attempted}  passed: {report.passed}",
    ]
    lines += [f"note: {note}" for note in report.notes]
    if report.first_failure is not None:
        lines.append(f"first failure: {report.first_failure}")
    lines.append(f"status: {'PASS' if report.ok else 'FAIL'}  ({report.elapsed_s:.2f}s)")
    _emit(record, args.format, lines)
    return 0 if report.ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    spec = IntegralSpec(parse_index_list(args.ks), parse_rational(args.upper))
    if args.reps < 1:
        raise _UsageError(f"--reps must be >= 1, got {args.reps}")
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    if not methods:
        raise _UsageError("--method must name at least one method")

    results = []
    for method in methods:
        timings = []
        value = None
        for _ in range(args.reps):
            start = time.perf_counter_ns()
            value = _integral_value(spec, method)
            timings.append((time.perf_counter_ns() - start) / 1000)
        results.append((method, value, statistics.median(timings)))

    values = {format_rational(v) for _, v, _ in results}
    agreed = len(values) == 1
    record = {
        "command": "bench",
        "ks": list(spec.ks),
        "upper": format_rational(spec.upper),
        "reps": args.reps,
        "agreed": agreed,
        "value": format_rational(results[0][1]) if agreed else None,
        "timings": [
            {"method": m, "value": format_rational(v), "median_us": round(t, 1)}
            for m, v, t in results
        ],
    }
    lines = [
        f"{m:<16} value={format_rational(v)}  median_us={t:.1f}" for m, v, t in results
    ]
    if not agreed:
        lines.append("METHOD DISAGREEMENT: " + ", ".join(sorted(values)))
    _emit(record, args.format, lines)
    if not agreed:
        print("error: methods returned different values", file=sys.stderr)
        return 1
    return 0


def _cmd_bernoulli(args: argparse.Namespace) -> int:
    start = time.perf_counter_ns()
    if args.kind == "number":
        payload = {"value": format_rational(bernoulli_number(args.k))}
        text = [payload["value"]]
    else:
        coeffs = [format_rational(c) for c in bernoulli_polynomial(args.k).coeffs]
        payload = {"coefficients": coeffs}
        text = [", ".join(coeffs)]
    elapsed_us = (time.perf_counter_ns() - start) // 1000
    record = {"command": "bernoulli", "kind": args.kind, "k": args.k,
              "time_us": elapsed_us, **payload}
    _emit(record, args.format, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernint",
        description="Exact integrals of products of Bernoulli polynomials.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default: text)")

    p = sub.add_parser("integral", help="integral of a product of Bernoulli polynomials")
    p.add_argument("--ks", required=True, help="comma-separated indices, e.g. 1,1,2")
    p.add_argument("--upper", default="1", help='upper limit as "p/q" (default: 1)')
    p.add_argument("--method", default="closed",
                   help="closed | recurrence:<mu> | oracle | auto (default: closed)")
    add_format(p)
    p.set_defaults(func=_cmd_integral)

    p = sub.add_parser("poly", help="the integral as a polynomial in the upper limit")
    p.add_argument("--ks", required=True, help="comma-separated indices")
    p.add_argument("--method", choices=("closed", "oracle"), default="closed")
    add_format(p)
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument("--suite", required=True, choices=sorted(SUITES),
                   help="which sweep to run")
    p.add_argument("--max-sum", type=_ascii_int, default=12, dest="max_sum",
                   help="bound on the index sum (default: 12)")
    p.add_argument("--max-r", type=_ascii_int, default=4, dest="max_r",
                   help="bound on the number of factors (default: 4)")
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="time evaluation methods on one input")
    p.add_argument("--ks", required=True, help="comma-separated indices")
    p.add_argument("--upper", default="1", help='upper limit as "p/q" (default: 1)')
    p.add_argument("--method", default="closed,oracle",
                   help="comma-separated methods to compare (default: closed,oracle)")
    p.add_argument("--reps", type=_ascii_int, default=5,
                   help="repetitions per method (default: 5)")
    add_format(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("bernoulli", help="Bernoulli numbers and polynomials")
    p.add_argument("kind", choices=("number", "poly"))
    p.add_argument("k", type=_ascii_int)
    add_format(p)
    p.set_defaults(func=_cmd_bernoulli)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, ValueError) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
        return 2  # unreachable; parser.exit raises SystemExit


if __name__ == "__main__":
    sys.exit(main())
