"""Command-line frontend.

Subcommands
-----------
integral   exact value of the integral for an index tuple and upper limit
poly       the integral as a polynomial in the upper limit (coefficient list)
verify     run a named verification sweep; exit status reflects the outcome
bench      time several evaluation methods on one input (values must agree)
bernoulli  Bernoulli numbers and polynomials

Exit codes: 0 success / all instances passed, 1 verification failure or
method disagreement, 2 usage or parse error or an input above a work limit.  Rationals are rendered as
"p/q" (just "p" for integers) with the sign on the numerator; JSON mode
emits one self-contained record per invocation.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import re
import reprlib
import sys
import time
from fractions import Fraction
from typing import Sequence

from . import __version__
from .bernoulli import bernoulli_number, bernoulli_polynomial
from .exact import compositions
from .integrals import (
    _factorial_product,
    closed_form_integral,
    closed_form_integral_poly,
    four_factor_at_one,
    oracle_integral,
    oracle_integral_poly,
    recurrence_integral,
    three_factor_at_one,
)

__all__ = ["format_rational", "main", "parse_index_list", "parse_rational"]

# Work bounds for one command, checked before the work starts; the library
# itself is unbounded.  Times are from Python 3.11 on 2 x86-64 vCPUs.
# - MAX_INDEX_SUM bounds k_1 + ... + k_r for `integral`, `poly` and `bench`,
#   and k for `bernoulli`: at 1,000, by the closed form, cold, one index or
#   (500,499,1) takes 0.3-0.4 s at upper 1 or 1/5.  The closed form takes
#   the largest index last, so equal indices are slowest: (200,)*5 takes
#   1.9 s at upper 1 and 4.3 s at 1/5.
# - MAX_POLY_PRODUCTS bounds the d^2 k_r/2 + d^3/6 coefficient products of
#   `poly --method closed` in the order it evaluates, largest index last:
#   k_r = max(ks) and d = sum(ks) - k_r.  (30,)*8 costs 2.2 million and
#   takes 0.6 s.
# - MAX_RECURRENCE_WORK bounds the box cells `recurrence:<mu>` visits, one
#   per boundary term and per residual integral, times (index sum + 1)^2:
#   the slowest input found inside it, (1,)*20 at mu = 5, takes 3 s.
# - MAX_UPPER_SIZE bounds (index sum + 1) x (bits of p + bits of q) for an
#   upper p/q in `integral` and `bench`; the value has about that many bits,
#   twice as many for p = 1.  (100,) at 1/10^45 comes to 15,251 and runs in
#   3 ms.  At index sum 1,000 the limit leaves the upper 15 bits, where
#   (200,)*5 takes 10.5 s at 1/16383.
# - MAX_SWEEP_TUPLES bounds `verify` by C(S + R + 1, R) - 1, the tuples of at
#   most R = max(max_r, 4) parts with sum at most S = max(max_sum, 4 max_r),
#   which hold every tuple any suite walks.  The slowest suite inside it,
#   carlitz4 at --max-sum 32 (66,044 tuples), takes 10 s; --max-r 5 runs up
#   to --max-sum 20.
MAX_INDEX_SUM = 1_000
MAX_POLY_PRODUCTS = 4_000_000
MAX_RECURRENCE_WORK = 10_000_000
MAX_UPPER_SIZE = 16_000
MAX_SWEEP_TUPLES = 70_000

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


def parse_rational(text: str) -> Fraction:
    """Parse the wire format "p" or "p/q" (q > 0, sign on the numerator), in full.

    Python refuses to convert more than 4,300 digits to an int by default;
    the limit is lifted for the conversions only and then restored, so every
    value `format_rational` prints parses back.
    """
    m = _RATIONAL_RE.fullmatch(text)
    if not m:
        raise ValueError(f"not a rational in p/q form: {reprlib.repr(text)}")
    with _all_digits():
        return Fraction(int(m.group(1)), int(m.group(2)) if m.group(2) else 1)


def format_rational(value: Fraction) -> str:
    """Render a Fraction in the wire format (str() already matches it), in full."""
    with _all_digits():
        return str(value)


@contextlib.contextmanager
def _all_digits():
    """Lift Python's 4,300-digit limit on int/str conversions, then restore it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def parse_index_list(text: str) -> tuple[int, ...]:
    """Parse a comma-separated list of nonnegative integers, each at most MAX_INDEX_SUM."""
    if not re.fullmatch(r"[0-9]+(?:,[0-9]+)*", text):
        raise ValueError(
            f"--ks must be comma-separated nonnegative integers, got {reprlib.repr(text)}"
        )
    return tuple(map(_index, text.split(",")))


def _index(text: str) -> int:
    """A nonnegative index in ASCII digits, refused unconverted above MAX_INDEX_SUM.

    Leading zeros are stripped; an index with more significant digits than
    MAX_INDEX_SUM is above it on its own, so its text is never converted.
    """
    if not re.fullmatch(r"[0-9]+", text):
        raise ValueError(f"not a nonnegative integer in ASCII digits: {reprlib.repr(text)}")
    digits = text.lstrip("0") or "0"
    if len(digits) > len(str(MAX_INDEX_SUM)):
        raise ValueError(
            f"an index of {len(digits):,} digits is above the limit "
            f"MAX_INDEX_SUM = {MAX_INDEX_SUM:,}"
        )
    return int(digits)


def _ascii_int(text: str) -> int:
    """argparse type for integer arguments: ASCII digits with an optional minus."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(
            f"not an integer in ASCII digits: {reprlib.repr(text)}"
        )
    digits, most = text.lstrip("-").lstrip("0") or "0", sys.get_int_max_str_digits()
    if len(digits) > most > 0:  # int() would refuse it, echoing the text in argparse's error
        raise argparse.ArgumentTypeError(
            f"{len(digits):,} digits are more than the {most:,} that Python converts to an int"
        )
    return -int(digits) if text.startswith("-") else int(digits)


class _UsageError(Exception):
    pass


class _SuiteNames:
    """The keys of `verify.SUITES` as argparse choices, imported only when read."""

    def __iter__(self):
        from .verify import SUITES

        return iter(sorted(SUITES))

    def __contains__(self, name: object) -> bool:
        return name in list(self)


def _emit(record: dict, fmt: str, text_lines: Sequence[str]) -> None:
    if fmt == "json":
        print(json.dumps(record))
    else:
        for line in text_lines:
            print(line)


def _check_index_sum(ks: Sequence[int]) -> None:
    if sum(ks) > MAX_INDEX_SUM:
        raise _UsageError(
            f"index sum {sum(ks)} is above the limit MAX_INDEX_SUM = {MAX_INDEX_SUM}"
        )


def _parse_upper(text: str) -> Fraction:
    # p/q within MAX_UPPER_SIZE has bits(p) + bits(q) <= MAX_UPPER_SIZE, so
    # at most MAX_UPPER_SIZE log10(2) + 2 digits; a longer text is refused
    # before its quadratic-time conversion to int
    digits = sum(map(str.isdigit, text))
    most = int(MAX_UPPER_SIZE * math.log10(2)) + 2
    if digits > most:
        raise _UsageError(
            f"--upper has {digits:,} digits; an upper within the limit "
            f"MAX_UPPER_SIZE = {MAX_UPPER_SIZE:,} has at most {most:,}"
        )
    return parse_rational(text)


def _check_upper_size(ks: Sequence[int], upper: Fraction) -> None:
    factor = sum(ks) + 1
    bits = abs(upper.numerator).bit_length() + upper.denominator.bit_length()
    if factor * bits > MAX_UPPER_SIZE:
        raise _UsageError(
            f"(index sum + 1) x (bits of p + bits of q) = {factor:,} x {bits:,} "
            f"= {factor * bits:,} is above the limit MAX_UPPER_SIZE = {MAX_UPPER_SIZE:,}"
        )


def _check_recurrence_work(ks: tuple[int, ...], mu: int) -> None:
    heads = ks[:-1]
    cap = MAX_RECURRENCE_WORK // (sum(ks) + 1) ** 2
    cells = itertools.chain.from_iterable(
        compositions(a, heads) for a in range(min(mu, sum(heads)) + 1)
    )
    if sum(1 for _ in itertools.islice(cells, cap + 1)) > cap:
        raise _UsageError(
            f"recurrence:{mu} visits more than {cap:,} box cells at index sum {sum(ks)}, "
            f"above the limit MAX_RECURRENCE_WORK = {MAX_RECURRENCE_WORK:,} "
            "cells times (index sum + 1)^2"
        )


def _integral_value(ks: tuple[int, ...], upper: Fraction, method: str) -> Fraction:
    if method == "closed":
        return closed_form_integral(ks, upper)
    if method == "oracle":
        return oracle_integral(ks, upper)
    if method == "auto":
        return _auto_value(ks, upper)
    m = re.fullmatch(r"recurrence(?::([0-9]+))?", method)
    if m:
        depth = (m.group(1) or "1").lstrip("0") or "0"
        # every depth past k_1 + ... + k_(r-1) <= MAX_INDEX_SUM gives the same value and work
        mu = MAX_INDEX_SUM + 1 if len(depth) > len(str(MAX_INDEX_SUM)) else int(depth)
        _check_recurrence_work(ks, mu)
        return recurrence_integral(ks, upper, mu) * _factorial_product(ks)
    raise _UsageError(
        f"unknown method {reprlib.repr(method)}; "
        "use closed, oracle, auto, recurrence or recurrence:<mu>"
    )


def _auto_value(ks: tuple[int, ...], upper: Fraction) -> Fraction:
    # over [0, 1] the at-one formulas that measured faster than the closed
    # form, cold on small tuples (median time over the closed form's):
    # three_factor_at_one 0.46, four_factor_at_one 0.71 at even index sums
    # and 0.02 at odd ones; everything else runs the closed form
    if upper == 1 and len(ks) == 3 and min(ks) >= 1:
        return three_factor_at_one(*ks)
    if upper == 1 and len(ks) == 4:
        return four_factor_at_one(*ks)
    return closed_form_integral(ks, upper)


def _cmd_integral(args: argparse.Namespace) -> int:
    ks, upper = parse_index_list(args.ks), _parse_upper(args.upper)
    _check_index_sum(ks)
    _check_upper_size(ks, upper)
    start = time.perf_counter_ns()
    value = _integral_value(ks, upper, args.method)
    elapsed_us = (time.perf_counter_ns() - start) // 1000
    record = {
        "command": "integral",
        "ks": list(ks),
        "upper": format_rational(upper),
        "method": args.method,
        "value": format_rational(value),
        "time_us": elapsed_us,
    }
    _emit(record, args.format, [format_rational(value)])
    return 0


def _cmd_poly(args: argparse.Namespace) -> int:
    ks = parse_index_list(args.ks)
    _check_index_sum(ks)
    kr = max(ks)  # closed_form_integral_poly evaluates the largest index last
    d = sum(ks) - kr
    products = d * d * kr // 2 + d**3 // 6
    if args.method == "closed" and products > MAX_POLY_PRODUCTS:
        raise _UsageError(
            f"--method closed costs about {products:,} coefficient products here, above "
            f"the limit MAX_POLY_PRODUCTS = {MAX_POLY_PRODUCTS:,} (--method oracle is cheaper)"
        )
    start = time.perf_counter_ns()
    if args.method == "closed":
        poly = closed_form_integral_poly(ks)
    else:
        poly = oracle_integral_poly(ks)
    elapsed_us = (time.perf_counter_ns() - start) // 1000
    coeffs = [format_rational(c) for c in poly.coeffs]
    record = {
        "command": "poly",
        "ks": list(ks),
        "method": args.method,
        "coefficients": coeffs,
        "time_us": elapsed_us,
    }
    _emit(record, args.format, [", ".join(coeffs)])
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    for flag, bound in (("--max-sum", args.max_sum), ("--max-r", args.max_r)):
        if bound < 0:
            raise _UsageError(f"{flag} must be >= 0")
    parts, total = max(args.max_r, 4), max(args.max_sum, 4 * args.max_r)
    # C(total + 1 + i, i) - 1 tuples have at most i parts; the count stops
    # once it passes the limit, so a bound of thousands of digits costs one factor
    tuples = 1
    for i in range(1, parts + 1):
        tuples = tuples * (total + 1 + i) // i
        if tuples - 1 > MAX_SWEEP_TUPLES:
            admitted = f"{tuples - 1:,}" if i == parts else f"more than {MAX_SWEEP_TUPLES:,}"
            raise _UsageError(
                f"--max-sum and --max-r admit {admitted} tuples, above the limit "
                f"MAX_SWEEP_TUPLES = {MAX_SWEEP_TUPLES:,}"
            )
    from .verify import run_suite  # the suites load only for this command

    report = run_suite(args.suite, args.max_sum, args.max_r)
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
    import statistics

    ks, upper = parse_index_list(args.ks), _parse_upper(args.upper)
    _check_index_sum(ks)
    _check_upper_size(ks, upper)
    if args.reps < 1:
        raise _UsageError("--reps must be >= 1")
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    if not methods:
        raise _UsageError("--method must name at least one method")

    results = []
    for method in methods:
        timings = []
        value = None
        for _ in range(args.reps):
            start = time.perf_counter_ns()
            value = _integral_value(ks, upper, method)
            timings.append((time.perf_counter_ns() - start) / 1000)
        results.append((method, value, statistics.median(timings)))

    values = {format_rational(v) for _, v, _ in results}
    agreed = len(values) == 1
    record = {
        "command": "bench",
        "ks": list(ks),
        "upper": format_rational(upper),
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
    k = _index(args.k)
    _check_index_sum((k,))
    start = time.perf_counter_ns()
    if args.kind == "number":
        payload = {"value": format_rational(bernoulli_number(k))}
        text = [payload["value"]]
    else:
        coeffs = [format_rational(c) for c in bernoulli_polynomial(k).coeffs]
        payload = {"coefficients": coeffs}
        text = [", ".join(coeffs)]
    elapsed_us = (time.perf_counter_ns() - start) // 1000
    record = {"command": "bernoulli", "kind": args.kind, "k": k,
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
    p.add_argument("--suite", required=True, choices=_SuiteNames(), metavar="SUITE",
                   help="which sweep to run: %(choices)s")
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
    p.add_argument("k", help="the index, in ASCII digits")
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
