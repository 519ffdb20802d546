"""Command-line front end.

Exit codes: 0 success, 1 verification failure (a stability report with
globalPass false), 2 input or usage error, 3 internal error (an unexpected
exception, reported in one line on stderr). Output is byte-stable for fixed
inputs, flags, and seed; JSON output is strict, with infinite distances
written as null. A degree above a complex's dimension has no classes (an
empty barcode, distance 0); a negative degree is a usage error. The default
grid comes from the PERSLINE_GRID environment variable
("<directions>x<offsets>", default 16x8).
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .bottleneck import bottleneck_distance
from .complexes import Line, ParseError, ValidationError, parse_bifiltration
from .homology import (
    RankQuery,
    barcode_from_json,
    barcode_to_json,
    line_barcodes,
    rank_invariant,
    strict_dumps,
)
from .matching import (
    LineGrid,
    match_result_to_csv,
    match_result_to_json,
    matching_distance_lb,
)
from .stability import (
    perturb_grades,
    report_to_json,
    shift_pair,
    verify_internal_stability,
    verify_rank_stability,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class CliError(Exception):
    """Input or usage error mapped to exit code 2."""


def _parse_vector(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise CliError(f"bad vector {text!r}: expected comma-separated reals") from None


def _parse_line(text: str) -> Line:
    if ":" not in text:
        raise CliError(f"bad line {text!r}: expected 'm1,...,mn:b1,...,bn'")
    m_text, _, b_text = text.partition(":")
    return Line(_parse_vector(m_text), _parse_vector(b_text))


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise CliError(f"bad grid {text!r}: expected '<directions>x<offsets>'")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise CliError(f"bad grid {text!r}: expected integers") from None


def _default_grid() -> str:
    return os.environ.get("PERSLINE_GRID", "16x8")


def _load_complex(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from None
    try:
        return parse_bifiltration(text)
    except (ParseError, ValidationError) as exc:
        raise CliError(f"{path}: {exc}") from None


def _emit(text: str, output: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"{output}: {exc.strerror or exc}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="persline",
        description="Multiparameter persistence: barcodes, bottleneck/matching distances, stability checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("barcode", help="barcode of a complex restricted to a line")
    p.add_argument("--input", required=True)
    p.add_argument("--line", required=True, help="m1,...,mn:b1,...,bn (canonicalized)")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--output")

    p = sub.add_parser("bottleneck", help="bottleneck distance between two barcode JSON files")
    p.add_argument("--input", nargs=2, required=True, metavar=("A", "B"))
    p.add_argument("--output")

    p = sub.add_parser("rank", help="rank invariant of the transition map H(K_u) -> H(K_v)")
    p.add_argument("--input", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--output")

    p = sub.add_parser("matchdist", help="sampled matching-distance lower bound")
    p.add_argument("--input", nargs=2, required=True, metavar=("M", "N"))
    p.add_argument("--grid", default=None)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--output")

    p = sub.add_parser("verify-external", help="check the weighted per-line stability bound")
    p.add_argument("--input", required=True)
    p.add_argument("--construction", choices=["shift", "perturb"], required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--seed", type=int, default=None, help="required for --construction perturb")
    p.add_argument("--grid", default=None)
    p.add_argument("--degree", type=int, default=0)
    p.add_argument("--output")

    p = sub.add_parser("verify-internal", help="check the eta bound between two line restrictions")
    p.add_argument("--input", required=True)
    p.add_argument("--line", required=True)
    p.add_argument("--line2", required=True)
    p.add_argument("--degree", type=int, default=0)
    p.add_argument("--output")

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "barcode":
            M = _load_complex(args.input)
            L = _parse_line(args.line)
            barcode = line_barcodes(M, [L], args.degree)[0]
            _emit(barcode_to_json(barcode), args.output)
            return EXIT_OK

        if args.command == "bottleneck":
            barcodes = []
            for path in args.input:
                try:
                    with open(path, encoding="utf-8") as fh:
                        barcodes.append(barcode_from_json(fh.read()))
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    raise CliError(f"{path}: {exc}") from None
            d = bottleneck_distance(*barcodes)
            _emit(strict_dumps({"distance": d}), args.output)
            return EXIT_OK

        if args.command == "rank":
            M = _load_complex(args.input)
            q = RankQuery(_parse_vector(args.u), _parse_vector(args.v), args.degree)
            _emit(strict_dumps(rank_invariant(M, q)), args.output)
            return EXIT_OK

        if args.command == "matchdist":
            M = _load_complex(args.input[0])
            N = _load_complex(args.input[1])
            d, o = _parse_grid(args.grid or _default_grid())
            result = matching_distance_lb(M, N, LineGrid(d, o), args.degree)
            text = match_result_to_csv(result) if args.format == "csv" else match_result_to_json(result)
            _emit(text, args.output)
            return EXIT_OK

        if args.command == "verify-external":
            M = _load_complex(args.input)
            if not 0 <= args.epsilon < math.inf:
                raise CliError(f"--epsilon must be a finite number >= 0, got {args.epsilon}")
            if args.construction == "shift":
                pair = shift_pair(M, args.epsilon)
            else:
                if args.seed is None:
                    raise CliError("--seed is required for --construction perturb")
                pair = perturb_grades(M, args.epsilon, args.seed)
            d, o = _parse_grid(args.grid or _default_grid())
            report = verify_rank_stability(pair, LineGrid(d, o), args.degree)
            _emit(report_to_json(report), args.output)
            return EXIT_OK if report.global_pass else EXIT_VERIFY_FAIL

        if args.command == "verify-internal":
            M = _load_complex(args.input)
            L = _parse_line(args.line)
            Lp = _parse_line(args.line2)
            report = verify_internal_stability(M, L, Lp, args.degree)
            _emit(report_to_json(report), args.output)
            return EXIT_OK if report.global_pass else EXIT_VERIFY_FAIL

        raise CliError(f"unknown command {args.command!r}")
    except (CliError, ValueError) as exc:  # ParseError and the other input errors are ValueErrors
        print(f"persline: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # the CLI boundary: anything else is a defect, not a verdict
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"persline: internal error: {message}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
