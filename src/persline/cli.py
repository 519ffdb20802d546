"""Command-line front end.

Exit codes: 0 success, 1 verification failure (a stability report with
globalPass false), 2 input or usage error, 3 internal error (an unexpected
exception, reported in one line on stderr). Output is byte-stable for fixed
inputs, flags, and seed; JSON output is strict, with infinite distances
written as null. A degree above a complex's dimension has no classes (an
empty barcode, distance 0); a negative degree is a usage error.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys

from .bottleneck import bottleneck_distance
from .complexes import Line, parse_bifiltration
from .homology import (
    RankQuery,
    _barcode_rows,
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


def _parse_vector(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"bad vector {text!r}: expected comma-separated reals") from None


def _attach_grades(argv: list[str]) -> list[str]:
    """argv with ``--u X`` and ``--v X`` written ``--u=X`` and ``--v=X`` when X starts with one '-'
    (X is not -h): argparse reads such a token, unless it is one plain number, as an option. They
    are the only vector flags whose first coordinate can be negative; ``--line``'s is a direction."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--u", "--v") and arg[:1] == "-" and arg[:2] != "--" and arg != "-h":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _parse_line(text: str) -> Line:
    if ":" not in text:
        raise ValueError(f"bad line {text!r}: expected 'm1,...,mn:b1,...,bn'")
    m_text, _, b_text = text.partition(":")
    return Line(_parse_vector(m_text), _parse_vector(b_text))


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"bad grid {text!r}: expected '<directions>x<offsets>'")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"bad grid {text!r}: expected integers") from None


def _load(path: str, parse):
    """``parse`` of the text of the UTF-8 file at ``path``; a ValueError naming the file if it
    cannot be read, decoded or parsed."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # UnicodeDecodeError, ParseError, ValidationError and a bad barcode
        raise ValueError(f"{path}: {exc}") from None


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
        raise ValueError(f"{output}: {exc.strerror or exc}") from None


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

    p = sub.add_parser("bottleneck", help="bottleneck distance between two barcode JSON files")
    p.add_argument("--input", nargs=2, required=True, metavar=("A", "B"))

    p = sub.add_parser("rank", help="rank invariant of the transition map H(K_u) -> H(K_v)")
    p.add_argument("--input", required=True)
    p.add_argument("--u", required=True, help="u1,...,un (u1 may be negative)")
    p.add_argument("--v", required=True, help="v1,...,vn (v1 may be negative)")
    p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("matchdist", help="sampled matching-distance lower bound")
    p.add_argument("--input", nargs=2, required=True, metavar=("M", "N"))
    p.add_argument("--grid", default="16x8", help="<directions>x<offsets>")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("verify-external", help="check the weighted per-line stability bound")
    p.add_argument("--input", required=True)
    p.add_argument("--construction", choices=["shift", "perturb"], required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--seed", type=int, default=None, help="required for --construction perturb")
    p.add_argument("--grid", default="16x8", help="<directions>x<offsets>")
    p.add_argument("--degree", type=int, default=0)

    p = sub.add_parser("verify-internal", help="check the eta bound between two line restrictions")
    p.add_argument("--input", required=True)
    p.add_argument("--line", required=True)
    p.add_argument("--line2", required=True)
    p.add_argument("--degree", type=int, default=0)

    for p in sub.choices.values():  # last, so it ends every usage line
        p.add_argument("--output")
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_grades(argv))
    code = EXIT_OK
    try:
        if args.command == "barcode":
            M = _load(args.input, parse_bifiltration)
            L = _parse_line(args.line)
            text = barcode_to_json(line_barcodes(M, [L], args.degree)[0])
        elif args.command == "bottleneck":
            # (birth, death, degree) per interval: no Interval is built
            A, B = (_load(path, _barcode_rows) for path in args.input)
            text = f'{{"distance": {strict_dumps(bottleneck_distance(A, B))}}}'
        elif args.command == "rank":
            M = _load(args.input, parse_bifiltration)
            q = RankQuery(_parse_vector(args.u), _parse_vector(args.v), args.degree)
            text = strict_dumps(rank_invariant(M, q))
        elif args.command == "matchdist":
            M, N = (_load(path, parse_bifiltration) for path in args.input)
            d, o = _parse_grid(args.grid)
            result = matching_distance_lb(M, N, LineGrid(d, o), args.degree)
            text = match_result_to_csv(result) if args.format == "csv" else match_result_to_json(result)
        else:  # verify-external or verify-internal: argparse admits no other command
            M = _load(args.input, parse_bifiltration)
            if args.command == "verify-external":
                if not 0 <= args.epsilon < math.inf:
                    raise ValueError(f"--epsilon must be a finite number >= 0, got {args.epsilon}")
                if args.construction == "shift":
                    pair = shift_pair(M, args.epsilon)
                else:
                    if args.seed is None:
                        raise ValueError("--seed is required for --construction perturb")
                    if args.seed < 0:
                        raise ValueError(f"--seed must be an integer >= 0, got {args.seed}")
                    pair = perturb_grades(M, args.epsilon, args.seed)
                d, o = _parse_grid(args.grid)
                report = verify_rank_stability(pair, LineGrid(d, o), args.degree)
            else:
                L, Lp = _parse_line(args.line), _parse_line(args.line2)
                report = verify_internal_stability(M, L, Lp, args.degree)
            text = report_to_json(report)
            code = EXIT_OK if report.global_pass else EXIT_VERIFY_FAIL
        _emit(text, args.output)
        return code
    except ValueError as exc:  # ParseError and the other input errors are ValueErrors
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
