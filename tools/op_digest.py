"""One sha256 over what every seed-101 benchmark op prints.

Usage (from anywhere; the checkout is found from this file's place):

    python3 tools/op_digest.py [--expect HEX]

The inputs of the three benchmark workloads (tiny-verify, rips-matchdist,
bottleneck-large, known-defect probes included) are written for seed 101 by
``perfbench/workloads.py`` into a temporary directory. Their ops run only
``verify-external``, ``matchdist`` and ``bottleneck``, so fixed ops of
``barcode``, ``rank``, ``verify-internal``, ``matchdist --format csv`` and
``matchdist --grid 1x1`` on the function-Rips files of rips-matchdist follow
them. The workloads sample 2-parameter lines on 2-dimensional complexes only,
so this tool also writes into the same directory two 3-parameter complexes,
for a ``matchdist``, and two 3-dimensional clique complexes and an
equal-grade hollow tetrahedron, for ops at degrees 2 and 1 whose reduction
leaves relations out. Each op runs as an
in-process ``persline.cli.run(argv)`` call from inside that directory, with
relative paths, so the digest does not depend on where the directory is.
The digest covers, per op and in order: the argument vector, the exit
code, stdout and stderr. Two checkouts whose CLI behaves the same on these
inputs print the same digest. With ``--expect`` a different digest exits 1.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# persline from this checkout; tests/ and perfbench/ for the workload generators
SYS_PATH = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
SEED = 101
# run after the workloads' ops, on files rips-matchdist wrote (129 simplices, grades in [0, 1.5])
FIXED_OPS = [
    ["barcode", "--input", "rips-0-M.bif", "--line", "1,1:0,0", "--degree", "0"],
    ["barcode", "--input", "rips-1-N.bif", "--line", "1,0.5:0.1,-0.2", "--degree", "1"],
    ["barcode", "--input", "rips-2-M.bif", "--line", "0.3,1:0,0", "--degree", "3"],
    ["rank", "--input", "rips-0-M.bif", "--u", "0.3,0.3", "--v", "0.6,0.6", "--degree", "0"],
    ["rank", "--input", "rips-1-N.bif", "--u", "0.4,0.4", "--v", "1,0.42", "--degree", "1"],
    ["verify-internal", "--input", "rips-0-M.bif", "--line", "1,1:0,0",
     "--line2", "1,0.8:0.05,-0.05", "--degree", "0"],
    ["verify-internal", "--input", "rips-1-N.bif", "--line", "0.7,1:0,0",
     "--line2", "1,1:0,0", "--degree", "1"],
    ["matchdist", "--input", "rips-0-M.bif", "rips-0-N.bif", "--grid", "4x2", "--degree", "0",
     "--format", "csv"],
    ["matchdist", "--input", "rips-1-M.bif", "rips-1-N.bif", "--grid", "4x2", "--degree", "1",
     "--format", "csv"],
    ["matchdist", "--input", "rips-2-M.bif", "rips-2-N.bif", "--grid", "1x1", "--degree", "0"],
    ["matchdist", "--input", "three-M.bif", "three-N.bif", "--grid", "3x2", "--degree", "0"],
    # degree 2 drops tetrahedra, which the workloads' 2-dimensional complexes never have
    ["barcode", "--input", "clique-M.bif", "--line", "1,0.5:0,0", "--degree", "2"],
    ["matchdist", "--input", "clique-M.bif", "clique-N.bif", "--grid", "4x2", "--degree", "2"],
    # four equal-grade triangles: any one is the sum of the others, so only one may go
    ["barcode", "--input", "hollow.bif", "--line", "1,1:0,0", "--degree", "1"],
    ["rank", "--input", "hollow.bif", "--u", "0,0", "--v", "1,1", "--degree", "1"],
]


def clique_text(values: list[int], points: list[tuple[int, int]]) -> str:
    """Every simplex of dimension <= 3 on ``points``, graded (its largest vertex value, its
    largest squared edge length): integers, so grades tie."""
    rows = ["bifiltration 2"]
    for k in (1, 2, 3, 4):
        for s in combinations(range(len(points)), k):
            length = max(((points[a][0] - points[b][0]) ** 2 + (points[a][1] - points[b][1]) ** 2
                          for a, b in combinations(s, 2)), default=0)
            rows.append(f"{k - 1} {' '.join(map(str, s))} ; {max(values[v] for v in s)} {length}")
    return "\n".join(rows) + "\n"


CLIQUE_POINTS = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (3, 1)]

# a filled triangle, and a perturbed copy with one more vertex and edge, graded in R^3
FIXED_FILES = {
    "three-M.bif": "bifiltration 3\n0 0 ; 0 0 0\n0 1 ; 1 0 0.5\n0 2 ; 0 1 0.25\n"
                   "1 0 1 ; 1 0.5 0.5\n1 0 2 ; 0.5 1 0.25\n1 1 2 ; 1 1 0.75\n2 0 1 2 ; 1 1 1\n",
    "three-N.bif": "bifiltration 3\n0 0 ; 0.1 0 0\n0 1 ; 1 0.2 0.5\n0 2 ; 0 1 0.5\n0 3 ; 2 2 0\n"
                   "1 0 1 ; 1.2 0.5 0.5\n1 0 2 ; 0.5 1 0.5\n1 1 2 ; 1 1 0.75\n1 2 3 ; 2 2 0.5\n"
                   "2 0 1 2 ; 1.5 1 1\n",
    "clique-M.bif": clique_text([0, 1, 0, 2, 1, 0], CLIQUE_POINTS),
    "clique-N.bif": clique_text([1, 1, 0, 2, 0, 1], CLIQUE_POINTS),
    "hollow.bif": clique_text([0] * 4, [(0, 0)] * 4).replace("3 0 1 2 3 ; 0 0\n", ""),
}


def outcome(run, argv: list[str]) -> tuple:
    """(exit code, stdout, stderr) of one op; an escaping exception is named in place of the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # recorded, not raised: an escaping exception is behaviour too
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def digest() -> tuple[str, int]:
    """The sha256 hex digest over every op of every workload, and the op count."""
    sys.path[:0] = SYS_PATH
    import numpy as np
    from persline.cli import run
    from workloads import WORKLOADS

    h, ops = hashlib.sha256(), []
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, build in WORKLOADS.items():
                workload = build(np.random.default_rng(SEED), Path("."))
                ops += [(name, op.argv) for op in workload.ops + workload.probes]
            for file_name, text in FIXED_FILES.items():
                Path(file_name).write_text(text, encoding="utf-8")
            ops += [("fixed", argv) for argv in FIXED_OPS]
            for name, argv in ops:
                h.update(json.dumps([name, argv, *outcome(run, argv)]).encode() + b"\n")
        finally:
            os.chdir(start)
    return h.hexdigest(), len(ops)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--expect", help="exit 1 unless the digest equals this hex string")
    args = parser.parse_args()
    value, count = digest()
    print(f"{value}  {count} ops, seed {SEED}")
    if args.expect is not None and args.expect.lower() != value:
        print(f"op_digest: expected {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
