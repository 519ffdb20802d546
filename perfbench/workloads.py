"""The three workloads: seeded inputs, the ops run on them, and their checks.

Every op is a CLI argument vector over files written here. Its check takes
the parsed output and returns a list of errors; it runs after the timed loop.
Each workload's op list is drawn from the seed with its kinds mixed evenly
along it, and is longer than one run gets through at the seed commit: the
ops a run measures are distinct inputs from one distribution, so its
medians do not hang on a few of them.

- tiny-verify: the stability criterion-4 recipe (verify-external calls on
  bifiltrations of at most 9 simplices). Per-call and per-line overhead
  dominates, and simplex orders repeat heavily across lines.
- rips-matchdist: function-Rips bifiltrations (129 simplices) against
  perturbed copies at degrees 0 and 1, on a 128-line grid. Restriction,
  ordering and reduction do the work; orders repeat much less.
- bottleneck-large: barcode pairs of 100 intervals per side sent to the
  bottleneck command; the matching algorithm's scaling dominates. Two
  known-defect probes ride along outside the timed loop: an 800-interval
  pair (recursion depth) and a pair whose essential counts differ (the
  output is not strict JSON).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from persline import parse_bifiltration, perturb_grades, shift_pair
import gen
import reference

# The criterion-4 grid (1024 lines) for tiny-verify. For rips-matchdist a
# 16x8 op takes 2 to 10 s, too few ops per run for a steady median on a
# shared machine; 8x4 (128 lines) keeps the per-line work and fits about
# 100 ops in a run.
GRID = "16x8"
RIPS_GRID = "8x4"
# The criterion-4 recipe with each complex used once: 150 shift pairs (the
# four epsilons in turn) and 150 perturbation pairs. An op takes about
# 0.14 s at the seed commit, so a run measures about 200 distinct complexes.
TINY_SHIFT, TINY_PERTURB = 150, 150
# One size only: with two size bands a percentile lands in a band of a few
# inputs, and moves with them. 9 points give 129 simplices and about 0.25 s
# per op, so a run holds the 100 ops a 90th percentile needs.
RIPS_POINTS, RIPS_PAIRS = 9, 200
RIPS_EPSILON = 0.05
# Time at one size varies about 3x between pairs, so a run needs many: 100
# intervals per side take about 0.09 s per op, about 300 ops per run.
BARCODE_SIZE, BARCODE_PAIRS = 100, 450
PROBE_RECURSION_SIZE = 800


@dataclass
class Op:
    argv: list[str]
    check: Callable[[object], list[str]]


@dataclass
class Workload:
    ops: list[Op]
    probes: list[Op]


def tiny_verify(rng: np.random.Generator, workdir: Path) -> Workload:
    ops = []
    for k, (M, construction, eps, seed) in enumerate(
            gen.criterion4_set(rng, TINY_SHIFT, TINY_PERTURB)):
        path = workdir / f"tiny-{k}.bif"
        gen.write_complex(path, M)
        argv = ["verify-external", "--input", str(path), "--construction", construction,
                "--epsilon", repr(eps), "--grid", GRID, "--degree", "0"]
        if seed is not None:
            argv += ["--seed", str(seed)]

        def check(payload, path=path, construction=construction, eps=eps, seed=seed):
            M = parse_bifiltration(path.read_text(encoding="utf-8"))
            pair = shift_pair(M, eps) if construction == "shift" else perturb_grades(M, eps, seed)
            return reference.check_verify_external(payload, pair, 0)

        ops.append(Op(argv, check))
    return Workload([ops[i] for i in rng.permutation(len(ops))], [])


def rips_matchdist(rng: np.random.Generator, workdir: Path) -> Workload:
    ops = []
    for k in range(RIPS_PAIRS):
        pair = gen.rips_pair(rng, RIPS_POINTS, RIPS_EPSILON)
        m_path, n_path = workdir / f"rips-{k}-M.bif", workdir / f"rips-{k}-N.bif"
        gen.write_complex(m_path, pair.M)
        gen.write_complex(n_path, pair.N)
        degree = k % 2
        argv = ["matchdist", "--input", str(m_path), str(n_path), "--grid", RIPS_GRID,
                "--degree", str(degree)]

        def check(payload, pair=pair, degree=degree):
            return reference.check_matchdist(payload, pair.M, pair.N, pair.epsilon, degree)

        ops.append(Op(argv, check))
    return Workload(ops, [])


def _barcode_op(workdir: Path, name: str, A, B) -> Op:
    a_path, b_path = workdir / f"{name}-A.json", workdir / f"{name}-B.json"
    gen.write_barcode(a_path, A)
    gen.write_barcode(b_path, B)
    return Op(["bottleneck", "--input", str(a_path), str(b_path)],
              lambda payload: reference.check_bottleneck(payload, A, B))


def bottleneck_large(rng: np.random.Generator, workdir: Path) -> Workload:
    ops = []
    for k in range(BARCODE_PAIRS):
        pair = gen.barcode_pair(rng, BARCODE_SIZE, essential=int(rng.integers(1, 4)))
        ops.append(_barcode_op(workdir, f"bars-{k}", *pair))
    probes = [
        _barcode_op(workdir, "probe-deep", *gen.barcode_pair(rng, PROBE_RECURSION_SIZE, 2)),
        _barcode_op(workdir, "probe-essential", *gen.barcode_pair(rng, 100, 2, 1)),
    ]
    return Workload(ops, probes)


WORKLOADS = {
    "tiny-verify": tiny_verify,
    "rips-matchdist": rips_matchdist,
    "bottleneck-large": bottleneck_large,
}
