"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""
import math

import numpy as np
import pytest

from persline import (
    LineGrid,
    RankQuery,
    bottleneck_distance,
    canonicalize_line,
    compute_barcode,
    eta_bound,
    line_distances,
    matching_distance_lb,
    perturb_grades,
    rank_invariant,
    restrict,
    shift_pair,
    verify_internal_stability,
    verify_rank_stability,
)
from persline.cli import run
from generators import (
    random_barcode,
    random_bifiltered_complex,
    random_canonical_line,
    random_scalar_filtration,
)
from oracles import brute_force_bottleneck, induced_rank, scalar_rank

GRID_16x8 = LineGrid(16, 8)


def _report(name: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


@pytest.fixture(scope="module")
def stability_reports():
    """Criterion 4/5 shared runs: 100 shift pairs and 100 perturbation pairs."""
    rng = np.random.default_rng(2024)
    reports = []
    for i in range(25):
        M = random_bifiltered_complex(rng, max_vertices=4, max_simplices=9)
        for eps in (0.0, 0.1, 0.5, 1.0):
            pair = shift_pair(M, eps)
            reports.append((pair, verify_rank_stability(pair, GRID_16x8, 0)))
    for seed in range(100):
        M = random_bifiltered_complex(rng, max_vertices=4, max_simplices=9)
        pair = perturb_grades(M, float(rng.uniform(0.02, 0.5)), seed=seed)
        reports.append((pair, verify_rank_stability(pair, GRID_16x8, 0)))
    return reports


def test_criterion_1_barcode_oracle():
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(200):
        F = random_scalar_filtration(rng, max_simplices=8)
        values = sorted({v for _, v in F.simplices})
        for degree in (0, 1):
            if degree > F.max_dim():
                continue
            bars = compute_barcode(F, degree)
            for si, s in enumerate(values):
                for t in values[si:]:
                    count = sum(1 for iv in bars if iv.birth <= s and iv.death > t)
                    if count != scalar_rank(list(F.simplices), s, t, degree):
                        ok = False
    _report("criterion 1: barcode counts match brute-force F2 ranks on 200 filtrations", ok)


def test_criterion_2_bottleneck_oracle():
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(200):
        A, B = random_barcode(rng, 6), random_barcode(rng, 6)
        expected = brute_force_bottleneck(A, B)
        got = bottleneck_distance(A, B)
        if math.isinf(expected):
            ok = ok and math.isinf(got)
        else:
            ok = ok and abs(got - expected) <= 1e-12
    _report("criterion 2: bottleneck equals exhaustive matching on 200 barcode pairs", ok)


def test_criterion_3_rank_invariant_consistency():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(100):
        M = random_bifiltered_complex(rng)
        L = random_canonical_line(rng)
        s = float(rng.uniform(-0.5, 1.5))
        t = s + float(rng.uniform(0.05, 1.5))
        u, v = L.point_at(s), L.point_at(t)
        got = rank_invariant(M, RankQuery(u, v, 0))
        bars = compute_barcode(restrict(M, L), 0)
        line_count = sum(1 for iv in bars if iv.birth <= s and iv.death > t)
        sub_u = [sx for sx, g in M.simplices if all(a <= b for a, b in zip(g, u))]
        sub_v = [sx for sx, g in M.simplices if all(a <= b for a, b in zip(g, v))]
        ok = ok and got == line_count == induced_rank(sub_u, sub_v, 0)
    _report("criterion 3: rank invariant = line barcode count = brute-force image rank", ok)


def test_criterion_4_main_theorem(stability_reports):
    ok = all(report.global_pass and report.worst_margin >= -1e-9
             for _, report in stability_reports)
    _report("criterion 4: weighted per-line distance <= certified epsilon on 16x8 grids", ok)


def test_criterion_5_restriction_interleaving_corollary(stability_reports):
    ok = True
    for pair, report in stability_reports:
        for L, lhs, _, _ in report.entries:
            # lhs = m_star * d_B, so the unweighted bound is eps / m_star
            d_b = lhs / L.m_star
            if not d_b <= pair.epsilon / L.m_star + 1e-9:
                ok = False
    _report("criterion 5: unweighted d_B <= epsilon / m_star on every sampled line", ok)


def test_criterion_6_internal_stability():
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(100):
        M = random_bifiltered_complex(rng)
        for _ in range(50):
            L, Lp = random_canonical_line(rng), random_canonical_line(rng)
            report = verify_internal_stability(M, L, Lp, 0)
            ok = ok and report.global_pass

    diagonal = canonicalize_line((1, 1), (0, 0))
    b0 = eta_bound(diagonal, diagonal, (1.0, 1.0))
    ok = ok and abs(b0.eta) <= 1e-12
    b1 = eta_bound(diagonal, canonicalize_line((1, 1), (0.1, -0.1)), (1.0, 1.0))
    ok = ok and all(
        abs(got - want) <= 1e-12
        for got, want in ((b1.C, 1.0), (b1.B, 0.1), (b1.A, 1.1), (b1.K, 1.3), (b1.eta, 0.1))
    )
    b2 = eta_bound(diagonal, canonicalize_line((1, 0.5), (0, 0)), (1.0, 1.0))
    ok = ok and all(
        abs(got - want) <= 1e-12
        for got, want in ((b2.C, 1.0), (b2.B, 0.0), (b2.A, 2.0), (b2.K, 2.0), (b2.eta, 2.0))
    )
    _report("criterion 6: internal stability holds and worked eta examples reproduce", ok)


def test_criterion_7_metric_and_consistency(tmp_path, capsys):
    ok = True
    rng = np.random.default_rng(7)

    # bottleneck symmetry and triangle inequality
    for _ in range(50):
        A, B, C = (random_barcode(rng) for _ in range(3))
        ok = ok and bottleneck_distance(A, B) == bottleneck_distance(B, A)
        ab, bc, ac = (
            bottleneck_distance(A, B),
            bottleneck_distance(B, C),
            bottleneck_distance(A, C),
        )
        if math.isfinite(ab) and math.isfinite(bc):
            ok = ok and ac <= ab + bc + 1e-12

    # grid-refinement monotonicity
    for _ in range(5):
        M = random_bifiltered_complex(rng)
        N = random_bifiltered_complex(rng)
        coarse = matching_distance_lb(M, N, LineGrid(2, 2), 0)
        refined = matching_distance_lb(
            M, N, LineGrid(4, 4, extra_lines=tuple(L for L, _ in coarse.per_line)), 0
        )
        ok = ok and refined.value >= coarse.value - 1e-12

    # reparameterization invariance of per-line distances
    for _ in range(20):
        M = random_bifiltered_complex(rng)
        N = random_bifiltered_complex(rng)
        raw_m = tuple(rng.uniform(0.2, 1.0, size=2))
        raw_b = tuple(rng.uniform(-1.0, 1.0, size=2))
        L = canonicalize_line(raw_m, raw_b)
        scale, slide = float(rng.uniform(0.5, 4.0)), float(rng.uniform(-2.0, 2.0))
        L2 = canonicalize_line(
            tuple(scale * m for m in raw_m),
            tuple(b + slide * m for m, b in zip(raw_m, raw_b)),
        )
        d1, d2 = line_distances(M, N, [L, L2], 0)
        if math.isinf(d1) or math.isinf(d2):
            ok = ok and d1 == d2
        else:
            ok = ok and abs(d1 - d2) <= 1e-9

    # CLI byte-determinism over the fixture matrix
    fixture = tmp_path / "M.bif"
    fixture.write_text("bifiltration 2\n0 0 ; 0 0\n0 1 ; 0 0\n1 0 1 ; 1 1\n")
    other = tmp_path / "N.bif"
    other.write_text("bifiltration 2\n0 0 ; 1 1\n")
    invocations = [
        ["barcode", "--input", str(fixture), "--line", "1,1:0,0", "--degree", "0"],
        ["rank", "--input", str(fixture), "--u", "0,0", "--v", "2,2", "--degree", "0"],
        ["matchdist", "--input", str(fixture), str(other), "--grid", "4x3", "--degree", "0"],
        ["verify-external", "--input", str(fixture), "--construction", "shift",
         "--epsilon", "0.25", "--grid", "4x3", "--degree", "0"],
        ["verify-external", "--input", str(fixture), "--construction", "perturb",
         "--epsilon", "0.1", "--seed", "11", "--grid", "4x3", "--degree", "0"],
        ["verify-internal", "--input", str(fixture), "--line", "1,1:0,0",
         "--line2", "1,0.5:0,0", "--degree", "0"],
    ]
    for argv in invocations:
        code1 = run(argv)
        out1 = capsys.readouterr().out
        code2 = run(argv)
        out2 = capsys.readouterr().out
        ok = ok and code1 == code2 == 0 and out1 == out2

    with capsys.disabled():
        _report("criterion 7: metric axioms, refinement monotonicity, CLI determinism", ok)
