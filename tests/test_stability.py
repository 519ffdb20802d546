import json
import math

import numpy as np
import pytest

from persline import (
    InterleavedPair,
    LineGrid,
    bottleneck_distance,
    canonicalize_line,
    compute_barcode,
    eta_bound,
    parse_bifiltration,
    perturb_grades,
    report_to_json,
    restrict,
    shift_pair,
    verify_internal_stability,
    verify_rank_stability,
)
from generators import random_bifiltered_complex, random_canonical_line

TWO_VERTEX_EDGE = parse_bifiltration("bifiltration 2\n0 0 ; 0 0\n0 1 ; 0 0\n1 0 1 ; 1 1\n")
DIAGONAL = canonicalize_line((1, 1), (0, 0))


class TestPerturbGrades:
    def test_zero_epsilon_is_identity(self):
        pair = perturb_grades(TWO_VERTEX_EDGE, 0.0, seed=1)
        assert pair.N == pair.M
        assert pair.epsilon == 0

    def test_certified_epsilon_within_request(self):
        rng = np.random.default_rng(127)
        for seed in range(20):
            M = random_bifiltered_complex(rng)
            eps = float(rng.uniform(0, 0.5))
            pair = perturb_grades(M, eps, seed=seed)
            assert pair.epsilon <= eps + 1e-12

    def test_output_monotone_and_close(self):
        pair = perturb_grades(TWO_VERTEX_EDGE, 0.1, seed=42)
        grades_m = dict(pair.M.simplices)
        grades_n = dict(pair.N.simplices)  # construction validates monotonicity
        for s, g in grades_m.items():
            assert max(abs(a - b) for a, b in zip(g, grades_n[s])) <= 0.1 + 1e-12

    def test_deterministic_in_seed(self):
        p1 = perturb_grades(TWO_VERTEX_EDGE, 0.2, seed=7)
        p2 = perturb_grades(TWO_VERTEX_EDGE, 0.2, seed=7)
        assert p1.N == p2.N and p1.epsilon == p2.epsilon


class TestVerifyRankStability:
    def test_zero_epsilon_all_zero(self):
        pair = shift_pair(TWO_VERTEX_EDGE, 0.0)
        report = verify_rank_stability(pair, LineGrid(3, 3), 0)
        assert report.global_pass
        assert all(lhs == 0 for _, lhs, _, _ in report.entries)

    def test_diagonal_shift_passes(self):
        rng = np.random.default_rng(131)
        for eps in (0.1, 0.5, 1.0):
            M = random_bifiltered_complex(rng)
            report = verify_rank_stability(shift_pair(M, eps), LineGrid(4, 4), 0)
            assert report.global_pass
            assert report.worst_margin >= -1e-9

    def test_perturbation_passes(self):
        rng = np.random.default_rng(137)
        for seed in range(10):
            M = random_bifiltered_complex(rng, max_simplices=10)
            pair = perturb_grades(M, 0.1, seed=seed)
            report = verify_rank_stability(pair, LineGrid(4, 4), 0)
            assert report.global_pass
            assert report.worst_margin >= -1e-9

    def test_unweighted_corollary(self):
        # d_B of the restrictions stays below epsilon / m_star on every line
        rng = np.random.default_rng(139)
        M = random_bifiltered_complex(rng)
        pair = shift_pair(M, 0.3)
        report = verify_rank_stability(pair, LineGrid(4, 4), 0)
        for L, lhs, _, _ in report.entries:
            d_b = lhs / L.m_star
            assert d_b <= pair.epsilon / L.m_star + 1e-9


class TestStabilizationGrade:
    def test_single_vertex(self):
        M = parse_bifiltration("bifiltration 2\n0 0 ; 0 0")
        assert M.bounding_box()[1] == (0.0, 0.0)

    def test_componentwise_max(self):
        M = parse_bifiltration("bifiltration 2\n0 0 ; 0 0\n0 1 ; 0 0\n1 0 1 ; 1 2\n")
        assert M.bounding_box()[1] == (1.0, 2.0)

    def test_incomparable_grades(self):
        M = parse_bifiltration("bifiltration 2\n0 0 ; 3 0\n0 1 ; 0 3\n")
        assert M.bounding_box()[1] == (3.0, 3.0)


class TestEtaBound:
    def test_same_line_vanishes(self):
        bound = eta_bound(DIAGONAL, DIAGONAL, (1.0, 1.0))
        assert bound.eta == 0

    def test_offset_only_difference(self):
        Lp = canonicalize_line((1, 1), (0.1, -0.1))
        bound = eta_bound(DIAGONAL, Lp, (1.0, 1.0))
        assert bound.C == pytest.approx(1.0, abs=1e-12)
        assert bound.B == pytest.approx(0.1, abs=1e-12)
        assert bound.A == pytest.approx(1.1, abs=1e-12)
        assert bound.K == pytest.approx(1.3, abs=1e-12)
        assert bound.eta == pytest.approx(0.1, abs=1e-12)

    def test_direction_only_difference(self):
        Lp = canonicalize_line((1, 0.5), (0, 0))
        bound = eta_bound(DIAGONAL, Lp, (1.0, 1.0))
        assert bound.C == pytest.approx(1.0, abs=1e-12)
        assert bound.B == pytest.approx(0.0, abs=1e-12)
        assert bound.A == pytest.approx(2.0, abs=1e-12)
        assert bound.K == pytest.approx(2.0, abs=1e-12)
        assert bound.eta == pytest.approx(2.0, abs=1e-12)

    def test_monotone_in_stabilization_excess(self):
        rng = np.random.default_rng(149)
        for _ in range(30):
            L = random_canonical_line(rng)
            Lp = random_canonical_line(rng)
            c = tuple(rng.uniform(0, 2, size=2))
            bigger = tuple(ci + abs(ci) + rng.uniform(0, 1) for ci in c)
            assert eta_bound(L, Lp, bigger).A >= eta_bound(L, Lp, c).A - 1e-12


class TestVerifyInternalStability:
    def test_same_line_trivial_pass(self):
        report = verify_internal_stability(TWO_VERTEX_EDGE, DIAGONAL, DIAGONAL, 0)
        assert report.global_pass
        assert report.entries[0][1] == 0

    def test_worked_example(self):
        Lp = canonicalize_line((1, 0.5), (0, 0))
        report = verify_internal_stability(TWO_VERTEX_EDGE, DIAGONAL, Lp, 0)
        assert report.global_pass

    def test_randomized_pairs_pass(self):
        rng = np.random.default_rng(151)
        for _ in range(25):
            M = random_bifiltered_complex(rng)
            L = random_canonical_line(rng)
            Lp = random_canonical_line(rng)
            report = verify_internal_stability(M, L, Lp, 0)
            assert report.global_pass

    def test_restrictions_never_diverge(self):
        rng = np.random.default_rng(157)
        for _ in range(20):
            M = random_bifiltered_complex(rng)
            L, Lp = random_canonical_line(rng), random_canonical_line(rng)
            report = verify_internal_stability(M, L, Lp, 0)
            assert math.isfinite(report.entries[0][1])

    def test_triangle_through_intermediate_line(self):
        rng = np.random.default_rng(163)
        for _ in range(20):
            M = random_bifiltered_complex(rng)
            L, Lm, Lr = (random_canonical_line(rng) for _ in range(3))
            c = M.bounding_box()[1]
            d = bottleneck_distance(
                compute_barcode(restrict(M, L), 0),
                compute_barcode(restrict(M, Lr), 0),
            )
            assert d <= eta_bound(L, Lm, c).eta + eta_bound(Lm, Lr, c).eta + 1e-9


class TestReportJson:
    def test_external_report_shape(self):
        report = verify_rank_stability(shift_pair(TWO_VERTEX_EDGE, 0.25), LineGrid(2, 2), 0)
        payload = json.loads(report_to_json(report))
        assert payload["construction"] == "diagonal-shift"
        assert payload["epsilon"] == 0.25
        assert payload["globalPass"] is True
        assert set(payload["entries"][0]) == {"line", "lhs", "rhs", "pass"}
        assert payload["worstMargin"] == min(
            e["rhs"] - e["lhs"] for e in payload["entries"]
        )

    def test_infinite_lhs_and_margin_print_null(self):
        # essential counts differ on every line, so every lhs is +inf and the margin -inf
        two_vertices = parse_bifiltration("bifiltration 2\n0 0 ; 0 0\n0 1 ; 0 0\n")
        one_vertex = parse_bifiltration("bifiltration 2\n0 0 ; 0 0\n")
        pair = InterleavedPair(two_vertices, one_vertex, 0.5, "diagonal-shift")
        report = verify_rank_stability(pair, LineGrid(2, 2), 0)
        assert report.worst_margin == -math.inf
        payload = json.loads(report_to_json(report), parse_constant=self._reject)
        assert [e["lhs"] for e in payload["entries"]] == [None] * len(report.entries)
        assert payload["worstMargin"] is None
        assert payload["globalPass"] is False

    @staticmethod
    def _reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    def test_internal_report_shape(self):
        Lp = canonicalize_line((1, 0.5), (0, 0))
        report = verify_internal_stability(TWO_VERTEX_EDGE, DIAGONAL, Lp, 0)
        payload = json.loads(report_to_json(report))
        assert "eta" in payload
        assert len(payload["entries"]) == 1
