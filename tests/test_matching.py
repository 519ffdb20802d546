import json

import numpy as np
import pytest

from persline import (
    LineGrid,
    canonicalize_line,
    default_offset_box,
    diagonal_shift,
    match_result_to_csv,
    match_result_to_json,
    line_distances,
    matching_distance_lb,
    parse_bifiltration,
    sample_lines,
)
from generators import random_bifiltered_complex

ONE_VERTEX_ORIGIN = parse_bifiltration("bifiltration 2\n0 0 ; 0 0")
ONE_VERTEX_ONES = parse_bifiltration("bifiltration 2\n0 0 ; 1 1")
UNIT_BOX = ((0.0, 0.0), (1.0, 1.0))


class TestSampleLines:
    def test_single_sample_is_diagonal(self):
        lines = sample_lines(LineGrid(1, 1), ((0.0, 0.0), (0.0, 0.0)))
        assert len(lines) == 1
        assert lines[0].direction == (1.0, 1.0)
        assert lines[0].offset == (0.0, 0.0)

    def test_directions_canonical_and_admissible(self):
        lines = sample_lines(LineGrid(3, 2), UNIT_BOX)
        for L in lines:
            assert max(L.direction) == pytest.approx(1.0, abs=1e-12)
            assert min(L.direction) > 0
            assert sum(L.offset) == pytest.approx(0.0, abs=1e-12)

    def test_no_duplicates(self):
        lines = sample_lines(LineGrid(4, 4), UNIT_BOX)
        keys = {(L.direction, L.offset) for L in lines}
        assert len(keys) == len(lines)

    def test_degenerate_offset_box_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            sample_lines(LineGrid(2, 2), ((1.0, 0.0), (0.0, 1.0)))

    def test_extra_lines_appended(self):
        extra = canonicalize_line((1, 0.25), (3, -3))
        lines = sample_lines(LineGrid(2, 2, extra_lines=(extra,)), UNIT_BOX)
        assert extra in lines

    def test_general_dimension_grid(self):
        box = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        lines = sample_lines(LineGrid(2, 2), box)
        for L in lines:
            assert L.dim == 3
            assert max(L.direction) == pytest.approx(1.0, abs=1e-12)
            assert min(L.direction) > 0


class TestPerLineDistance:
    def test_identical_complexes(self):
        L = canonicalize_line((1, 1), (0, 0))
        assert line_distances(ONE_VERTEX_ORIGIN, ONE_VERTEX_ORIGIN, [L], 0)[0] == 0

    def test_shifted_vertex_on_diagonal(self):
        L = canonicalize_line((1, 1), (0, 0))
        assert line_distances(ONE_VERTEX_ORIGIN, ONE_VERTEX_ONES, [L], 0)[0] == 1

    def test_shifted_vertex_on_weighted_line(self):
        # pushes are 0 and max(1, 1/0.5) = 2; weight m_star = 0.5
        L = canonicalize_line((1, 0.5), (0, 0))
        assert line_distances(ONE_VERTEX_ORIGIN, ONE_VERTEX_ONES, [L], 0)[0] == 1

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(89)
        L = canonicalize_line((1, 1), (0, 0))
        for _ in range(20):
            M, N, P = (random_bifiltered_complex(rng) for _ in range(3))
            mn = line_distances(M, N, [L], 0)[0]
            nm = line_distances(N, M, [L], 0)[0]
            assert mn == nm
            np_d = line_distances(N, P, [L], 0)[0]
            mp = line_distances(M, P, [L], 0)[0]
            assert mp <= mn + np_d + 1e-12

    def test_reparameterization_invariance(self):
        rng = np.random.default_rng(97)
        for _ in range(20):
            M = random_bifiltered_complex(rng)
            N = random_bifiltered_complex(rng)
            raw_m = tuple(rng.uniform(0.2, 1.0, size=2))
            raw_b = tuple(rng.uniform(-1.0, 1.0, size=2))
            L = canonicalize_line(raw_m, raw_b)
            scale = float(rng.uniform(0.5, 4.0))
            slide = float(rng.uniform(-2.0, 2.0))
            rescaled = canonicalize_line(
                tuple(scale * m for m in raw_m),
                tuple(b + slide * m for m, b in zip(raw_m, raw_b)),
            )
            d1 = line_distances(M, N, [L], 0)[0]
            d2 = line_distances(M, N, [rescaled], 0)[0]
            assert d1 == pytest.approx(d2, abs=1e-9)


class TestMatchingDistanceLB:
    def test_identical_complexes_zero(self):
        rng = np.random.default_rng(101)
        M = random_bifiltered_complex(rng)
        result = matching_distance_lb(M, M, LineGrid(3, 3), 0)
        assert result.value == 0

    def test_diagonal_shift_bounded_by_epsilon(self):
        rng = np.random.default_rng(103)
        for eps in (0.1, 0.5):
            M = random_bifiltered_complex(rng)
            N = diagonal_shift(M, eps)
            result = matching_distance_lb(M, N, LineGrid(4, 4), 0)
            assert result.value <= eps + 1e-9
            for _, d in result.per_line:
                assert d <= eps + 1e-9

    def test_extra_diagonal_line_witnesses_vertex_shift(self):
        diagonal = canonicalize_line((1, 1), (0, 0))
        grid = LineGrid(2, 2, extra_lines=(diagonal,))
        result = matching_distance_lb(ONE_VERTEX_ORIGIN, ONE_VERTEX_ONES, grid, 0)
        assert result.value >= 1 - 1e-12

    def test_grid_refinement_monotone(self):
        rng = np.random.default_rng(107)
        for _ in range(5):
            M = random_bifiltered_complex(rng)
            N = random_bifiltered_complex(rng)
            coarse = matching_distance_lb(M, N, LineGrid(2, 2), 0)
            refined_grid = LineGrid(4, 4, extra_lines=tuple(L for L, _ in coarse.per_line))
            refined = matching_distance_lb(M, N, refined_grid, 0)
            assert refined.value >= coarse.value - 1e-12

    def test_value_is_table_max(self):
        rng = np.random.default_rng(109)
        M = random_bifiltered_complex(rng)
        N = random_bifiltered_complex(rng)
        result = matching_distance_lb(M, N, LineGrid(3, 3), 0)
        assert result.value == max(d for _, d in result.per_line)

    def test_deterministic(self):
        rng = np.random.default_rng(113)
        M = random_bifiltered_complex(rng)
        N = random_bifiltered_complex(rng)
        r1 = matching_distance_lb(M, N, LineGrid(3, 3), 0)
        r2 = matching_distance_lb(M, N, LineGrid(3, 3), 0)
        assert match_result_to_json(r1) == match_result_to_json(r2)


class TestSerialization:
    def test_json_shape(self):
        result = matching_distance_lb(ONE_VERTEX_ORIGIN, ONE_VERTEX_ONES, LineGrid(2, 2), 0)
        payload = json.loads(match_result_to_json(result))
        assert set(payload) == {"value", "argmax", "table"}
        assert set(payload["argmax"]) == {"m", "b"}
        assert all(set(row) == {"m", "b", "mStar", "distance"} for row in payload["table"])
        assert payload["value"] == max(row["distance"] for row in payload["table"])

    def test_csv_header_and_rows(self):
        result = matching_distance_lb(ONE_VERTEX_ORIGIN, ONE_VERTEX_ONES, LineGrid(2, 2), 0)
        lines = match_result_to_csv(result).splitlines()
        assert lines[0] == "m,b,mStar,distance"
        assert len(lines) == len(result.per_line) + 1


def test_default_offset_box_pads_union():
    lo, hi = default_offset_box(ONE_VERTEX_ORIGIN, ONE_VERTEX_ONES)
    assert lo[0] < 0 < 1 < hi[0]
    assert lo[1] < 0 < 1 < hi[1]
