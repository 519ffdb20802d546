import json
import math
from itertools import product

import numpy as np
import pytest

import persline
from persline import (
    Line,
    LineGrid,
    canonicalize_line,
    default_offset_box,
    diagonal_shift,
    match_result_to_csv,
    match_result_to_json,
    line_distances,
    matching_distance_lb,
    parse_bifiltration,
    report_to_json,
    sample_lines,
    shift_pair,
    verify_rank_stability,
)
from persline.matching import MatchResult, _axis_samples, _grid, _round_keys
from generators import random_bifiltered_complex, repeating_floats
from oracles import match_csv, match_json, sampled_grid

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

    def test_grid_over_the_cap_raises_before_sampling(self, monkeypatch):
        def sampled(*args):
            raise AssertionError("a grid over the cap was sampled")

        monkeypatch.setattr(persline.matching, "_axis_samples", sampled)
        monkeypatch.setattr(persline.matching, "_sample_directions", sampled)
        with pytest.raises(ValueError, match=r"^grid 1x1000000000 in 2 parameters: its 1000000000000000000 "
                                             r"lines exceed the cap of 16777216$"):
            sample_lines(LineGrid(1, 10**9), UNIT_BOX)

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


def _hex(values):
    return tuple(float(x).hex() for x in values)


def _random_box(rng, n, kind):
    """A box with some sides of length 0 (lo == hi); kind 1 puts -0.0 and 0.0 at corners."""
    lo = rng.uniform(-3, 3, n).round(int(rng.integers(0, 4)))
    hi = lo + rng.uniform(0, 4, n).round(2) * (rng.random(n) < 0.6)
    if kind == 1:
        zeros = rng.random(n) < 0.7
        lo[zeros] = -0.0
        hi[zeros] = np.where(rng.random(n) < 0.5, -0.0, rng.uniform(0, 2, n))[zeros]
    return tuple(lo.tolist()), tuple(hi.tolist())


class TestArrayGrid:
    """The grid's arrays against a line-at-a-time reference, compared as float.hex."""

    @pytest.mark.parametrize("steps", [(1, 1), (3, 2)], ids=["1x1", "3x2"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_per_line_reference(self, n, steps):
        rng = np.random.default_rng(431 + 7 * n + steps[0])
        for trial in range(24):
            box = _random_box(rng, n, trial % 2)
            extra = ()
            if trial % 3:  # extra lines: grid lines, one nudged below the 9-decimal key, and a new one
                lines = sample_lines(LineGrid(*steps), box)
                again = [lines[int(k)] for k in rng.integers(len(lines), size=2)]
                nudged = canonicalize_line(again[0].direction, tuple(b + 1e-13 for b in again[0].offset))
                fresh = canonicalize_line(tuple(rng.uniform(0.2, 1, n)), tuple(rng.uniform(-1, 1, n)))
                extra = (*again, nudged, fresh)
            grid = LineGrid(*steps, extra_lines=extra)
            want = sampled_grid(*steps, *box, [(L.direction, L.offset) for L in extra])
            directions, offsets = _grid(grid, box)
            got = zip(directions.tolist(), offsets.tolist(), directions.min(axis=1).tolist())
            assert [(_hex(m), _hex(b), s.hex()) for m, b, s in got] == \
                [(_hex(m), _hex(b), s.hex()) for m, b, s in want]
            lines = [(_hex(L.direction), _hex(L.offset), L.m_star.hex()) for L in sample_lines(grid, box)]
            assert lines == [(_hex(m), _hex(b), s.hex()) for m, b, s in want]

    @pytest.mark.parametrize("offset_steps", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_raw_offsets_in_product_order(self, monkeypatch, n, offset_steps):
        # the raw offsets _grid puts in canonical form, bit for bit: every tuple of the
        # axis samples in itertools.product's order, once per raw direction
        seen, canonical_form = [], persline.matching._canonical_form

        def spy(raw_m, raw_b):
            seen.append(raw_b.copy())
            return canonical_form(raw_m, raw_b)

        monkeypatch.setattr(persline.matching, "_canonical_form", spy)
        rng = np.random.default_rng(449 + n)
        for trial in range(6):
            lo, hi = _random_box(rng, n, trial % 2)
            seen.clear()
            _grid(LineGrid(2, offset_steps), (lo, hi))
            raw = np.array(list(product(*(_axis_samples(a, b, offset_steps) for a, b in zip(lo, hi)))))
            (got,) = seen
            assert len(got) % len(raw) == 0
            assert got.tobytes() == np.tile(raw, (len(got) // len(raw), 1)).tobytes()

    def test_round_keys_are_pythons_round(self):
        # halfway between two 9-decimal values and the doubles next to it, where
        # v * 1e9 may round onto or off the tie; signed zeros; above 2**53 / 1e9
        rng = np.random.default_rng(433)
        ties = [(int(k) + 0.5) / 1e9 for k in rng.integers(-10**10, 10**10, 300)]
        values = [t for v in ties for t in (v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf))]
        values += [0.0, -0.0, -1e-12, 5e-10, 2.5e-9, 1e7 + 5e-10, 1e300]
        values += rng.uniform(-10, 10, 300).tolist()
        keys = _round_keys(np.array([values]))[0].tolist()
        assert _hex(keys) == _hex(round(v, 9) for v in values)


def test_grid_path_builds_no_line(monkeypatch):
    # matchdist and verify-external keep the grid as arrays from sampling to output
    rng = np.random.default_rng(439)
    M, N = random_bifiltered_complex(rng), random_bifiltered_complex(rng)
    grid = LineGrid(4, 3)

    def outputs():
        result = matching_distance_lb(M, N, grid, 0)
        report = verify_rank_stability(shift_pair(M, 0.25), grid, 0)
        return match_result_to_json(result), match_result_to_csv(result), report_to_json(report)

    want = outputs()

    def no_line(*args):
        raise AssertionError("a Line was built")

    monkeypatch.setattr(Line, "__post_init__", no_line)
    for module in (persline.matching, persline.stability, persline.homology):
        monkeypatch.setattr(module, "_canonical_lines", no_line)
    assert outputs() == want
    with pytest.raises(AssertionError, match="a Line was built"):
        sample_lines(grid, default_offset_box(M, N))


class TestPerLineDistance:
    def test_identical_complexes(self):
        L = canonicalize_line((1, 1), (0, 0))
        assert line_distances(ONE_VERTEX_ORIGIN, ONE_VERTEX_ORIGIN, [L], 0)[0] == 0

    def test_shifted_vertex_on_diagonal(self):
        L = canonicalize_line((1, 1), (0, 0))
        assert line_distances(ONE_VERTEX_ORIGIN, ONE_VERTEX_ONES, [L], 0)[0] == 1
        # the lines are checked against M; N of another dimension fails its own check
        with pytest.raises(ValueError, match="complex dimension 3 != line dimension 2"):
            line_distances(ONE_VERTEX_ORIGIN, parse_bifiltration("bifiltration 3\n0 0 ; 1 1 1"), [L], 0)

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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_writers_equal_json_dumps_and_repr_of_each_line(self, n):
        # both signed zeros in one column, repeats, inf distances (value null), an np.float64
        # value, one-line tables; the CSV spells inf and NaN as repr does
        rng = np.random.default_rng(563 + n)
        for trial in range(42):
            rows = 1 if trial % 7 == 3 else int(rng.integers(2, 80))
            directions, offsets = repeating_floats(rng, (rows, n)), repeating_floats(rng, (rows, n))
            distances = tuple(repeating_floats(rng, rows, [math.inf] * (trial % 3)).tolist())
            value = max(distances) if trial % 2 else np.float64(max(distances))
            result = MatchResult(value, directions, offsets, distances)
            assert match_result_to_json(result) == match_json(result)
            assert match_result_to_csv(result) == match_csv(result)
            directions[-1, -1] = math.nan  # JSON has no text for it; the CSV writes nan
            assert match_result_to_csv(result) == match_csv(result)

    @pytest.mark.parametrize("where", ["direction", "offset", "distance"])
    def test_json_writer_raises_jsons_error_on_nan(self, where):
        rng = np.random.default_rng(569)
        directions, offsets = repeating_floats(rng, (4, 3)), repeating_floats(rng, (4, 3))
        distances = [0.5, 1.5, 0.25, 1.0]
        if where == "direction":
            directions[2, 0] = math.nan
        elif where == "offset":
            offsets[0, 2] = math.nan
        else:
            distances[3] = math.nan
        result = MatchResult(1.5, directions, offsets, tuple(distances))
        with pytest.raises(ValueError) as want:
            match_json(result)
        with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant") as got:
            match_result_to_json(result)
        assert str(got.value) == str(want.value)
        assert match_result_to_csv(result) == match_csv(result)

    def test_csv_header_and_rows(self):
        result = matching_distance_lb(ONE_VERTEX_ORIGIN, ONE_VERTEX_ONES, LineGrid(2, 2), 0)
        lines = match_result_to_csv(result).splitlines()
        assert lines[0] == "m,b,mStar,distance"
        assert len(lines) == len(result.per_line) + 1


def test_default_offset_box_pads_union():
    lo, hi = default_offset_box(ONE_VERTEX_ORIGIN, ONE_VERTEX_ONES)
    assert lo[0] < 0 < 1 < hi[0]
    assert lo[1] < 0 < 1 < hi[1]
