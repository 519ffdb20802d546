import math

import numpy as np
import pytest

from persline import (
    InadmissibleLineError,
    Line,
    MultiFilteredComplex,
    ParseError,
    ScalarFiltration,
    ValidationError,
    canonicalize_line,
    diagonal_shift,
    parse_bifiltration,
    push_to_line,
    restrict,
    serialize_bifiltration,
)
from persline.complexes import push_values
from generators import random_bifiltered_complex, random_canonical_line

TWO_VERTEX_EDGE = "bifiltration 2\n0 0 ; 0 0\n0 1 ; 0 0\n1 0 1 ; 1 1\n"


class TestParsing:
    def test_single_vertex(self):
        M = parse_bifiltration("bifiltration 2\n0 0 ; 0 0")
        assert M.dim == 2
        assert M.simplices == (((0,), (0.0, 0.0)),)

    def test_two_vertices_and_edge(self):
        M = parse_bifiltration(TWO_VERTEX_EDGE)
        assert M.simplices == (
            ((0,), (0.0, 0.0)),
            ((1,), (0.0, 0.0)),
            ((0, 1), (1.0, 1.0)),
        )

    # each input also with the coface listed before its faces
    def test_non_monotone_grade_rejected(self):
        for body in ("0 0 ; 2 2\n0 1 ; 0 0\n1 0 1 ; 1 1\n", "1 0 1 ; 1 1\n0 1 ; 0 0\n0 0 ; 2 2\n"):
            with pytest.raises(ValidationError, match=r"non-monotone grades: face \(0,\) at \(2.0, 2.0\)"):
                parse_bifiltration("bifiltration 2\n" + body)

    def test_missing_face_rejected(self):
        for body in ("0 0 ; 0 0\n1 0 1 ; 1 1\n", "1 0 1 ; 1 1\n0 0 ; 0 0\n"):
            with pytest.raises(ValidationError, match=r"simplex \(0, 1\): missing face \(1,\)"):
                parse_bifiltration("bifiltration 2\n" + body)

    def test_duplicate_simplex_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_bifiltration("bifiltration 2\n0 0 ; 0 0\n0 0 ; 0 0\n")

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_bifiltration("bifiltration 2\n0 0 ; 0 0\nnot a simplex\n")

    def test_comments_and_blank_lines_skipped(self):
        text = "# header comment\nbifiltration 2\n\n# vertex\n0 0 ; 0 0\n"
        assert len(parse_bifiltration(text).simplices) == 1

    def test_wrong_grade_arity(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_bifiltration("bifiltration 2\n0 0 ; 0 0 0\n")

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            M = random_bifiltered_complex(rng)
            assert parse_bifiltration(serialize_bifiltration(M)) == M

    def test_serialization_byte_stable(self):
        M = parse_bifiltration(TWO_VERTEX_EDGE)
        assert serialize_bifiltration(M) == serialize_bifiltration(
            parse_bifiltration(serialize_bifiltration(M))
        )


class TestCanonicalizeLine:
    def test_rescale_only(self):
        L = canonicalize_line((2, 2), (1, -1))
        assert L.direction == (1.0, 1.0)
        assert L.offset == (1.0, -1.0)
        assert L.m_star == 1.0

    def test_offset_slides_to_sum_zero(self):
        L = canonicalize_line((1, 1), (1, 1))
        assert L.direction == (1.0, 1.0)
        assert L.offset == (0.0, 0.0)

    def test_direction_normalization(self):
        L = canonicalize_line((2, 1), (0, 0))
        assert L.direction == (1.0, 0.5)
        assert L.m_star == 0.5

    def test_nonpositive_direction_rejected(self):
        with pytest.raises(InadmissibleLineError):
            canonicalize_line((1, 0), (0, 0))
        with pytest.raises(InadmissibleLineError):
            canonicalize_line((1, -1), (0, 0))

    def test_idempotent_and_point_set_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            raw_m = tuple(rng.uniform(0.1, 3.0, size=2))
            raw_b = tuple(rng.uniform(-2.0, 2.0, size=2))
            L = canonicalize_line(raw_m, raw_b)
            again = canonicalize_line(L.direction, L.offset)
            assert max(abs(a - b) for a, b in zip(L.direction, again.direction)) < 1e-12
            assert max(abs(a - b) for a, b in zip(L.offset, again.offset)) < 1e-12
            # sample 10 points of the raw parameterization; each must lie on L
            for s in np.linspace(-3, 3, 10):
                p = tuple(s * m + b for m, b in zip(raw_m, raw_b))
                t = (p[0] - L.offset[0]) / L.direction[0]
                q = L.point_at(t)
                assert max(abs(a - b) for a, b in zip(p, q)) < 1e-9

    def test_direct_construction_is_canonical(self):
        L = Line((2.0, 1.0), (1.0, 1.0))
        assert repr(L) == repr(canonicalize_line((2.0, 1.0), (1.0, 1.0)))  # bit for bit
        assert L.direction == (1.0, 0.5) and L.m_star == 0.5
        assert sum(L.offset) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("raw_m, raw_b", [
        ((float("nan"), 1.0), (0.0, 0.0)),
        ((float("inf"), 1.0), (0.0, 0.0)),
        ((1.0, 1.0), (float("nan"), 0.0)),
        ((1.0, 1.0), (1e308, 1e308)),  # the offset sum overflows
    ], ids=["nan-direction", "inf-direction", "nan-offset", "overflowing-offset"])
    def test_no_finite_canonical_form_rejected(self, raw_m, raw_b):
        with pytest.raises(InadmissibleLineError, match="no finite canonical form"):
            Line(raw_m, raw_b)


class TestPushToLine:
    def test_diagonal(self):
        L = canonicalize_line((1, 1), (0, 0))
        assert push_to_line((2, 3), L) == 3

    def test_weighted_direction(self):
        L = canonicalize_line((1, 0.5), (0, 0))
        assert push_to_line((2, 3), L) == 6

    def test_offset(self):
        L = canonicalize_line((1, 1), (1, -1))
        assert push_to_line((0, 0), L) == 1

    def test_push_dominates_and_touches(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            L = random_canonical_line(rng)
            g = tuple(rng.uniform(-2, 2, size=2))
            s = push_to_line(g, L)
            p = L.point_at(s)
            assert all(gi <= pi + 1e-12 for gi, pi in zip(g, p))
            assert min(abs(gi - pi) for gi, pi in zip(g, p)) < 1e-9

    def test_monotone_in_grade(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            L = random_canonical_line(rng)
            g = tuple(rng.uniform(-2, 2, size=2))
            h = tuple(gi + rng.uniform(0, 1) for gi in g)
            assert push_to_line(g, L) <= push_to_line(h, L) + 1e-12

    def test_dimension_mismatch(self):
        L = canonicalize_line((1, 1), (0, 0))
        with pytest.raises(ValueError):
            push_to_line((1, 2, 3), L)


class TestPushValues:
    def test_bit_equal_to_push_to_line(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            grades = rng.integers(-2, 3, size=(40, n)) * 0.5
            grades[rng.random(grades.shape) < 0.2] = -0.0
            lines = [canonicalize_line((1,) * n, (0.0,) * n)] + [
                canonicalize_line(tuple(rng.uniform(0.1, 1, n)), tuple(rng.integers(-1, 2, n) * 0.5))
                for _ in range(9)
            ]
            P = push_values(grades, lines)
            for k, L in enumerate(lines):
                want = [float(push_to_line(tuple(g), L)).hex() for g in grades.tolist()]
                assert [x.hex() for x in P[k].tolist()] == want

    def test_monotone_in_grade(self):
        # g <= g' componentwise implies push(g) <= push(g'), with no tolerance
        rng = np.random.default_rng(11)
        g = rng.uniform(-2, 2, size=(500, 2))
        h = g + rng.uniform(0, 1, size=g.shape) * (rng.random(g.shape) < 0.7)
        lines = [random_canonical_line(rng) for _ in range(20)]
        assert (push_values(g, lines) <= push_values(h, lines)).all()
        for L in lines[:5]:
            for a, b in zip(g.tolist(), h.tolist()):
                assert push_to_line(a, L) <= push_to_line(b, L)


class TestRestrict:
    def test_single_vertex(self):
        M = parse_bifiltration("bifiltration 2\n0 0 ; 0 0")
        F = restrict(M, canonicalize_line((1, 1), (0, 0)))
        assert F.simplices == (((0,), 0.0),)

    def test_edge_on_diagonal(self):
        M = parse_bifiltration("bifiltration 2\n0 0 ; 0 0\n0 1 ; 0 0\n1 0 1 ; 1 2\n")
        F = restrict(M, canonicalize_line((1, 1), (0, 0)))
        assert dict(F.simplices) == {(0,): 0.0, (1,): 0.0, (0, 1): 2.0}

    def test_edge_on_weighted_line(self):
        M = parse_bifiltration("bifiltration 2\n0 0 ; 0 0\n0 1 ; 0 0\n1 0 1 ; 1 2\n")
        F = restrict(M, canonicalize_line((1, 0.5), (0, 0)))
        assert dict(F.simplices)[(0, 1)] == 4.0


class TestDiagonalShift:
    def test_zero_shift_is_identity(self):
        M = parse_bifiltration(TWO_VERTEX_EDGE)
        assert diagonal_shift(M, 0.0) == M

    def test_componentwise_subtraction(self):
        M = parse_bifiltration("bifiltration 2\n0 0 ; 1 1")
        assert diagonal_shift(M, 0.5).simplices == (((0,), (0.5, 0.5)),)

    def test_shift_whole_complex(self):
        M = parse_bifiltration(TWO_VERTEX_EDGE)
        N = diagonal_shift(M, 1.0)
        assert N.simplices == (
            ((0,), (-1.0, -1.0)),
            ((1,), (-1.0, -1.0)),
            ((0, 1), (0.0, 0.0)),
        )

    def test_negative_epsilon_rejected(self):
        M = parse_bifiltration(TWO_VERTEX_EDGE)
        with pytest.raises(ValueError):
            diagonal_shift(M, -0.1)

    def test_restriction_shift_bounds(self):
        # entries drop by at most eps/m_star and at least eps/max_i m_i
        rng = np.random.default_rng(17)
        for _ in range(20):
            M = random_bifiltered_complex(rng)
            L = random_canonical_line(rng)
            eps = float(rng.uniform(0, 1))
            before = dict(restrict(M, L).simplices)
            after = dict(restrict(diagonal_shift(M, eps), L).simplices)
            for s, v in before.items():
                drop = v - after[s]
                assert drop <= eps / L.m_star + 1e-9
                assert drop >= eps / max(L.direction) - 1e-9

    def test_diagonal_line_shift_is_exact(self):
        rng = np.random.default_rng(23)
        L = canonicalize_line((1, 1), (0, 0))
        M = random_bifiltered_complex(rng)
        eps = 0.25
        before = dict(restrict(M, L).simplices)
        after = dict(restrict(diagonal_shift(M, eps), L).simplices)
        for s, v in before.items():
            assert after[s] == pytest.approx(v - eps, abs=1e-12)


def test_validation_rejects_nan_grade():
    with pytest.raises(ValidationError):
        MultiFilteredComplex(2, (((0,), (math.nan, 0.0)),))


class TestScalarFiltration:
    def test_duplicate_simplex_rejected(self):
        with pytest.raises(ValidationError, match=r"duplicate simplex \(0,\)"):
            ScalarFiltration((((0,), 0.0), ((0,), 1.0)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, value):
        with pytest.raises(ValidationError, match=r"simplex \(1,\): non-finite entry"):
            ScalarFiltration((((0,), 0.0), ((1,), value)))
