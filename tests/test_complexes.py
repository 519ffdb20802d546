import math
import os
import resource
import subprocess
import sys
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    restrict,
    serialize_bifiltration,
)
import persline
from persline import LineGrid, line_barcodes, perturb_grades, sample_lines
from persline.complexes import _canonical_form, _canonical_lines, _line_arrays, push_values
from generators import bifiltration_lines, random_bifiltered_complex, random_canonical_line
from oracles import canonical_line, check_reference, parse_reference, perturb_reference, push_to_line

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
        with pytest.raises(ValidationError, match=r"simplex \(0,\): grade \(0.0, 0.0, 0.0\) has dimension 3, expected 2"):
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

    def test_offset_sums_left_to_right(self):
        # Python 3.12's sum compensates: sum([0.1, 0.2, 0.3]) is 0.6 there, where the sampled
        # grid's left-to-right sum gives 0.6000000000000001
        rng = np.random.default_rng(131)
        raws = [((1.0, 1.0, 1.0), (0.1, 0.2, 0.3))] + [
            (rng.uniform(0.1, 1.0, n).tolist(), rng.uniform(-1.0, 1.0, n).tolist())
            for n in (2, 3, 4, 6) for _ in range(50)]
        for raw_m, raw_b in raws:
            L, (m, b) = Line(raw_m, raw_b), canonical_line(raw_m, raw_b)
            assert [x.hex() for x in L.direction + L.offset] == [x.hex() for x in m + b]
        assert Line((1, 1, 1), (0.1, 0.2, 0.3)).offset[0] == 0.1 - 0.6000000000000001 / 3
        # integer components are floats first: 2**53 + 1.0 rounds to 2**53, as in the grid
        assert Line((1, 1, 1), (2**53, 1, 1)) == Line((1.0, 1.0, 1.0), (2.0**53, 1.0, 1.0))

    def test_constructor_sets_the_fields_of_the_canonical_rows(self):
        # Line(raw_m, raw_b) and _canonical_lines of _canonical_form's rows set the same fields,
        # bit for bit (repr shows -0.0 and m_star)
        rng = np.random.default_rng(29)
        directions = [1, 2, 7, 5e-324, 2.5e-310, 0.5, 3.0]
        offsets = [0, -3, 5, 0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.25, -1.5]
        kept = 0
        for _ in range(200):
            n = int(rng.integers(1, 5))
            raw_m = [directions[i] if i < len(directions) else float(rng.uniform(0.1, 3.0))
                     for i in rng.integers(0, len(directions) + 2, n).tolist()]
            raw_b = [offsets[i] if i < len(offsets) else float(rng.uniform(-2.0, 2.0))
                     for i in rng.integers(0, len(offsets) + 2, n).tolist()]
            m, b, finite = _canonical_form(np.array([raw_m], np.float64), np.array([raw_b], np.float64))
            if not finite[0]:  # a subnormal component divided by a larger one underflows to 0
                with pytest.raises(InadmissibleLineError, match="no finite canonical form"):
                    Line(raw_m, raw_b)
                continue
            assert repr(Line(raw_m, raw_b)) == repr(_canonical_lines(m, b)[0]), (raw_m, raw_b)
            kept += 1
        assert kept > 150

    @pytest.mark.parametrize("raw_m, raw_b", [((), ()), ((1, 1), ("0.5", 0)), (("1", 1), (0, 0)),
                                              ((1, 1), (None, 0))])
    def test_empty_or_non_real_line_rejected(self, raw_m, raw_b):
        with pytest.raises(InadmissibleLineError, match="at least one coordinate, each a real number"):
            Line(raw_m, raw_b)

    @pytest.mark.parametrize("raw_m, raw_b", [
        ((float("nan"), 1.0), (0.0, 0.0)),
        ((float("inf"), 1.0), (0.0, 0.0)),
        ((1.0, 1.0), (float("nan"), 0.0)),
        ((1.0, 1.0), (1e308, 1e308)),  # the offset sum overflows
        ((1e308, 1e-308), (0.0, 0.0)),  # 1e-308 / 1e308 underflows to 0
        ((1, 1), (10**400, 0)),  # no float holds the integer
    ], ids=["nan-direction", "inf-direction", "nan-offset", "overflowing-offset",
            "underflowing-direction", "integer-too-large"])
    def test_no_finite_canonical_form_rejected(self, raw_m, raw_b):
        with pytest.raises(InadmissibleLineError, match="no finite canonical form"):
            Line(raw_m, raw_b)


def _push(g, L):
    """The push of one grade onto L, as restrict gives it for a one-vertex complex."""
    return restrict(MultiFilteredComplex(len(g), (((0,), tuple(g)),)), L).simplices[0][1]


class TestPushToLine:
    def test_diagonal(self):
        L = canonicalize_line((1, 1), (0, 0))
        assert _push((2, 3), L) == 3

    def test_weighted_direction(self):
        L = canonicalize_line((1, 0.5), (0, 0))
        assert _push((2, 3), L) == 6

    def test_offset(self):
        L = canonicalize_line((1, 1), (1, -1))
        assert _push((0, 0), L) == 1

    def test_push_dominates_and_touches(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            L = random_canonical_line(rng)
            g = tuple(rng.uniform(-2, 2, size=2))
            s = _push(g, L)
            p = L.point_at(s)
            assert all(gi <= pi + 1e-12 for gi, pi in zip(g, p))
            assert min(abs(gi - pi) for gi, pi in zip(g, p)) < 1e-9

    def test_monotone_in_grade(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            L = random_canonical_line(rng)
            g = tuple(rng.uniform(-2, 2, size=2))
            h = tuple(gi + rng.uniform(0, 1) for gi in g)
            assert _push(g, L) <= _push(h, L)

    def test_dimension_mismatch(self):
        L = canonicalize_line((1, 1), (0, 0))
        with pytest.raises(ValueError, match="complex dimension 3 != line dimension 2"):
            _push((1, 2, 3), L)


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
            P = push_values(grades, *_line_arrays(lines, n))
            for k, L in enumerate(lines):
                want = [float(push_to_line(tuple(g), L)).hex() for g in grades.tolist()]
                assert [x.hex() for x in P[k].tolist()] == want

    def test_monotone_in_grade(self):
        # g <= g' componentwise implies push(g) <= push(g'), with no tolerance
        rng = np.random.default_rng(11)
        g = rng.uniform(-2, 2, size=(500, 2))
        h = g + rng.uniform(0, 1, size=g.shape) * (rng.random(g.shape) < 0.7)
        lines = [random_canonical_line(rng) for _ in range(20)]
        arrays = _line_arrays(lines, 2)
        assert (push_values(g, *arrays) <= push_values(h, *arrays)).all()
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


def test_validation_rejects_the_empty_simplex():
    # without a vertex it would count as one more H0 class
    for simplices in ((((), (0.0,)),), (((0,), (0.0,)), ((), (0.0,)))):
        with pytest.raises(ValidationError, match=r"simplex \(\): a simplex needs at least one vertex"):
            MultiFilteredComplex(1, simplices)


class TestScalarFiltration:
    def test_duplicate_simplex_rejected(self):
        with pytest.raises(ValidationError, match=r"duplicate simplex \(0,\)"):
            ScalarFiltration((((0,), 0.0), ((0,), 1.0)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, value):
        with pytest.raises(ValidationError, match=r"simplex \(1,\): non-finite grade"):
            ScalarFiltration((((0,), 0.0), ((1,), value)))


def _simplex_rows(lines):
    return [i for i, x in enumerate(lines) if ";" in x and not x.lstrip().startswith("#")]


def _edit(rng, lines, change):
    """``lines`` with one simplex line (one with at least ``change``'s needs) rewritten as
    change(rng, k, ids, coords) -> (k, ids, coords), or unchanged when there is none."""
    rows = [i for i in _simplex_rows(lines) if change.needs <= len(lines[i].partition(";")[0].split()) - 1]
    if not rows:
        return lines
    i = rows[int(rng.integers(len(rows)))]
    left, _, right = lines[i].partition(";")
    k, *ids = left.split()
    k, ids, coords = change(rng, k, ids, right.split())
    return lines[:i] + [f"{k} {' '.join(ids)} ; {' '.join(coords)}"] + lines[i + 1 :]


def _change(needs):
    def wrap(f):
        f.needs = needs
        return f
    return wrap


@_change(2)
def _repeat_id(rng, k, ids, coords):
    return k, [ids[0], *ids[:-1]], coords


@_change(1)
def _negative_id(rng, k, ids, coords):
    j = int(rng.integers(len(ids)))
    return k, ids[:j] + [f"-1{ids[j]}"] + ids[j + 1 :], coords


@_change(1)
def _bad_id(rng, k, ids, coords):
    return k, ids[:-1] + [rng.choice(["x", "1.5", "0x1"])], coords


@_change(1)
def _bad_grade(rng, k, ids, coords):
    return k, ids, coords[:-1] + [rng.choice(["1..0", "e", "--1", "1,5"])]


@_change(1)
def _non_finite(rng, k, ids, coords):
    j = int(rng.integers(len(coords)))
    return k, ids, coords[:j] + [rng.choice(["nan", "inf", "-inf", "NaN", "-Infinity"])] + coords[j + 1 :]


@_change(1)
def _grade_length(rng, k, ids, coords):
    return k, ids, coords[1:] if rng.random() < 0.5 else coords + ["0.5"]


@_change(1)
def _raise_grade(rng, k, ids, coords):  # above a coface's, if it has one
    return k, ids, [f"1{c}" if c[:1].isdigit() else c for c in coords]


@_change(1)
def _bad_count(rng, k, ids, coords):
    return rng.choice([str(int(k) + 1), str(int(k) - 1), "-3"]), ids, coords


def _drop_line(rng, lines):  # a missing face, if the simplex has a coface
    rows = _simplex_rows(lines)
    return [x for i, x in enumerate(lines) if i != rows[int(rng.integers(len(rows)))]] if rows else lines


def _duplicate_line(rng, lines):
    rows = _simplex_rows(lines)
    j = int(rng.integers(len(lines) + 1))
    return lines[:j] + [lines[rows[int(rng.integers(len(rows)))]]] + lines[j:] if rows else lines


def _mangle_line(rng, lines):
    """A line without ';', an empty description, a bad header, or none."""
    i = int(rng.integers(1, len(lines)))
    bad = rng.choice(["0 1 2", " ; 1 2", "bifiltration x", "bifiltratio 2", "-1 ; 0"])
    return lines[:i] + [bad] + lines[i + 1 :]


_MUTATIONS = {
    "drop a face": _drop_line,
    "duplicate a line": _duplicate_line,
    "mangle a line": _mangle_line,
    **{name: (lambda change: lambda rng, lines: _edit(rng, lines, change))(change) for name, change in (
        ("repeat an id", _repeat_id), ("negative id", _negative_id), ("bad id", _bad_id),
        ("bad grade", _bad_grade), ("non-finite grade", _non_finite), ("grade length", _grade_length),
        ("face above coface", _raise_grade), ("vertex count", _bad_count))},
}


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _bits(grades):
    return [tuple(float(x).hex() for x in g) for g in grades]


def _assert_same_complex(M, ref):
    assert (M.dim, M.table) == (ref["dim"], ref["table"])
    assert [s for s, _ in M.simplices] == [s for s, _ in ref["simplices"]]
    assert _bits(g for _, g in M.simplices) == _bits(g for _, g in ref["simplices"])
    assert [tuple(f) for B in M.boundary for f in B.tolist()] == ref["boundary"]
    assert _bits(M.grade_array.tolist()) == _bits(ref["grades"])


class TestParseOracle:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1).map(np.random.default_rng),
           st.lists(st.sampled_from(sorted(_MUTATIONS)), max_size=2))
    def test_parser_and_constructor_equal_the_reference(self, rng, mutations):
        # a valid text, or one with one or two faults: the earlier fault must win
        dim, lines = bifiltration_lines(rng)
        for name in mutations:
            lines = _MUTATIONS[name](rng, lines)
        text = "\n".join(lines) + "\n"
        got, want = _outcome(parse_bifiltration, text), _outcome(parse_reference, text)
        if isinstance(want, tuple):
            assert got == want
        else:
            _assert_same_complex(got, want)

    @pytest.mark.parametrize("name, message", [
        ("drop a face", "missing face"), ("duplicate a line", "duplicate simplex"),
        ("mangle a line", "expected '<k> <vertex ids> ; <grade>'"), ("repeat an id", "distinct and sorted"),
        ("negative id", "negative vertex id"), ("bad id", "bad simplex description"), ("bad grade", "bad grade"),
        ("non-finite grade", "non-finite grade"), ("grade length", "has dimension"),
        ("face above coface", "non-monotone grades"), ("vertex count", "vertex ids, got"),
    ])
    def test_each_mutation_makes_its_error_on_these_seeds(self, name, message):
        # the oracle test above is not vacuous: each fault shows up as the error it should
        messages = []
        for seed in range(40):
            rng = np.random.default_rng(seed)
            dim, lines = bifiltration_lines(rng)
            messages.append(str(_outcome(parse_reference, "\n".join(_MUTATIONS[name](rng, lines)))))
        assert any(message in m for m in messages)

    @pytest.mark.parametrize("simplices", [
        (((0,), (0.0,)), ((), (0.0,))),
        (((1,), (0.0,)), ((0, 0), (1.0,)), ((2,), (math.nan,))),
        (((3, 1), (0.0, 0.0, 0.0)), ((0,), (math.inf,))),
        (((0,), (1, 2)), ((1,), (0, 0)), ((0, 1), (0.5, 3))),
        (((0,), (0.0,)), ((0,), (1.0,)), ((0, 2), (1.0,))),
        (((-1,), (0.0,)), ((0, 0), (0.0,))),
        (((2**70,), (0.0,)), ((0, 2**70), (1.0,))),
        (),
    ])
    def test_library_constructor_equals_the_reference(self, simplices):
        got = _outcome(lambda s: MultiFilteredComplex(len(s[0][1]) if s else 1, s), simplices)
        want = _outcome(lambda s: check_reference(len(s[0][1]) if s else 1, s), simplices)
        if isinstance(want, tuple):
            assert got == want
        else:
            _assert_same_complex(got, want)

    @pytest.mark.parametrize("ids", [(0, 10**15, 2**70), (3, 10**15, 2**63 - 1), (1, 2**63, 2**64 - 1),
                                     (5, 2**63, 2**64 + 1)])
    def test_sparse_and_huge_ids_parse_as_a_dense_relabelling(self, ids):
        def text(vertex):
            a, b, c = map(str, vertex)
            return (f"bifiltration 2\n1 {b} {c} ; 1 2\n0 {c} ; 0 1\n0 {a} ; 0.5 0\n0 {b} ; 1 0\n"
                    f"1 {a} {c} ; 1 1\n1 {a} {b} ; 1 0.5\n2 {c} {a} {b} ; 2 2\n")
        M, D = parse_bifiltration(text(ids)), parse_bifiltration(text((0, 1, 2)))
        dense = dict(zip(ids, range(3)))
        assert [tuple(map(dense.get, s)) for s in M.table] == list(D.table)
        _assert_same_complex(M, parse_reference(text(ids)))
        lines = sample_lines(LineGrid(4, 3), ((0.0, 0.0), (2.0, 2.0)))
        for degree in (0, 1):
            assert line_barcodes(M, lines, degree) == line_barcodes(D, lines, degree)


class TestFaceCount:
    """Fewer than 2**k - 1 simplices, one of them of k vertices: a face is missing. The constructor
    says so before it builds face keys k + 1 ids wide for every simplex, with the same message."""

    def test_a_huge_simplex_is_a_usage_error_in_bounded_memory(self, tmp_path):
        # the face keys of these 10,001 simplices, 3,001 x 3,001 ids each, would take 671 GiB
        path = tmp_path / "M.bif"
        path.write_text("bifiltration 2\n" + "".join(f"0 {v} ; 0 0\n" for v in range(10_000))
                        + "2999 " + " ".join(map(str, range(3000))) + " ; 1 1\n")
        src = os.path.dirname(os.path.dirname(persline.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        argv = ["barcode", "--input", str(path), "--line", "1,1:0,0", "--degree", "0"]
        child = subprocess.run([sys.executable, "-c", "from persline.cli import main; main()", *argv],
                               capture_output=True, text=True, env=env, timeout=120,
                               preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30)))
        assert child.returncode == 2
        face = f"simplex {tuple(range(3000))}: missing face {tuple(range(1, 3000))}"
        assert child.stderr == f"persline: error: {path}: {face}\n"

    def test_a_huge_simplex_is_checked_before_ids_are_padded(self):
        # the same 139 KB input in-process: its ids padded to 3,000 a simplex would take 229 MiB,
        # each check mask at that width 29 MiB; the parsed text itself takes a few MiB
        text = ("bifiltration 2\n" + "".join(f"0 {v} ; 0 0\n" for v in range(10_000))
                + "2999 " + " ".join(map(str, range(3000))) + " ; 1 1\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=r"missing face \(1, 2, 3,"):
                parse_bifiltration(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1).map(np.random.default_rng))
    def test_the_first_duplicate_or_missing_face_in_table_order(self, rng):
        # every face of a simplex of 4 to 7 of 9 vertices, and a few other simplices; then some
        # faces dropped and, at times, one simplex listed twice
        top = tuple(sorted(rng.choice(9, size=int(rng.integers(4, 8)), replace=False).tolist()))
        faces = [f for k in range(1, len(top)) for f in combinations(top, k)]
        others = [f for k in (1, 2, 3) for f in combinations(range(9), k) if rng.random() < 0.03]
        kept = [f for f in faces if rng.random() < 0.8] or faces[1:]
        simplices = sorted({*kept, *others, top}, key=lambda _: rng.random())
        if rng.random() < 0.3:
            simplices.insert(int(rng.integers(len(simplices) + 1)), simplices[int(rng.integers(len(simplices)))])
        simplices = tuple((s, (0.0, 0.0)) for s in simplices)
        if len(simplices) >= 2 ** len(top) - 1:
            return
        got, want = _outcome(lambda s: MultiFilteredComplex(2, s), simplices), _outcome(
            lambda s: check_reference(2, s), simplices)
        assert got == want and got[0] == "ValidationError"


class TestDerivedComplexes:
    """diagonal_shift and perturb_grades build their complexes from M's checked arrays."""

    def test_equal_the_constructors_complex(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            dim, lines = bifiltration_lines(rng)
            M = parse_bifiltration("\n".join(lines))
            eps = float(rng.choice([0.0, 5e-324, 0.25, 1.5, 1e300]))
            pair = perturb_grades(M, eps, int(rng.integers(100)))
            for X in (diagonal_shift(M, eps), pair.N):
                _assert_same_complex(X, check_reference(X.dim, X.simplices))
                Y = MultiFilteredComplex(X.dim, X.simplices)
                assert X.table == Y.table and X.grade_array.tobytes() == Y.grade_array.tobytes()
                assert all(np.array_equal(a, b) for a, b in zip(X.boundary, Y.boundary))
                assert len(X.boundary) == len(Y.boundary) and X._relation_cache == {}

    def test_equal_the_reference_shift_and_perturbation(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            dim, lines = bifiltration_lines(rng)
            M = parse_bifiltration("\n".join(lines))
            eps, seed = float(rng.choice([0.0, 0.1, 0.25, 2.0])), int(rng.integers(1000))
            shifted = tuple((s, tuple(c - eps for c in g)) for s, g in M.simplices)
            assert _bits(g for _, g in diagonal_shift(M, eps).simplices) == _bits(g for _, g in shifted)
            pair = perturb_grades(M, eps, seed)
            want, certified = perturb_reference(dim, M.simplices, eps, seed)
            assert [s for s, _ in pair.N.simplices] == [s for s, _ in want]
            assert _bits(g for _, g in pair.N.simplices) == _bits(g for _, g in want)
            assert pair.epsilon.hex() == certified.hex()

    def test_shift_to_minus_infinity_is_a_non_finite_grade(self):
        M = parse_bifiltration("bifiltration 2\n0 0 ; 0 1\n0 1 ; -1e308 0\n1 0 1 ; 0 1\n")
        with pytest.raises(ValidationError, match=r"^simplex \(1,\): non-finite grade \(-inf, -1e\+308\)$"):
            diagonal_shift(M, 1e308)

    def test_perturbation_to_infinity_is_a_non_finite_grade(self):
        M = parse_bifiltration("bifiltration 1\n0 0 ; 1.7976931348623157e308\n")
        with pytest.raises(ValidationError, match="non-finite grade"):
            for seed in range(20):  # some draw moves the grade up
                perturb_grades(M, 1e300, seed)
