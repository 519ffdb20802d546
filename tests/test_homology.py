import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persline import (
    Interval,
    LineGrid,
    MultiFilteredComplex,
    RankQuery,
    ScalarFiltration,
    barcode_from_json,
    barcode_to_json,
    bottleneck_distance,
    canonicalize_line,
    compute_barcode,
    default_offset_box,
    line_barcodes,
    line_distances,
    matching_distance_lb,
    parse_bifiltration,
    perturb_grades,
    rank_invariant,
    restrict,
    sample_lines,
    serialize_bifiltration,
    shift_pair,
    verify_internal_stability,
)
import persline.complexes
import persline.homology
from persline.bottleneck import _split
from persline.cli import run
from persline.complexes import _line_arrays
from persline.homology import _line_values, strict_dumps
from generators import random_bifiltered_complex, random_canonical_line, random_scalar_filtration
from oracles import homology_dim, induced_rank, push_to_line, scalar_barcode, scalar_rank

TWO_VERTEX_EDGE = "bifiltration 2\n0 0 ; 0 0\n0 1 ; 0 0\n1 0 1 ; 1 1\n"
SIGNED_ZERO = (
    "bifiltration 2\n0 0 ; -0.0 0.0\n0 1 ; 0.0 -0.0\n0 2 ; -0.0 -0.0\n"
    "1 0 1 ; 0.0 0.5\n1 0 2 ; -0.0 0.25\n1 1 2 ; 0.5 -0.0\n"
)


class TestOrdering:
    """restrict lists M's table order, (dimension, vertex ids): the order the
    engine breaks push-value ties by, with every face before its cofaces."""

    def test_vertices_before_edge(self):
        M = MultiFilteredComplex(2, (((0, 1), (1.0, 1.0)), ((1,), (0.0, 0.0)), ((0,), (0.0, 0.0))))
        F = restrict(M, canonicalize_line((1, 1), (0, 0)))
        assert [s for s, _ in F.simplices] == [(0,), (1,), (0, 1)]

    def test_ties_broken_by_dim_then_lex(self):
        grades = {(2,): 0.0, (0,): 0.0, (1,): 0.0, (0, 2): 1.0, (0, 1): 1.0}
        M = MultiFilteredComplex(1, tuple((s, (v,)) for s, v in grades.items()))
        F = restrict(M, canonicalize_line((1,), (0,)))
        assert [s for s, _ in F.simplices] == [(0,), (1,), (2,), (0, 1), (0, 2)]

    def test_faces_precede_cofaces(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            M = random_bifiltered_complex(rng)
            order = rng.permutation(len(M.simplices))
            shuffled = MultiFilteredComplex(2, tuple(M.simplices[i] for i in order))
            seen = set()
            for s, _ in restrict(shuffled, random_canonical_line(rng)).simplices:
                for i in range(len(s)):
                    face = s[:i] + s[i + 1 :]
                    if face:
                        assert face in seen
                seen.add(s)


class TestBarcode:
    def test_two_vertices_merging(self):
        F = ScalarFiltration((((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0)))
        assert compute_barcode(F, 0) == (
            Interval(0.0, 1.0, 0),
            Interval(0.0, math.inf, 0),
        )

    def test_single_vertex(self):
        F = ScalarFiltration((((0,), 0.0),))
        assert compute_barcode(F, 0) == (Interval(0.0, math.inf, 0),)

    def test_triangle_boundary_degree_one(self):
        F = ScalarFiltration(
            (
                ((0,), 0.0), ((1,), 0.0), ((2,), 0.0),
                ((0, 1), 1.0), ((0, 2), 1.0), ((1, 2), 1.0),
            )
        )
        assert compute_barcode(F, 1) == (Interval(1.0, math.inf, 1),)

    def test_filled_triangle_kills_cycle(self):
        F = ScalarFiltration(
            (
                ((0,), 0.0), ((1,), 0.0), ((2,), 0.0),
                ((0, 1), 1.0), ((0, 2), 1.0), ((1, 2), 1.0),
                ((0, 1, 2), 2.0),
            )
        )
        assert compute_barcode(F, 1) == (Interval(1.0, 2.0, 1),)

    def test_zero_length_intervals_dropped(self):
        F = ScalarFiltration((((0,), 0.0), ((1,), 0.0), ((0, 1), 0.0)))
        assert compute_barcode(F, 0) == (Interval(0.0, math.inf, 0),)

    def test_degree_out_of_range(self):
        F = ScalarFiltration((((0,), 0.0),))
        with pytest.raises(ValueError):
            compute_barcode(F, -1)

    def test_degree_above_dimension_is_empty(self):
        F = ScalarFiltration((((0,), 0.0),))
        assert compute_barcode(F, 1) == ()
        assert compute_barcode(F, 5) == ()

    def test_rank_oracle_equivalence(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            F = random_scalar_filtration(rng)
            values = sorted({v for _, v in F.simplices})
            for degree in (0, 1):
                if degree > _max_dim(F):
                    continue
                bars = compute_barcode(F, degree)
                for s in values:
                    for t in values:
                        if s > t:
                            continue
                        count = sum(1 for iv in bars if iv.birth <= s and iv.death > t)
                        assert count == scalar_rank(list(F.simplices), s, t, degree)

    def test_tie_break_independence(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            F = random_scalar_filtration(rng)
            simplices = list(F.simplices)
            rng.shuffle(simplices)
            permuted = ScalarFiltration(tuple(simplices))
            for degree in (0, 1):
                if degree > _max_dim(F):
                    continue
                assert compute_barcode(F, degree) == compute_barcode(permuted, degree)


class TestBettiAt:
    def test_single_vertex(self):
        M = parse_bifiltration("bifiltration 2\n0 0 ; 0 0")
        assert rank_invariant(M, RankQuery((0.0, 0.0), (0.0, 0.0), 0)) == 1

    def test_before_edge_two_components(self):
        M = parse_bifiltration(TWO_VERTEX_EDGE)
        assert rank_invariant(M, RankQuery((0.0, 0.0), (0.0, 0.0), 0)) == 2

    def test_after_edge_one_component(self):
        M = parse_bifiltration(TWO_VERTEX_EDGE)
        assert rank_invariant(M, RankQuery((1.0, 1.0), (1.0, 1.0), 0)) == 1

    def test_matches_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            M = random_bifiltered_complex(rng)
            u = tuple(rng.uniform(0, 2, size=2))
            for degree in (0, 1):
                sub = [s for s, g in M.simplices if all(a <= b for a, b in zip(g, u))]
                assert rank_invariant(M, RankQuery(u, u, degree)) == homology_dim(sub, degree)


class TestRankInvariant:
    def test_identity_map(self):
        M = parse_bifiltration("bifiltration 2\n0 0 ; 0 0")
        assert rank_invariant(M, RankQuery((0.0, 0.0), (0.0, 0.0), 0)) == 1

    def test_components_merge(self):
        M = parse_bifiltration(TWO_VERTEX_EDGE)
        assert rank_invariant(M, RankQuery((0.0, 0.0), (2.0, 2.0), 0)) == 1

    def test_edge_absent_at_target(self):
        M = parse_bifiltration(TWO_VERTEX_EDGE)
        assert rank_invariant(M, RankQuery((0.0, 0.0), (0.5, 0.5), 0)) == 2

    def test_precondition(self):
        with pytest.raises(ValueError):
            RankQuery((1.0, 0.0), (0.0, 1.0), 0)

    def test_diagonal_equals_betti(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            M = random_bifiltered_complex(rng)
            u = tuple(rng.uniform(0, 2, size=2))
            sub = [s for s, g in M.simplices if all(a <= b for a, b in zip(g, u))]
            for degree in (0, 1):
                assert rank_invariant(M, RankQuery(u, u, degree)) == homology_dim(sub, degree)

    @staticmethod
    def _check_image_rank(M, u, v, degrees):
        sub_u = [s for s, g in M.simplices if all(a <= b for a, b in zip(g, u))]
        sub_v = [s for s, g in M.simplices if all(a <= b for a, b in zip(g, v))]
        for degree in degrees:
            assert rank_invariant(M, RankQuery(u, v, degree)) == induced_rank(
                sub_u, sub_v, degree
            )

    def test_matches_brute_force_image_rank(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            M = random_bifiltered_complex(rng)
            u = tuple(rng.uniform(0, 1.5, size=2))
            v = tuple(ui + rng.uniform(0, 1) for ui in u)
            self._check_image_rank(M, u, v, (0, 1))
        # clique complexes with tied integer grades; u is a simplex's grade and v
        # its join with another's, so simplices enter exactly at u or at v, and
        # the ranks in degrees 2 and 3 are not all 0
        for n_vertices, top_dim in ((4, 3), (5, 3), (6, 2), (7, 1)):
            for _ in range(3):
                M = _clique_complex(rng, n_vertices, top_dim, levels=3)
                grades = [g for _, g in M.simplices]
                for _ in range(6):
                    u, w = (grades[i] for i in rng.integers(0, len(grades), size=2))
                    self._check_image_rank(M, u, tuple(map(max, u, w)), range(4))

    def test_monotone_in_nesting(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            M = random_bifiltered_complex(rng)
            u = tuple(rng.uniform(0, 1, size=2))
            du1 = tuple(rng.uniform(0, 0.5, size=2))
            dv1 = tuple(rng.uniform(0, 0.5, size=2))
            dv2 = tuple(rng.uniform(0, 0.5, size=2))
            up = tuple(a + b for a, b in zip(u, du1))
            vp = tuple(a + b for a, b in zip(up, dv1))
            v = tuple(a + b for a, b in zip(vp, dv2))
            assert rank_invariant(M, RankQuery(u, v, 0)) <= rank_invariant(
                M, RankQuery(up, vp, 0)
            )

    def test_agrees_with_line_restriction(self):
        rng = np.random.default_rng(59)
        for _ in range(30):
            M = random_bifiltered_complex(rng)
            L = random_canonical_line(rng)
            s = float(rng.uniform(-1, 2))
            t = s + float(rng.uniform(0.01, 2))
            u, v = L.point_at(s), L.point_at(t)
            bars = scalar_barcode([(sx, push_to_line(g, L)) for sx, g in M.simplices], 0)
            count = sum(1 for birth, death in bars if birth <= s and death > t)
            assert rank_invariant(M, RankQuery(u, v, 0)) == count


class TestBarcodeJson:
    def test_round_trip(self):
        bars = (Interval(0.0, 1.0, 0), Interval(0.5, math.inf, 1))
        assert barcode_from_json(barcode_to_json(bars)) == bars

    @pytest.mark.parametrize("text", [
        "{}", "null", '[{"degree": "0", "birth": 0, "death": 1}]',
        '[{"degree": 0, "birth": false, "death": 1}]',
        pytest.param("[" * 100_000, id="nested-past-the-recursion-limit"),  # json raises RecursionError
    ])
    def test_mistyped_json_raises_value_error(self, text):
        with pytest.raises(ValueError):
            barcode_from_json(text)

    @pytest.mark.parametrize("text, named", [
        ("[[1, 2, 0]]", "[1, 2, 0]"),
        ("[null]", "None"),
        ('[{"degree": 0, "birth": 1}]', "{'degree': 0, 'birth': 1}"),
        ('[{"degree": 0, "birth": "1", "death": 2}]', "Interval(birth='1', death=2, degree=0)"),
        ('[{"degree": 0, "birth": 0, "death": [1]}]', "Interval(birth=0, death=[1], degree=0)"),
    ])
    def test_malformed_item_is_a_value_error_naming_it(self, text, named):
        # checked before any key is read or any arithmetic is done
        with pytest.raises(ValueError) as exc:
            barcode_from_json(text)
        assert str(exc.value).startswith(f"bad interval {named}: ")

    def test_sorted_output(self):
        bars = (Interval(1.0, math.inf, 1), Interval(0.0, 2.0, 0), Interval(0.0, 1.0, 0))
        text = barcode_to_json(bars)
        assert text == (
            '[{"degree": 0, "birth": 0.0, "death": 1.0},'
            ' {"degree": 0, "birth": 0.0, "death": 2.0},'
            ' {"degree": 1, "birth": 1.0, "death": null}]'
        )

    def test_infinite_endpoints_are_null_and_the_rest_as_json_dumps_writes_them(self):
        bars = (Interval(-math.inf, math.inf, 0), Interval(0, 10**20, 1), Interval(np.float64(0.5), 2, 1))
        assert barcode_to_json(bars) == (
            '[{"degree": 0, "birth": null, "death": null},'
            ' {"degree": 1, "birth": 0, "death": 100000000000000000000},'
            ' {"degree": 1, "birth": 0.5, "death": 2}]'
        )

    def test_strict_dumps_writes_one_value(self):
        # an infinity is null, whatever its sign; NaN raises, as does a list or dict holding an infinity
        values = (math.inf, -math.inf, np.float64(-math.inf), 1.5, 3, True, None, "a")
        assert [strict_dumps(x) for x in values] == ["null", "null", "null", "1.5", "3", "true", "null", '"a"']
        for bad in (math.nan, [math.inf], {"distance": math.inf}):
            with pytest.raises(ValueError):
                strict_dumps(bad)


def _max_dim(M):
    return max(len(s) for s, _ in M.simplices) - 1


def _clique_complex(rng, n_vertices, top_dim, levels):
    """Every simplex up to top_dim on n_vertices, integer grades in [0, levels].

    A simplex enters at the componentwise max of its faces plus 0 or 1 per
    coordinate, so grades tie often and many cycles open and close.
    """
    grade = {}
    for k in range(1, top_dim + 2):
        for s in combinations(range(n_vertices), k):
            if k == 1:
                g = rng.integers(0, levels + 1, size=2)
            else:
                g = np.max([grade[s[:i] + s[i + 1 :]] for i in range(k)], axis=0)
                g = g + rng.integers(0, 2, size=2)
            grade[s] = np.minimum(g, levels)
    order = rng.permutation(len(grade))
    items = list(grade.items())
    return MultiFilteredComplex(
        2, tuple((items[i][0], tuple(float(x) for x in items[i][1])) for i in order)
    )


def _reversed_faces_clique(rng, n_vertices):
    """Every simplex up to dimension 3 on n_vertices >= 5 but those of dimension >= 2 on
    the edge (0, 1), and the tetrahedron (1, 2, 3, 4): degrees 1 and 2 have a class that
    never dies. The first grade coordinate falls with the table index among the vertices
    and among the edges; the second ties often. A triangle or a tetrahedron enters at the
    max of its faces plus 0 or 1 per coordinate."""
    grade = {(i,): (float(2 * (n_vertices - i)), float(i % 2)) for i in range(n_vertices)}
    edges = list(combinations(range(n_vertices), 2))
    for e, s in enumerate(edges):
        grade[s] = (float(2 * (n_vertices + len(edges) - e)), float(2 + e % 3))
    for k in (3, 4):
        for s in combinations(range(n_vertices), k):
            if s[:2] != (0, 1) and s != (1, 2, 3, 4):
                g = np.max([grade[s[:i] + s[i + 1 :]] for i in range(k)], axis=0) + rng.integers(0, 2, size=2)
                grade[s] = tuple(map(float, g))
    return MultiFilteredComplex(2, tuple(grade.items()))


def _tie_heavy_lines(offsets):
    directions = ((1, 1), (1, 0.5), (0.5, 1), (1, 0.25))
    return [canonicalize_line(m, b) for m in directions for b in offsets]


class TestLineBarcodes:
    """line_barcodes equals the oracle's scalar barcode of each line's pushes, bit for bit."""

    @staticmethod
    def _check(M, lines, degrees):
        for d in degrees:
            got = line_barcodes(M, lines, d)
            assert all(iv.degree == d for b in got for iv in b)
            want = [scalar_barcode([(s, push_to_line(g, L)) for s, g in M.simplices], d) for L in lines]
            assert [[(iv.birth, iv.death) for iv in b] for b in got] == want
            # equal floats may still differ in sign (0.0 == -0.0), which JSON shows
            bits = [[(float(x).hex(), float(y).hex()) for x, y in b] for b in want]
            assert [[(iv.birth.hex(), iv.death.hex()) for iv in b] for b in got] == bits

    def test_generator_complexes_every_degree(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            M = random_bifiltered_complex(rng)
            lines = [random_canonical_line(rng) for _ in range(10)]
            lines += sample_lines(LineGrid(4, 3), M.bounding_box())
            self._check(M, lines, range(_max_dim(M) + 2))

    def test_shift_and_perturb_pairs(self):
        rng = np.random.default_rng(67)
        for k in range(20):
            M = random_bifiltered_complex(rng, max_vertices=6, max_simplices=16)
            eps = float(rng.uniform(0, 1))
            pair = shift_pair(M, eps) if k % 2 else perturb_grades(M, eps, seed=k)
            lines = sample_lines(LineGrid(8, 4), default_offset_box(pair.M, pair.N))
            for X in (pair.M, pair.N):
                self._check(X, lines, range(_max_dim(X) + 1))

    def test_tie_heavy_integer_grades(self):
        rng = np.random.default_rng(71)
        offsets = [(0, 0), (1, -1), (-1, 1), (2, -2), (0.5, -0.5)]
        lines = _tie_heavy_lines(offsets)
        for n_vertices, top_dim in ((4, 3), (5, 2), (6, 2), (7, 1)):
            for _ in range(3):
                M = _clique_complex(rng, n_vertices, top_dim, levels=3)
                self._check(M, lines, range(top_dim + 1))

    def test_signed_zero_grades(self):
        M = parse_bifiltration(SIGNED_ZERO)
        self._check(M, _tie_heavy_lines([(0, 0), (-0.0, 0.0)]), (0, 1))

    def test_more_lines_than_one_block(self, monkeypatch):
        # a budget of 128 lines at 16 kept simplices or fewer: these lines cross two block boundaries
        monkeypatch.setattr(persline.homology, "_BLOCK_ENTRIES", 128 * 16)
        rng = np.random.default_rng(73)
        M = _clique_complex(rng, 5, 2, levels=4)
        lines = [random_canonical_line(rng) for _ in range(2 * 128 + 7)]
        self._check(M, lines, (0, 1))

    def test_pairing_cache_keys_both_dimensions(self):
        # both lines order the vertices alike and the two edges apart: the edge that comes
        # first kills vertex 2, and vertex 1 dies at the other, so the pairings differ
        M = parse_bifiltration("bifiltration 2\n0 0 ; 0 0\n0 1 ; 1 1\n0 2 ; 2 2\n"
                               "1 0 2 ; 5 2\n1 1 2 ; 2 5\n")
        self._check(M, [canonicalize_line((1, 0.2), (0, 0)), canonicalize_line((0.2, 1), (0, 0))], (0,))

    def test_faces_enter_in_reverse_table_order(self):
        # the reduction's row for a (d - 1)-face is its table index: along most of these
        # lines the vertices and the edges enter in the reverse of that order
        rng = np.random.default_rng(83)
        for _ in range(3):
            M = _reversed_faces_clique(rng, 5)
            lines = _tie_heavy_lines([(0, 0), (1, -1), (-1, 1), (3, -3), (-3, 3)])
            lines += [canonicalize_line((1, w), (0, 0)) for w in (0.01, 0.1, 0.3)]
            self._check(M, lines, (1, 2))
            grades = [g for _, g in M.simplices]
            for _ in range(8):
                u, w = (grades[i] for i in rng.integers(0, len(grades), size=2))
                TestRankInvariant._check_image_rank(M, u, tuple(map(max, u, w)), (1, 2))

    def test_degree_above_dimension_and_negative(self):
        M = parse_bifiltration(TWO_VERTEX_EDGE)
        rng = np.random.default_rng(79)
        lines = [random_canonical_line(rng) for _ in range(3)]
        assert line_barcodes(M, lines, 2) == [(), (), ()]
        with pytest.raises(ValueError):
            line_barcodes(M, lines, -1)

    def test_line_dimension_mismatch(self):
        M = parse_bifiltration(TWO_VERTEX_EDGE)
        L3 = canonicalize_line((1, 1, 1), (0, 0, 0))
        with pytest.raises(ValueError, match="dimension"):
            line_barcodes(M, [L3], 0)


def _split_rows(values, finite):
    """Each row of an engine block in the bottleneck's split form, by :func:`_split` of its
    (birth, death, degree) rows: sorted essential births and finite pairs, zero-length ones dropped."""
    for row in values.tolist():
        pairs = zip(row[:finite], row[finite : 2 * finite])
        rows = [(b, d, 0) for b, d in pairs] + [(b, math.inf, 0) for b in row[2 * finite :]]
        yield (_split(rows, ()) or [([], [], [], [])])[0][:2]


def _bits(x):
    """Floats as hex, so that 0.0 and -0.0 differ, inside nested lists and tuples."""
    return x.hex() if isinstance(x, float) else [_bits(y) for y in x]


class TestLineDistancesHandOff:
    """The engine's rows in the bottleneck's split form are line_barcodes' barcodes,
    and line_distances gives m_star * bottleneck_distance of them, bit for bit."""

    @staticmethod
    def _check(M, N, lines, degrees):
        for d in degrees:
            bars_m, bars_n = line_barcodes(M, lines, d), line_barcodes(N, lines, d)
            for X, bars in ((M, bars_m), (N, bars_n)):
                blocks = _line_values(X, *_line_arrays(lines, X.dim), d)
                split = [s for block in blocks for s in _split_rows(*block)]
                # a line barcode has one degree: at most one entry, B's half empty
                want = [(_split(b, ()) or [([], [], [], [])])[0][:2] for b in bars]
                assert _bits(split) == _bits(want)
            got = line_distances(M, N, lines, d)
            want = [L.m_star * bottleneck_distance(a, b) for L, a, b in zip(lines, bars_m, bars_n)]
            assert got == want
            assert [math.copysign(1.0, x) for x in got] == [math.copysign(1.0, x) for x in want]

    def test_generator_complexes_every_degree(self):
        rng = np.random.default_rng(83)
        for _ in range(30):
            M, N = random_bifiltered_complex(rng), random_bifiltered_complex(rng)
            lines = [random_canonical_line(rng) for _ in range(10)]
            lines += sample_lines(LineGrid(4, 3), default_offset_box(M, N))
            self._check(M, N, lines, range(max(_max_dim(M), _max_dim(N)) + 2))

    def test_shift_and_perturb_pairs(self):
        rng = np.random.default_rng(89)
        for k in range(12):
            M = random_bifiltered_complex(rng, max_vertices=6, max_simplices=16)
            eps = float(rng.uniform(0, 1))
            pair = shift_pair(M, eps) if k % 2 else perturb_grades(M, eps, seed=k)
            lines = sample_lines(LineGrid(8, 4), default_offset_box(pair.M, pair.N))
            self._check(pair.M, pair.N, lines, range(_max_dim(M) + 1))

    def test_tie_heavy_integer_grades(self):
        rng = np.random.default_rng(97)
        lines = _tie_heavy_lines([(0, 0), (1, -1), (-1, 1), (0.5, -0.5)])
        for n_vertices, top_dim in ((4, 3), (5, 2), (7, 1)):
            for _ in range(2):
                M = _clique_complex(rng, n_vertices, top_dim, levels=3)
                N = _clique_complex(rng, n_vertices, top_dim, levels=3)
                self._check(M, N, lines, range(top_dim + 1))

    def test_signed_zero_grades(self):
        M = parse_bifiltration(SIGNED_ZERO)
        N = parse_bifiltration(SIGNED_ZERO.replace("-0.0", "X").replace("0.0", "-0.0").replace("X", "0.0"))
        self._check(M, N, _tie_heavy_lines([(0, 0), (-0.0, 0.0)]), (0, 1))
        self._check(M, M, _tie_heavy_lines([(0, 0), (-0.0, 0.0)]), (0, 1))

    def test_zero_length_intervals_dropped(self):
        # the edge enters with both vertices: the class it kills has length 0
        M = parse_bifiltration("bifiltration 2\n0 0 ; 0 0\n0 1 ; 0 0\n1 0 1 ; 0 0\n")
        N = parse_bifiltration(TWO_VERTEX_EDGE)
        L = canonicalize_line((1, 1), (0, 0))
        assert list(_split_rows(*next(_line_values(M, *_line_arrays([L], 2), 0)))) == [([0.0], [])]
        self._check(M, N, [L], (0,))

    def test_differing_essential_counts_are_infinite(self):
        M = parse_bifiltration("bifiltration 2\n0 0 ; 0 0\n")
        N = parse_bifiltration("bifiltration 2\n0 0 ; 0 0\n0 1 ; 0.5 0.5\n")
        lines = _tie_heavy_lines([(0, 0), (1, -1)])
        assert line_distances(M, N, lines, 0) == [math.inf] * len(lines)
        self._check(M, N, lines, (0,))

    def test_builds_no_interval(self, monkeypatch):
        def no_interval(*args):
            raise AssertionError("an Interval was built")

        rng = np.random.default_rng(101)
        M, N = random_bifiltered_complex(rng), random_bifiltered_complex(rng)
        lines = sample_lines(LineGrid(4, 3), default_offset_box(M, N))
        want = line_distances(M, N, lines, 0)
        monkeypatch.setattr(persline.homology, "Interval", no_interval)
        assert line_distances(M, N, lines, 0) == want
        with pytest.raises(AssertionError, match="Interval"):
            line_barcodes(M, lines, 0)


def _unpruned(M):
    """A copy of M whose homology reads every simplex of dimension <= degree + 1."""
    X = MultiFilteredComplex(M.dim, M.simplices)
    for d in range(_max_dim(M) + 3):
        faces = [tuple(f) for B in X.boundary[: d + 2] for f in B.tolist()]
        X._relation_cache[d] = np.arange(X.skeleton(d)), faces
    return X


def _holed_clique_complex(rng, n_vertices, top_dim, holes):
    """Up to dimension top_dim on n_vertices; once its faces are in, a simplex is left out
    with probability ``holes``. A vertex is graded in {-2..2}^2 and a simplex at the max of
    its faces plus 0 or 1 per coordinate, so grades tie often; a 0 is -0.0 or 0.0."""
    grade = {}
    for k in range(1, top_dim + 2):
        for s in combinations(range(n_vertices), k):
            faces = [s[:i] + s[i + 1 :] for i in range(k)] if k > 1 else []
            if not all(f in grade for f in faces) or (faces and rng.random() < holes):
                continue
            g = np.max([grade[f] for f in faces], axis=0) + rng.integers(0, 2, size=2) if faces \
                else rng.integers(-2, 3, size=2)
            grade[s] = tuple(-0.0 if x == 0 and rng.random() < 0.5 else float(x) for x in g)
    return MultiFilteredComplex(2, tuple(grade.items()))


def _same_grade_clique_complex(rng, n_vertices, top_dim, signed):
    """Every simplex up to dimension top_dim on n_vertices. A vertex is graded in {-1, 0, 1}^2
    and a simplex at the max of its faces, raised by 0 or 1 per coordinate one time in four, so
    most simplices have a facet of their grade. With ``signed`` a 0 is -0.0 or 0.0, else 0.0."""
    grade = {}
    for k in range(1, top_dim + 2):
        for s in combinations(range(n_vertices), k):
            if k == 1:
                g = rng.integers(-1, 2, size=2)
            else:
                g = np.max([grade[s[:i] + s[i + 1 :]] for i in range(k)], axis=0)
                if rng.random() < 0.25:
                    g = g + rng.integers(0, 2, size=2)
            grade[s] = tuple(-0.0 if x == 0 and signed and rng.random() < 0.5 else float(x) for x in g)
    return MultiFilteredComplex(2, tuple(grade.items()))


def _pushed_blocks(monkeypatch) -> list[tuple[int, int]]:
    """The (lines, kept simplices) shape of every block that the line engine pushes from now on."""
    shapes, value_pairs = [], persline.homology._value_pairs
    monkeypatch.setattr(persline.homology, "_value_pairs", lambda M, blocks, degree: value_pairs(
        M, (shapes.append(P.shape) or P for P in blocks), degree))
    return shapes


class TestLineBlocks:
    """A block holds _BLOCK_ENTRIES push entries (lines x kept simplices, at least 16 kept), one
    line at least; M's and N's blocks have one size, set by the larger. No value depends on it."""

    @staticmethod
    def _small_and_large():
        # kept in degree 1: 3 of M's and 52 of N's simplices; the kept counts differ by over 10x
        M = parse_bifiltration(TWO_VERTEX_EDGE)
        N = _clique_complex(np.random.default_rng(1), 10, 2, levels=6)
        kept = [len(X._relations(1)[0]) for X in (M, N)]
        assert 10 * kept[0] <= kept[1] and kept[1] > 16
        return M, N, kept[1]

    def test_lockstep_blocks_are_sized_by_the_larger_complex(self, monkeypatch):
        M, N, most = self._small_and_large()
        shapes = _pushed_blocks(monkeypatch)
        for X, Y in ((M, N), (N, M)):
            shapes.clear()
            k = len(matching_distance_lb(X, Y, LineGrid(16, 8), 1).distances)
            size = persline.homology._BLOCK_ENTRIES // most
            rows = [min(size, k - s) for s in range(0, k, size)]
            assert len(rows) > 1
            assert [r for r, _ in shapes] == [r for r in rows for _ in (X, Y)]  # X's then Y's, in turn

    def test_small_complexes_push_each_complex_in_one_block(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "M.bif"  # nine simplices: a filled triangle, an edge and a vertex
        path.write_text("bifiltration 2\n0 0 ; 0 0\n0 1 ; 1 0\n0 2 ; 0 1\n0 3 ; 2 2\n1 0 1 ; 1 1\n"
                        "1 0 2 ; 1 2\n1 1 2 ; 2 1\n1 0 3 ; 3 2\n2 0 1 2 ; 2 2\n")
        shapes = _pushed_blocks(monkeypatch)
        argv = ["verify-external", "--input", str(path), "--construction", "perturb", "--epsilon", "0.1",
                "--seed", "0", "--grid", "16x8"]
        assert run(argv) == 0
        lines = len(json.loads(capsys.readouterr().out)["entries"])
        assert lines > 128 and [r for r, _ in shapes] == [lines, lines]

    def test_one_line_blocks_change_nothing(self, monkeypatch, tmp_path, capsys):
        M, N, _ = self._small_and_large()
        rng = np.random.default_rng(5)
        lines = [random_canonical_line(rng) for _ in range(9)] + sample_lines(
            LineGrid(4, 3), default_offset_box(M, N))
        paths = [str(tmp_path / name) for name in ("M.bif", "N.bif")]
        for p, X in zip(paths, (M, N)):
            Path(p).write_text(serialize_bifiltration(X))

        def outputs():
            out = []
            for d in (0, 1):
                out += [_bits([[iv[:2] for iv in b] for b in line_barcodes(X, lines, d)]) for X in (M, N)]
                out += [_bits(line_distances(X, Y, lines, d)) for X, Y in ((M, N), (N, M))]
                r = verify_internal_stability(N, lines[0], lines[1], d)
                out.append(_bits([r.bound, *r.lhs]))
                run(["matchdist", "--input", *paths, "--grid", "4x3", "--degree", str(d)])
                out.append(capsys.readouterr().out)
            return out

        want = outputs()
        monkeypatch.setattr(persline.homology, "_BLOCK_ENTRIES", 1)
        shapes = _pushed_blocks(monkeypatch)
        assert outputs() == want
        assert {r for r, _ in shapes} == {1, 2}  # 2: verify_internal_stability's pair, one block


_rngs, _holes = st.integers(0, 2**32 - 1).map(np.random.default_rng), st.sampled_from([0.0, 0.1, 0.25])
_shapes = pytest.mark.parametrize("n_vertices, top_dim", [(3, 1), (4, 3), (5, 3), (6, 3), (6, 2), (8, 1)])
_pruning = settings(max_examples=40, deadline=None, database=None, derandomize=True)


class TestPrunedRelations:
    """Dropping relations that are sums of earlier ones changes no line barcode (bit for
    bit, as float hex), no rank and no line distance."""

    @staticmethod
    def _check(M, lines, degrees, queries=()):
        X = _unpruned(M)
        for d in degrees:
            got, want = line_barcodes(M, lines, d), line_barcodes(X, lines, d)
            assert [[(iv.birth.hex(), iv.death.hex()) for iv in b] for b in got] == [
                [(iv.birth.hex(), iv.death.hex()) for iv in b] for b in want]
            for u, v in queries:
                q = RankQuery(u, v, d)
                assert rank_invariant(M, q) == rank_invariant(X, q)

    @_shapes
    @_pruning
    @given(_rngs, _holes, st.lists(st.tuples(*[st.integers(-2, 4)] * 4), max_size=4))
    def test_tie_heavy_complexes(self, n_vertices, top_dim, rng, holes, corners):
        M = _holed_clique_complex(rng, n_vertices, top_dim, holes)
        lines = _tie_heavy_lines([(0, 0), (1, -1), (-1, 1), (0.5, -0.5), (-2, 2)])
        lines += sample_lines(LineGrid(4, 3), M.bounding_box())
        queries = [((a, b), (max(a, c), max(b, e))) for a, b, c, e in corners]
        self._check(M, lines, range(4), queries)

    @_pruning
    @given(st.integers(0, 2**32 - 1))
    def test_generator_complexes(self, seed):
        rng = np.random.default_rng(seed)
        M = random_bifiltered_complex(rng, max_vertices=6, max_simplices=20)
        lines = [random_canonical_line(rng) for _ in range(6)]
        lines += sample_lines(LineGrid(4, 3), M.bounding_box())
        u = tuple(rng.uniform(0, 1.5, size=2))
        self._check(M, lines, range(3), [(u, tuple(x + rng.uniform(0, 1) for x in u))])

    @_shapes
    @_pruning
    @given(_rngs, _holes, st.floats(0, 2), st.integers(0, 2**16))
    def test_shift_and_perturb_pairs(self, n_vertices, top_dim, rng, holes, eps, seed):
        M = _holed_clique_complex(rng, n_vertices, top_dim, holes)
        for pair in (shift_pair(M, eps), perturb_grades(M, eps, seed=seed)):
            lines = sample_lines(LineGrid(8, 4), default_offset_box(pair.M, pair.N))
            for X in (pair.M, pair.N):
                self._check(X, lines, range(_max_dim(X) + 1))
            for d in range(_max_dim(M) + 1):
                got = line_distances(pair.M, pair.N, lines, d)
                assert _bits(got) == _bits(line_distances(_unpruned(pair.M), _unpruned(pair.N), lines, d))

    @_shapes
    @_pruning
    @given(_rngs, st.booleans())
    def test_same_grade_clique_complexes(self, n_vertices, top_dim, rng, signed):
        M, N = (_same_grade_clique_complex(rng, n_vertices, top_dim, signed) for _ in range(2))
        lines = _tie_heavy_lines([(0, 0), (1, -1), (-1, 1), (-0.0, 0.0)])
        lines += sample_lines(LineGrid(4, 3), default_offset_box(M, N))
        queries = [((a, b), (max(a, c), max(b, e))) for a, b, c, e in rng.integers(-1, 3, size=(3, 4)).tolist()]
        for X in (M, N):
            self._check(X, lines, range(top_dim + 2), queries)
        for d in range(top_dim + 1):
            got = line_distances(M, N, lines, d)
            assert _bits(got) == _bits(line_distances(_unpruned(M), _unpruned(N), lines, d))

    def test_same_grade_pairs_go_on_these_complexes(self):
        # the complexes above without -0.0 lose most of what the cone test keeps in the top
        # dimensions, so the comparison there is not vacuous; and the one pass leaves no kept
        # (d + 1)-simplex with a face of its own grade, bit for bit (a fixed point)
        rng = np.random.default_rng(5)
        cone = kept = 0
        for n_vertices, top_dim in ((4, 3), (5, 3), (6, 2), (8, 1)):
            for _ in range(5):
                M = _same_grade_clique_complex(rng, n_vertices, top_dim, signed=False)
                bits = M.grade_array.view(np.uint64)
                for d in range(top_dim):
                    lo = M.skeleton(d - 2)
                    cone += (M._cone(d) >= lo).sum()
                    keep, faces = M._relations(d)
                    kept += (keep >= lo).sum()
                    for i, local in zip(keep.tolist(), faces):
                        if i >= M.skeleton(d - 1):  # its faces index keep
                            assert not (bits[keep[list(local)]] == bits[i]).all(axis=1).any()
        assert kept < 0.5 * cone

    def test_cone_blocks_keep_what_one_block_keeps(self, monkeypatch):
        # the candidates made CONE_BLOCK taus at a time: the same keep for every block size
        rng = np.random.default_rng(23)
        complexes = [_holed_clique_complex(rng, n, top, 0.1) for n, top in ((6, 3), (7, 2), (9, 1))]
        complexes += [_same_grade_clique_complex(rng, n, top, signed) for n, top in ((6, 3), (8, 2))
                      for signed in (False, True)]
        monkeypatch.setattr(persline.complexes, "CONE_BLOCK", 10**9)
        whole = [[M._cone(d) for d in range(3)] for M in complexes]
        dropped = sum(M.skeleton(d) - len(keep) for M, keeps in zip(complexes, whole)
                      for d, keep in enumerate(keeps))
        assert dropped > 100  # not vacuous
        for block in (1, 2, 5, 64):
            monkeypatch.setattr(persline.complexes, "CONE_BLOCK", block)
            for M, keeps in zip(complexes, whole):
                for d, keep in enumerate(keeps):
                    assert np.array_equal(M._cone(d), keep)

    def test_equal_grade_tetrahedron_boundary(self):
        # each triangle's boundary is the sum of the other three's: the cone test drops only the
        # last in table order; each triangle left then pairs with an edge of its grade, (0, 1, 2)
        # with (0, 1), and the others, summed with the paired ones, with (0, 2) and (1, 2)
        M = parse_bifiltration("bifiltration 2\n" + "".join(
            f"{len(s) - 1} {' '.join(map(str, s))} ; 0 0\n"
            for k in (1, 2, 3) for s in combinations(range(4), k)))
        assert [M.table[i] for i in M._cone(1) if len(M.table[i]) == 3] == [(0, 1, 2), (0, 1, 3), (0, 2, 3)]
        keep, boundary = M._relations(1)
        assert [M.table[i] for i in keep] == [(0,), (1,), (2,), (3,), (0, 3), (1, 3), (2, 3)]
        assert boundary == [(), (), (), (), (3, 0), (3, 1), (3, 2)]
        assert rank_invariant(M, RankQuery((0, 0), (0, 0), 1)) == 0
        assert rank_invariant(M, RankQuery((0, 0), (0, 0), 2)) == 1
        self._check(M, _tie_heavy_lines([(0, 0), (1, -1)]), (0, 1, 2), [((0, 0), (0, 0))])

    def test_signed_zero_death_keeps_its_sign(self):
        # (0, 1) is the sum of (0, 2) and (1, 2), graded below it, but on the line (1, 1) + (0, 0)
        # it pushes to 0.0 and they to -0.0; it comes first in table order and kills the class
        M = parse_bifiltration("bifiltration 2\n0 0 ; -1 -1\n0 1 ; -1 -1\n0 2 ; -0.0 -1\n"
                               "1 0 1 ; 0.0 -0.5\n1 0 2 ; -0.0 -1\n1 1 2 ; -0.0 -1\n")
        L = canonicalize_line((1, 1), (0, 0))
        assert [(iv.birth, iv.death.hex()) for iv in line_barcodes(M, [L], 0)[0]] == [
            (-1.0, "0x0.0p+0"), (-1.0, "inf")]
        self._check(M, [L], (0, 1))

    def test_signed_zero_birth_keeps_its_sign(self):
        # the edge (0, 2) has vertex 0's grade, but on the line (1, 1) + (-0.0, 0.0) vertex 0 pushes
        # to 0.0 and vertex 2 to -0.0, and the edge kills vertex 2, the later face: pairing the edge
        # with vertex 0 would leave vertex 2 essential, born at -0.0 instead of 0.0
        text = "bifiltration 2\n0 0 ; -0.0 -0.0\n0 1 ; 0.0 -1\n0 2 ; -1 -0.0\n1 0 2 ; -0.0 -0.0\n"
        M = parse_bifiltration(text)
        L = canonicalize_line((1, 1), (-0.0, 0.0))
        assert [(iv.birth.hex(), iv.death) for iv in line_barcodes(M, [L], 0)[0]] == [("0x0.0p+0", math.inf)] * 2
        self._check(M, [L] + _tie_heavy_lines([(0, 0), (-0.0, 0.0)]), (0, 1))
        # with 0.0 for -0.0 the pair goes: the sign alone keeps it
        assert len(parse_bifiltration(text.replace("-0.0", "0.0"))._relations(0)[0]) == 2
