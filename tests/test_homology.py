import math
from itertools import combinations

import numpy as np
import pytest

from persline import (
    Interval,
    LineGrid,
    MultiFilteredComplex,
    RankQuery,
    ScalarFiltration,
    barcode_from_json,
    barcode_to_json,
    betti_at,
    canonicalize_line,
    compute_barcode,
    default_offset_box,
    line_barcodes,
    order_simplices,
    parse_bifiltration,
    perturb_grades,
    rank_invariant,
    restrict,
    sample_lines,
    shift_pair,
)
from persline.homology import LINE_BLOCK
from generators import random_bifiltered_complex, random_canonical_line, random_scalar_filtration
from oracles import homology_dim, induced_rank, scalar_rank

TWO_VERTEX_EDGE = "bifiltration 2\n0 0 ; 0 0\n0 1 ; 0 0\n1 0 1 ; 1 1\n"


class TestOrdering:
    def test_vertices_before_edge(self):
        F = ScalarFiltration((((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0)))
        assert [s for s, _ in order_simplices(F)] == [(0,), (1,), (0, 1)]

    def test_entry_value_order(self):
        F = ScalarFiltration((((1,), 1.0), ((0,), 0.0)))
        assert [s for s, _ in order_simplices(F)] == [(0,), (1,)]

    def test_ties_broken_by_dim_then_lex(self):
        F = ScalarFiltration(
            (((2,), 0.0), ((0,), 0.0), ((1,), 0.0), ((0, 2), 1.0), ((0, 1), 1.0))
        )
        assert [s for s, _ in order_simplices(F)] == [(0,), (1,), (2,), (0, 1), (0, 2)]

    def test_faces_precede_cofaces(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            F = random_scalar_filtration(rng)
            seen = set()
            for s, _ in order_simplices(F):
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
                if degree > F.max_dim():
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
                if degree > F.max_dim():
                    continue
                assert compute_barcode(F, degree) == compute_barcode(permuted, degree)


class TestBettiAt:
    def test_single_vertex(self):
        M = parse_bifiltration("bifiltration 2\n0 0 ; 0 0")
        assert betti_at(M, (0.0, 0.0), 0) == 1

    def test_before_edge_two_components(self):
        M = parse_bifiltration(TWO_VERTEX_EDGE)
        assert betti_at(M, (0.0, 0.0), 0) == 2

    def test_after_edge_one_component(self):
        M = parse_bifiltration(TWO_VERTEX_EDGE)
        assert betti_at(M, (1.0, 1.0), 0) == 1

    def test_matches_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            M = random_bifiltered_complex(rng)
            u = tuple(rng.uniform(0, 2, size=2))
            for degree in (0, 1):
                sub = [s for s, g in M.simplices if all(a <= b for a, b in zip(g, u))]
                assert betti_at(M, u, degree) == homology_dim(sub, degree)


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
            for degree in (0, 1):
                assert rank_invariant(M, RankQuery(u, u, degree)) == betti_at(M, u, degree)

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
            bars = compute_barcode(restrict(M, L), 0)
            count = sum(1 for iv in bars if iv.birth <= s and iv.death > t)
            assert rank_invariant(M, RankQuery(u, v, 0)) == count


class TestBarcodeJson:
    def test_round_trip(self):
        bars = (Interval(0.0, 1.0, 0), Interval(0.5, math.inf, 1))
        assert barcode_from_json(barcode_to_json(bars)) == bars

    def test_sorted_output(self):
        bars = (Interval(1.0, math.inf, 1), Interval(0.0, 2.0, 0), Interval(0.0, 1.0, 0))
        text = barcode_to_json(bars)
        assert text == (
            '[{"degree": 0, "birth": 0.0, "death": 1.0},'
            ' {"degree": 0, "birth": 0.0, "death": 2.0},'
            ' {"degree": 1, "birth": 1.0, "death": null}]'
        )


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


def _tie_heavy_lines(offsets):
    directions = ((1, 1), (1, 0.5), (0.5, 1), (1, 0.25))
    return [canonicalize_line(m, b) for m in directions for b in offsets]


class TestLineBarcodes:
    """line_barcodes equals compute_barcode(restrict(M, L), d) line by line, bit for bit."""

    @staticmethod
    def _check(M, lines, degrees):
        for d in degrees:
            got = line_barcodes(M, lines, d)
            want = [compute_barcode(restrict(M, L), d) for L in lines]
            assert got == want
            # equal floats may still differ in sign (0.0 == -0.0), which JSON shows
            bits = [[(float(iv.birth).hex(), float(iv.death).hex()) for iv in b] for b in want]
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
        M = parse_bifiltration(
            "bifiltration 2\n0 0 ; -0.0 0.0\n0 1 ; 0.0 -0.0\n0 2 ; -0.0 -0.0\n"
            "1 0 1 ; 0.0 0.5\n1 0 2 ; -0.0 0.25\n1 1 2 ; 0.5 -0.0\n"
        )
        self._check(M, _tie_heavy_lines([(0, 0), (-0.0, 0.0)]), (0, 1))

    def test_more_lines_than_one_block(self):
        rng = np.random.default_rng(73)
        M = _clique_complex(rng, 5, 2, levels=4)
        lines = [random_canonical_line(rng) for _ in range(2 * LINE_BLOCK + 7)]
        self._check(M, lines, (0, 1))

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
