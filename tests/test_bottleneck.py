import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persline import Interval, bottleneck_distance, diagonal_cost, interval_cost
from persline.bottleneck import feasible
from generators import random_barcode
from oracles import brute_force_bottleneck

INF = math.inf

# Endpoints on a quarter grid make pair costs tie with deletion costs (the
# edge-pruning boundary) and keep every sum exact.
_quarter = st.integers(0, 8).map(lambda k: k / 4)
_interval = st.builds(
    lambda birth, length, essential: Interval(birth, INF if essential else birth + length, 0),
    _quarter, _quarter, st.integers(0, 3).map(lambda k: k == 0),
)
_barcodes = st.lists(_interval, max_size=6).map(tuple)
_property = settings(max_examples=200, deadline=None, database=None, derandomize=True)


class TestCosts:
    def test_identical_intervals(self):
        assert interval_cost(Interval(0, 1, 0), Interval(0, 1, 0)) == 0

    def test_sup_norm_gap(self):
        assert interval_cost(Interval(0, 1, 0), Interval(0.5, 1.5, 0)) == 0.5

    def test_essential_pair_matches_at_birth_gap(self):
        assert interval_cost(Interval(0, INF, 0), Interval(1, INF, 0)) == 1

    def test_mixed_essential_finite_is_infinite(self):
        assert interval_cost(Interval(0, INF, 0), Interval(0, 1, 0)) == INF

    def test_diagonal_half_length(self):
        assert diagonal_cost(Interval(0, 1, 0)) == 0.5
        assert diagonal_cost(Interval(2, 2.2, 0)) == pytest.approx(0.1)

    def test_diagonal_essential_infinite(self):
        assert diagonal_cost(Interval(0, INF, 0)) == INF


class TestFeasible:
    def test_delete_single_interval(self):
        assert feasible((Interval(0, 1, 0),), (), 0.5)

    def test_delete_too_expensive(self):
        assert not feasible((Interval(0, 1, 0),), (), 0.4)

    def test_essential_pair(self):
        assert feasible((Interval(0, INF, 0),), (Interval(1, INF, 0),), 1.0)

    def test_essential_cannot_be_deleted(self):
        assert not feasible((Interval(0, INF, 0),), (), 100.0)


class TestBottleneckDistance:
    def test_identity(self):
        bars = (Interval(0, 1, 0), Interval(0.5, INF, 0))
        assert bottleneck_distance(bars, bars) == 0

    def test_delete_to_diagonal(self):
        assert bottleneck_distance((Interval(0, 1, 0),), ()) == 0.5

    def test_essential_and_deletion_mix(self):
        A = (Interval(0, INF, 0), Interval(0, 1, 0))
        B = (Interval(0.5, INF, 0),)
        assert bottleneck_distance(A, B) == 0.5

    def test_differing_essential_counts_diverge(self):
        assert bottleneck_distance((Interval(0, INF, 0),), ()) == INF
        A = (Interval(0, INF, 0), Interval(1, INF, 0))
        B = (Interval(0, INF, 0),)
        assert bottleneck_distance(A, B) == INF

    def test_empty_barcodes(self):
        assert bottleneck_distance((), ()) == 0

    def test_optimum_above_the_lower_bound(self):
        # Every interval's cheapest option costs at most 0.75 (a1-b1), so that
        # is the lower bound, but a1 and a2 both need b1 there. The optimum
        # is the pair cost a2-b2 = 1.0, inside the candidates 0.875 to 1.5.
        A = (Interval(1.0, 4.0, 0), Interval(1.25, 3.75, 0))
        B = (Interval(1.75, 3.5, 0), Interval(2.25, 3.75, 0))
        assert not feasible(A, B, 0.75)
        assert bottleneck_distance(A, B) == bottleneck_distance(B, A) == 1.0

    def test_lower_bound_infeasible_on_b_side_only(self):
        # At the lower bound 1.0 the one interval of A longer than 2.0 can be
        # covered, but all three of B's are longer and all need A's first one.
        A = (Interval(2.25, 5.0, 0), Interval(2.75, 3.5, 0))
        B = (Interval(2.0, 4.75, 0), Interval(3.0, 5.25, 0), Interval(3.0, 6.0, 0))
        assert not feasible(A, B, 1.0)
        assert bottleneck_distance(A, B) == 1.25
        assert brute_force_bottleneck(A, B) == 1.25

    # Search-phase cases: the lower bound (each interval's cheaper of deletion
    # and nearest partner) fails, so the deletion costs above it are searched
    # for a bracket (lo, hi], then the pair costs strictly inside it.
    @pytest.mark.parametrize("A, B, lower, expected", [
        # a1 and a2 both need b1 at 0.75; at the deletion cost 0.875 a2 is
        # deleted, so the optimum is hi itself
        ([(2.5, 5.25), (2.75, 4.5)], [(2.75, 4.5)], 0.75, 0.875),
        # bracket (0.875, 1.375]: the pair a1-b1 costs 1.25, listed from a1
        # (diag 1.375); b1's diag is 0.625
        ([(0.75, 3.5), (1.0, 3.75)], [(1.0, 2.25), (1.5, 3.25)], 0.75, 1.25),
        # bracket (0.875, 1.125]: the pair a2-b2 costs 1.0, listed only from b2
        # (diag 1.375), since a2's diag is 0.375
        ([(1.75, 3.5), (2.5, 3.25)], [(1.25, 3.5), (1.5, 4.25)], 0.75, 1.0),
    ], ids=["deletion-cost", "pair-from-a", "pair-from-b-only"])
    def test_search_above_an_infeasible_lower_bound(self, A, B, lower, expected):
        A = tuple(Interval(b, d, 0) for b, d in A)
        B = tuple(Interval(b, d, 0) for b, d in B)
        assert not feasible(A, B, lower)
        assert feasible(A, B, expected)
        assert bottleneck_distance(A, B) == bottleneck_distance(B, A) == expected
        assert brute_force_bottleneck(A, B) == expected

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            A = random_barcode(rng)
            B = random_barcode(rng)
            expected = brute_force_bottleneck(A, B)
            got = bottleneck_distance(A, B)
            if math.isinf(expected):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(expected, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            A, B = random_barcode(rng), random_barcode(rng)
            assert bottleneck_distance(A, B) == bottleneck_distance(B, A)

    def test_self_distance_zero(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            A = random_barcode(rng)
            assert bottleneck_distance(A, A) == 0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            A, B, C = (random_barcode(rng) for _ in range(3))
            ab = bottleneck_distance(A, B)
            bc = bottleneck_distance(B, C)
            ac = bottleneck_distance(A, C)
            if math.isinf(ab) or math.isinf(bc):
                continue
            assert ac <= ab + bc + 1e-12

    def test_result_is_a_candidate(self):
        rng = np.random.default_rng(79)
        for _ in range(50):
            A, B = random_barcode(rng), random_barcode(rng)
            d = bottleneck_distance(A, B)
            if math.isinf(d):
                continue
            candidates = {0.0}
            for a in A:
                if not a.essential:
                    candidates.add(diagonal_cost(a))
                for b in B:
                    c = interval_cost(a, b)
                    if math.isfinite(c):
                        candidates.add(c)
            for b in B:
                if not b.essential:
                    candidates.add(diagonal_cost(b))
            assert any(abs(d - c) < 1e-15 for c in candidates)

    def test_perturbation_stability(self):
        rng = np.random.default_rng(83)
        for _ in range(30):
            A, B = random_barcode(rng), random_barcode(rng)
            d = bottleneck_distance(A, B)
            eps = float(rng.uniform(0, 0.2))
            shifted = tuple(
                Interval(
                    iv.birth + float(rng.uniform(-eps, eps)),
                    iv.death if iv.essential else iv.death + float(rng.uniform(-eps, eps)),
                    iv.degree,
                )
                for iv in A
            )
            d2 = bottleneck_distance(shifted, B)
            if math.isinf(d):
                assert math.isinf(d2)
            else:
                assert abs(d2 - d) <= eps + 1e-12


class TestBottleneckProperties:
    @_property
    @given(_barcodes, _barcodes)
    def test_equals_exhaustive_oracle(self, A, B):
        assert bottleneck_distance(A, B) == brute_force_bottleneck(A, B)

    @_property
    @given(_barcodes, _barcodes)
    def test_symmetry(self, A, B):
        assert bottleneck_distance(A, B) == bottleneck_distance(B, A)

    @_property
    @given(_barcodes, _barcodes, _barcodes)
    def test_triangle_inequality(self, A, B, C):
        ab, bc = bottleneck_distance(A, B), bottleneck_distance(B, C)
        if math.isfinite(ab) and math.isfinite(bc):
            assert bottleneck_distance(A, C) <= ab + bc

    @_property
    @given(_barcodes, _barcodes, _quarter)
    def test_feasible_exactly_from_the_distance(self, A, B, delta):
        assert feasible(A, B, delta) == (delta >= bottleneck_distance(A, B))


def _nearby_barcodes(rng, n):
    """A barcode of n intervals (two essential) and a perturbed copy with a
    tenth of the finite intervals replaced, as stability comparisons see."""
    births = np.round(rng.uniform(0, 10, size=n), 6)
    deaths = np.round(births + rng.exponential(1.0, size=n) + 1e-3, 6)
    A = tuple(Interval(float(b), INF if k < 2 else float(d), 0)
              for k, (b, d) in enumerate(zip(births, deaths)))
    B = []
    for iv in A:
        birth = iv.birth + float(rng.normal(0, 0.1))
        if iv.essential:
            B.append(Interval(birth, INF, 0))
        elif rng.random() < 0.9:
            B.append(Interval(birth, max(iv.death + float(rng.normal(0, 0.1)), birth + 1e-3), 0))
        else:
            b = float(rng.uniform(0, 10))
            B.append(Interval(b, b + float(rng.exponential(1.0)) + 1e-3, 0))
    return A, tuple(B)


def test_800_intervals_per_side_no_recursion_limit():
    rng = np.random.default_rng(800)
    A, B = _nearby_barcodes(rng, 800)
    d = bottleneck_distance(A, B)
    assert 0 < d < INF
    assert bottleneck_distance(B, A) == d
    shuffled_a, shuffled_b = list(A), list(B)
    rng.shuffle(shuffled_a)
    rng.shuffle(shuffled_b)
    assert bottleneck_distance(tuple(shuffled_a), tuple(shuffled_b)) == d


# float.hex of the distance, computed by the pair-listing implementation this
# one replaced. At seed 1 the lower bound is infeasible and the bracket search
# runs; at seed 2 the lower bound is the answer.
@pytest.mark.parametrize("seed, expected", [
    (1, "0x1.cf2d4bbef1f10p-1"),
    (2, "0x1.213571172f458p+0"),
])
def test_5000_intervals_per_side(seed, expected):
    rng = np.random.default_rng(seed)
    A, B = _nearby_barcodes(rng, 5000)
    assert bottleneck_distance(A, B).hex() == expected
    assert bottleneck_distance(B, A).hex() == expected
    shuffled_a, shuffled_b = list(A), list(B)
    rng.shuffle(shuffled_a)
    rng.shuffle(shuffled_b)
    assert bottleneck_distance(tuple(shuffled_b), tuple(shuffled_a)).hex() == expected
