import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persline import Interval, bottleneck_distance
import persline.bottleneck
from persline.bottleneck import (
    _BATCH_ENTRIES, _HALL_WIDTH, _arrays, _batched, _bisected, _block_distances, _bound, _covered, _covers,
    _finite_distance, _hall, _live, _matching_table, _pair_costs, _pass_distances, _split, _split_distance, _window,
)
from generators import random_barcode
from oracles import brute_force_bottleneck, coverable, delete_cost, pair_cost, strict_json, threshold_bottleneck

INF = math.inf

# Endpoints on a quarter grid make pair costs tie with deletion costs (the
# edge-pruning boundary) and keep every sum exact.
_quarter = st.integers(0, 8).map(lambda k: k / 4)
_interval = st.builds(
    lambda birth, length, essential: Interval(birth, INF if essential else birth + length, 0),
    _quarter, _quarter, st.integers(0, 3).map(lambda k: k == 0),
)
_barcodes = st.lists(_interval, max_size=6).map(tuple)
_graded_barcodes = st.lists(
    st.builds(lambda iv, degree: Interval(iv.birth, iv.death, degree), _interval, st.integers(0, 2)),
    max_size=6,
).map(tuple)
_property = settings(max_examples=200, deadline=None, database=None, derandomize=True)


class TestCosts:
    """The oracle's costs, which the matcher's distances are checked against."""

    def test_identical_intervals(self):
        assert pair_cost((0, 1), (0, 1)) == 0

    def test_sup_norm_gap(self):
        assert pair_cost((0, 1), (0.5, 1.5)) == 0.5

    def test_essential_pair_matches_at_birth_gap(self):
        assert pair_cost((0, INF), (1, INF)) == 1

    def test_mixed_essential_finite_is_infinite(self):
        assert pair_cost((0, INF), (0, 1)) == INF

    def test_diagonal_half_length(self):
        assert delete_cost((0, 1)) == 0.5
        assert delete_cost((2, 2.2)) == pytest.approx(0.1)

    def test_diagonal_essential_infinite(self):
        assert delete_cost((0, INF)) == INF


class TestFeasible:
    # a matching with every cost <= delta exists exactly when delta reaches the distance,
    # so each case puts its delta on one side of the library's and the oracle's distance

    def test_delete_single_interval(self):
        A = (Interval(0, 1, 0),)
        assert bottleneck_distance(A, ()) <= 0.5
        assert brute_force_bottleneck(A, ()) <= 0.5

    def test_delete_too_expensive(self):
        A = (Interval(0, 1, 0),)
        assert bottleneck_distance(A, ()) > 0.4
        assert brute_force_bottleneck(A, ()) > 0.4

    def test_essential_cannot_be_deleted(self):
        A = (Interval(0, INF, 0),)
        assert bottleneck_distance(A, ()) > 100.0
        assert bottleneck_distance((), A) > 100.0
        assert brute_force_bottleneck(A, ()) > 100.0

    def test_intervals_of_different_degrees_do_not_match(self):
        A, B = (Interval(0, 4, 0),), (Interval(0, 4, 1),)
        assert bottleneck_distance(A, A) <= 0.0
        assert not bottleneck_distance(A, B) <= 1.9
        assert bottleneck_distance(A, B) <= 2.0


class TestBottleneckDistance:
    def test_identity(self):
        bars = (Interval(0, 1, 0), Interval(0.5, INF, 0))
        assert bottleneck_distance(bars, bars) == 0

    def test_delete_to_diagonal(self):
        assert bottleneck_distance((Interval(0, 1, 0),), ()) == 0.5

    def test_essential_pair_matches_at_birth_gap(self):
        assert bottleneck_distance((Interval(0, INF, 0),), (Interval(1, INF, 0),)) == 1.0

    def test_essential_and_deletion_mix(self):
        A = (Interval(0, INF, 0), Interval(0, 1, 0))
        B = (Interval(0.5, INF, 0),)
        assert bottleneck_distance(A, B) == 0.5

    def test_differing_essential_counts_diverge(self):
        assert bottleneck_distance((Interval(0, INF, 0),), ()) == INF
        A = (Interval(0, INF, 0), Interval(1, INF, 0))
        B = (Interval(0, INF, 0),)
        assert bottleneck_distance(A, B) == INF

    @pytest.mark.parametrize("births", [(-1e308, 1e308), (-10**308, 10**308)])
    def test_essential_birth_gap_overflow_raises(self, births):
        # +inf is kept for differing counts; a float or integer gap past the float range is an error
        A, B = (Interval(births[0], INF, 0),), (Interval(births[1], INF, 0),)
        with pytest.raises(ValueError, match="essential births differ by more than the largest float"):
            bottleneck_distance(A, B)
        assert bottleneck_distance(A, B + B) == INF

    def test_empty_barcodes(self):
        assert bottleneck_distance((), ()) == 0

    @pytest.mark.parametrize("A, B, expected", [
        ([(0, INF, 0)], [(3, INF, 0)], 3.0),  # essential part only
        ([(0, 4, 0)], [], 2.0),  # finite part only
        ([(0, INF, 0), (0, 4, 0)], [(0, INF, 0)], 2.0),  # both
        ([(2**60, INF, 0)], [(2**60 + 1, INF, 0)], 1.0),  # float64 endpoints would give 0.0
    ], ids=["essential", "finite", "both", "exact-integer-gap"])
    def test_integer_endpoints_give_a_float(self, A, B, expected):
        (parts,) = _split(A, B)
        d = _split_distance(*parts)
        assert type(d) is float and d == expected
        assert type(bottleneck_distance(A, B)) is float

    def test_empty_sides_give_a_float_zero(self):
        d = _split_distance([], [], [], [])
        assert type(d) is float and d == 0.0

    def test_intervals_match_only_within_a_degree(self):
        # the same interval in degrees 0 and 1: both are deleted
        assert bottleneck_distance((Interval(0, 4, 0),), (Interval(0, 4, 1),)) == 2.0
        # per degree 0.25 (degree 0) and 1.5 (degree 2, against nothing)
        A = (Interval(0, 1, 0), Interval(1, 4, 2), Interval(0, INF, 1))
        B = (Interval(0.25, 1.25, 0), Interval(0.5, INF, 1))
        assert bottleneck_distance(A, B) == bottleneck_distance(B, A) == 1.5
        # an essential class of degree 1 cannot match one of degree 0
        assert bottleneck_distance((Interval(0, INF, 0),), (Interval(0, INF, 1),)) == INF

    def test_rows_give_the_distance_of_their_intervals(self):
        A = (Interval(0, 1, 0), Interval(1, 4, 2), Interval(0, INF, 1))
        B = (Interval(0.25, 1.25, 0), Interval(0.5, INF, 1))
        rows_a, rows_b = [tuple(iv) for iv in A], [tuple(iv) for iv in B]
        assert rows_a[0] == (0, 1, 0)
        assert bottleneck_distance(rows_a, rows_b) == bottleneck_distance(A, B)

    def test_negative_zero_length_gives_positive_zero(self):
        # (-0.0 - 0.0) / 2 is -0.0; the distance is +0.0 all the same
        d = bottleneck_distance((Interval(0.0, -0.0, 0),), ())
        assert d == 0.0 and math.copysign(1.0, d) == 1.0
        d = bottleneck_distance((Interval(0.0, -0.0, 0),), (Interval(0.0, -0.0, 0),))
        assert math.copysign(1.0, d) == 1.0

    def test_optimum_above_the_lower_bound(self):
        # Every interval's cheapest option costs at most 0.75 (a1-b1), so that
        # is the lower bound, but a1 and a2 both need b1 there. The optimum
        # is the pair cost a2-b2 = 1.0, inside the candidates 0.875 to 1.5.
        A = (Interval(1.0, 4.0, 0), Interval(1.25, 3.75, 0))
        B = (Interval(1.75, 3.5, 0), Interval(2.25, 3.75, 0))
        assert brute_force_bottleneck(A, B) > 0.75
        assert bottleneck_distance(A, B) == bottleneck_distance(B, A) == 1.0

    def test_lower_bound_infeasible_on_b_side_only(self):
        # At the lower bound 1.0 the one interval of A longer than 2.0 can be
        # covered, but all three of B's are longer and all need A's first one.
        A = (Interval(2.25, 5.0, 0), Interval(2.75, 3.5, 0))
        B = (Interval(2.0, 4.75, 0), Interval(3.0, 5.25, 0), Interval(3.0, 6.0, 0))
        assert brute_force_bottleneck(A, B) > 1.0
        assert bottleneck_distance(A, B) == 1.25
        assert brute_force_bottleneck(A, B) == 1.25

    def test_lower_bound_one_ulp_below_a_root_deletion(self):
        # (100, 102) alone sets the lower bound 1.0; there a1, whose diag is one ulp above
        # 1.0, and a2 are roots that both need b1, so the distance is a1's deletion cost
        up = math.nextafter(1.0, INF)
        A = (Interval(0.0, 2 * up, 0), Interval(0.0, 2.5, 0), Interval(100.0, 102.0, 0))
        B = (Interval(0.0, 2.0, 0),)
        assert brute_force_bottleneck(A, B) == up
        assert bottleneck_distance(A, B) == bottleneck_distance(B, A) == up

    # Search-phase cases: the lower bound (each interval's cheaper of deletion
    # and nearest partner) fails on a side, so that side's alternating tree
    # raises delta to its next event: a deletion cost in the tree, or the
    # cheapest pair cost from the tree to a partner outside it.
    @pytest.mark.parametrize("A, B, lower, expected", [
        # a1 and a2 both need b1 at 0.75; at the deletion cost 0.875 a2 is
        # deleted, so the optimum is that event itself
        ([(2.5, 5.25), (2.75, 4.5)], [(2.75, 4.5)], 0.75, 0.875),
        # the pair a1-b1 costs 1.25, an event of A's tree (a1's diag is
        # 1.375); b1's diag is 0.625
        ([(0.75, 3.5), (1.0, 3.75)], [(1.0, 2.25), (1.5, 3.25)], 0.75, 1.25),
        # the pair a2-b2 costs 1.0, an event of B's tree only (b2's diag is
        # 1.375), since a2's diag is 0.375
        ([(1.75, 3.5), (2.5, 3.25)], [(1.25, 3.5), (1.5, 4.25)], 0.75, 1.0),
    ], ids=["deletion-cost", "pair-from-a", "pair-from-b-only"])
    def test_search_above_an_infeasible_lower_bound(self, A, B, lower, expected):
        A = tuple(Interval(b, d, 0) for b, d in A)
        B = tuple(Interval(b, d, 0) for b, d in B)
        assert brute_force_bottleneck(A, B) > lower
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
            A, B = [(a.birth, a.death) for a in A], [(b.birth, b.death) for b in B]
            for a in A:
                candidates.add(delete_cost(a))
                for b in B:
                    candidates.add(pair_cost(a, b))
            for b in B:
                candidates.add(delete_cost(b))
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
    @given(_graded_barcodes, _graded_barcodes)
    def test_degrees_apart_equal_exhaustive_oracle(self, A, B):
        per_degree = [brute_force_bottleneck([iv for iv in A if iv.degree == g],
                                             [iv for iv in B if iv.degree == g])
                      for g in {iv.degree for iv in A + B}]
        assert bottleneck_distance(A, B) == max(per_degree, default=0.0)


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
# one replaced. At seed 1 the lower bound is infeasible and the search above
# it runs; at seed 2 the lower bound is the answer.
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


def _wide_pair(rng, kind, n):
    """Two barcodes of n finite degree-0 (birth, death, degree) rows each, drawn one side
    after the other: spread (births uniform on [0, 10], lengths on [0, 3]), equal-birth
    (births 0, deaths uniform on [0, 10]), both rounded to 1e-3; quarter (births and
    lengths on the quarter grid: ties everywhere); bigint (integers past 2**60, whose
    differences a float64 array would round); huge (endpoints near +-1e308, so that pair
    costs across the sign overflow to +inf while every deletion cost stays finite); near
    (bottleneck-large's shape: A's births uniform on [0, 10] and lengths exponential with
    mean 1, rounded to 1e-3; B moves A's endpoints by N(0, 0.1) and draws a tenth afresh)."""
    def drawn(k):  # births uniform on [0, 10], lengths exponential with mean 1
        births = np.round(rng.uniform(0, 10, k), 3)
        return births, np.round(births + rng.exponential(1.0, k) + 1e-3, 3)

    sides = []
    for _ in range(2):
        if kind == "near" and sides:
            births, deaths = np.round(near + rng.normal(0.0, 0.1, (2, n)), 3)
            deaths = np.maximum(deaths, births + 1e-3)
            fresh = rng.choice(n, n // 10, replace=False)
            births[fresh], deaths[fresh] = drawn(len(fresh))
        elif kind == "near":
            births, deaths = near = np.array(drawn(n))
        elif kind == "spread":
            births = np.round(rng.uniform(0, 10, n), 3)
            deaths = np.round(births + rng.uniform(0, 3, n), 3)
        elif kind == "equal":
            births, deaths = np.zeros(n), np.round(rng.uniform(0, 10, n), 3)
        elif kind == "quarter":
            births = rng.integers(0, 17, n) / 4
            deaths = births + rng.integers(1, 9, n) / 4
        elif kind == "bigint":
            births = [2**60 + int(x) for x in rng.integers(0, 4000, n)]
            deaths = [x + int(k) for x, k in zip(births, rng.integers(1, 1000, n))]
        else:
            births = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.0, n) * 1e308
            deaths = births + rng.uniform(0.01, 0.5, n) * 1e308
        births, deaths = (x.tolist() if isinstance(x, np.ndarray) else x for x in (births, deaths))
        sides.append([(b, d, 0) for b, d in zip(births, deaths)])
    return sides


def _lower_bound(fin_a, fin_b):
    """The lower bound of two finite sides in array form by the windowed passes, under the
    error state that _finite_distance sets (a pair cost past the largest float is +inf)."""
    with np.errstate(over="ignore"):
        return _bound(fin_b, fin_a, _bound(fin_a, fin_b, 0.0, None), None)


def _above_bound(A, B):
    """Whether the distance of two finite one-degree barcodes lies above their lower bound."""
    (_, fin_a, _, fin_b), = _split(A, B)
    return bottleneck_distance(A, B) > _lower_bound(*_arrays(fin_a, fin_b))


@pytest.mark.parametrize("kind", ["spread", "equal", "quarter", "bigint", "huge"])
def test_equals_the_threshold_oracle_at_20_to_150_intervals(kind):
    # past brute force's reach: every value, sign bit included, equals the Kuhn oracle's,
    # both ways round; some pairs are settled above their lower bound
    rng, above = np.random.default_rng(["spread", "equal", "quarter", "bigint", "huge"].index(kind) + 90), 0
    for n in (20, 45, 80, 150):
        A, B = _wide_pair(rng, kind, n)
        want = threshold_bottleneck(A, B)
        for got in (bottleneck_distance(A, B), bottleneck_distance(B, A)):
            assert type(got) is float and got == want
            assert math.copysign(1.0, got) == math.copysign(1.0, want)
        above += _above_bound(A, B)
        if kind == "bigint":  # the same endpoints as float64 give another distance
            rounded = [[(float(b), float(d), 0) for b, d, _ in side] for side in (A, B)]
            assert bottleneck_distance(*rounded) != want
        if kind == "huge":
            assert math.isinf(max(pair_cost(a, b) for a in A for b in B))
    assert above


def _distances_and_trees(A, B, entries=None):
    """The distance of A and B as float hex, both ways round, and per _raised call whether
    its tree read the one matrix of every pair cost; with _PASS_ENTRIES at ``entries`` if given."""
    trees, raised = [], persline.bottleneck._raised

    def spy(P, Q, delta, match, cost):
        trees.append(cost is not None)
        return raised(P, Q, delta, match, cost)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(persline.bottleneck, "_raised", spy)
        if entries is not None:
            patch.setattr(persline.bottleneck, "_PASS_ENTRIES", entries)
        return [bottleneck_distance(A, B).hex(), bottleneck_distance(B, A).hex()], trees


@pytest.mark.parametrize("kind", ["spread", "equal", "quarter", "bigint", "huge"])
def test_chunks_and_windows_change_no_bit(kind):
    # _PASS_ENTRIES at 64 and 2**10 splits each side into many chunks of the lower bound and
    # of the cover, each against its own birth window, and the tree search above the bound
    # computes its rows over windows: every value is the default's as float hex (sign
    # included), both ways round; by default, 200 intervals a side share one matrix, whose
    # rows the trees read, and every pair here is searched above its bound
    rng = np.random.default_rng(["spread", "equal", "quarter", "bigint", "huge"].index(kind) + 110)
    for n in (200, 1000):
        A, B = _wide_pair(rng, kind, n)
        want, trees = _distances_and_trees(A, B)
        assert want[0] == want[1]
        assert trees and set(trees) == {n == 200}
        for entries in (64, 1 << 10):
            got, trees = _distances_and_trees(A, B, entries)
            assert got == want and trees and not any(trees)


def test_tree_rows_from_the_matrix_or_windows_change_no_bit():
    # bottleneck-large's pairs: by default each tree above the bound reads its vertices' rows
    # of the one matrix of every pair cost, and with _PASS_ENTRIES below A*B it computes them
    # over birth windows; the same trees run and give the same float hex, both ways round
    rng, searched = np.random.default_rng(130), 0
    for _ in range(30):
        A, B = _wide_pair(rng, "near", 100)
        want, trees = _distances_and_trees(A, B)
        got, windowed = _distances_and_trees(A, B, len(A) * len(B) - 1)
        assert got == want and want[0] == want[1]
        assert trees == [True] * len(windowed) and not any(windowed)
        searched += bool(trees)
    assert searched >= 10, searched


def test_symmetric_at_3000_equal_birth_intervals_per_side():
    # every birth equal, so each window holds the whole other side: the size curve's
    # bottleneck-equal-3000 pair
    A, B = _wide_pair(np.random.default_rng(0), "equal", 3000)
    assert bottleneck_distance(A, B).hex() == bottleneck_distance(B, A).hex()


def test_window_keeps_births_whose_rounded_gap_is_within_reach():
    # 1.0 - (-1e-17) and 1e-17 - (-1.0) round to 1.0: within reach 1.0, though past 1.0 - 1.0
    # and -1.0 + 1.0, where the bisections stop
    births = [-1.0, -1e-17, 1e-17, 1.0]
    assert 1.0 - -1e-17 == 1e-17 - -1.0 == 1.0
    assert _window(births, 1.0, 1.0, 1.0) == (1, 4)
    assert _window(births, -1.0, -1.0, 1.0) == (0, 3)
    assert _window(births, -1.0, 1.0, 0.0) == (0, 4)
    assert _window(births, 0.5, 0.5, 0.25) == (3, 3)


@pytest.mark.parametrize("kind", ["spread", "equal"])
def test_relations_at_1000_intervals_per_side(kind):
    # symmetric bit for bit, scaled exactly by 8, and never raised by one common interval
    A, B = _wide_pair(np.random.default_rng(1), kind, 1000)
    d = bottleneck_distance(A, B)
    assert _above_bound(A, B)
    assert bottleneck_distance(B, A).hex() == d.hex()
    scaled = [[(8 * b, 8 * e, g) for b, e, g in side] for side in (A, B)]
    assert bottleneck_distance(*scaled).hex() == (8 * d).hex()
    common = (0.0, 5.0, 0) if kind == "equal" else (4.0, 5.5, 0)
    assert bottleneck_distance(A + [common], B + [common]) <= d


def _block(rng, lines, finite, essential):
    """A block of ``lines`` barcodes as _block_distances reads them: per row ``finite``
    births, their deaths, then ``essential`` births, on a quarter grid (ties everywhere,
    a fifth of the pairs zero-length), the pairs in random order."""
    births = rng.integers(0, 9, size=(lines, finite)) / 4
    deaths = births + rng.integers(0, 9, size=(lines, finite)) / 4 * (rng.random((lines, finite)) > 0.2)
    return np.hstack((births, deaths, rng.integers(0, 9, size=(lines, essential)) / 4))


def _rows(values, finite):
    """Each row as Intervals, zero-length pairs left in: the oracle's input."""
    return [[Interval(b, d, 0) for b, d in zip(row[:finite], row[finite : 2 * finite])]
            + [Interval(b, INF, 0) for b in row[2 * finite :]] for row in values.tolist()]


def _search(A, a, B, b):
    """Each row's distance by the per-line threshold search on the oracle's rows."""
    return [bottleneck_distance(p, q) for p, q in zip(_rows(A, a), _rows(B, b))]


def _finite_parts(A, a, B, b):
    """Each row's finite parts, A's and B's, as the per-line search hands them to
    _finite_distance: split, then as arrays."""
    return [_arrays(*(_split(p, q) or [([], [], [], [])])[0][1::2]) for p, q in zip(_rows(A, a), _rows(B, b))]


def _pass_bounds(A, a, B, b):
    """The pass's lower bound per row, and whether it settles the row there: every row it
    leaves goes to a stand-in for _bisected that records the rows' bounds."""
    left = []

    def record(cost, diag_a, diag_b, lower):
        left.extend(lower.tolist())
        return np.full(len(lower), math.nan)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(persline.bottleneck, "_bisected", record)
        patch.setattr(persline.bottleneck, "_HALL_WIDTH", 64)  # no row searched
        lower = _pass_distances(A, a, B, b)
    settled = ~np.isnan(lower)
    lower[~settled] = left
    return lower.tolist(), settled.tolist()


def _bisection_input(A, a, B, b):
    """A block's pair costs and diags as the pass hands them to _bisected, uncropped."""
    live_a, live_b = _live(A, a), _live(B, b)
    return _pair_costs(*live_a, *live_b), live_a[2], live_b[2]


def _rootless(adjacent, roots):
    """A ``_covered`` that covers only rows without roots: every other line is searched."""
    return ~roots.any(axis=1)


def _pairs(*rows):
    """A block of rows of (birth, death) pairs, no essential ones, each padded with
    zero-length (9, 9) pairs to the longest and to at least 6: past the table bound."""
    width = max(6, *(len(row) for row in rows))
    rows = [list(row) + [(9.0, 9.0)] * (width - len(row)) for row in rows]
    return np.array([[b for b, _ in row] + [d for _, d in row] for row in rows]), width


class TestCovered:
    """The greedy cover test of the certified pass is sound: a row it covers has a
    matching that covers its roots, by trying every injective map of the roots."""

    def test_covers_only_rows_that_a_matching_covers(self):
        rng, coverable_rows, covered_rows = np.random.default_rng(31), 0, 0
        for _ in range(300):
            rows, p, q = int(rng.integers(1, 5)), int(rng.integers(1, 8)), int(rng.integers(1, 8))
            adjacent = rng.random((rows, p, q)) < rng.uniform(0.1, 0.7)
            roots = rng.random((rows, p)) < rng.uniform(0.2, 1.0)
            got, some = _covered(adjacent, roots).tolist(), roots.any(axis=1).tolist()
            want = [coverable(adj.tolist(), r.tolist()) for adj, r in zip(adjacent, roots)]
            # covered only where a matching covers the roots, so uncovered where none does
            assert not any(g and not w for g, w in zip(got, want))
            assert all(g for g, s in zip(got, some) if not s)  # no roots: covered
            coverable_rows += sum(w and s for w, s in zip(want, some))
            covered_rows += sum(g and s for g, s in zip(got, some))
        assert covered_rows > 0.9 * coverable_rows > 100  # the greedy order rarely misses one


class TestBlockDistances:
    """The one-pass distance of small barcodes equals the per-line threshold search on
    their split form bit for bit, and the exhaustive oracle; zero-length pairs kept.
    Each block is also matched on the path _block_distances picks for it.

    Past the table bound, the certified pass's lower bound is the search's first
    candidate bit for bit, it settles a row exactly when the search accepts that
    candidate (where its caps let it test), and every value equals the search's as
    float hex: with the pass on, in small chunks, settling no row with a root (so
    each is bisected), with every unsettled row searched line by line, and switched off."""

    @staticmethod
    def _check(A, a, B, b):
        want = _search(A, a, B, b)
        assert [x.hex() for x in _block_distances(A, a, B, b).tolist()] == [x.hex() for x in want]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(persline.bottleneck, "_BATCH_ENTRIES", 10**9)  # every block in one pass
            got = _block_distances(A, a, B, b).tolist()
            assert [x.hex() for x in got] == [x.hex() for x in want]
            assert got == [brute_force_bottleneck(p, q) for p, q in zip(_rows(A, a), _rows(B, b))]
            # the zero-length pairs of one side, taken out, change no value or sign
            for r in range(len(A)):
                for X, x, Y, y in ((A, a, B, b), (B, b, A, a)):
                    row = X[r : r + 1]
                    keep = np.flatnonzero(row[0, x : 2 * x] != row[0, :x])
                    dropped = np.hstack((row[:, keep], row[:, x + keep], row[:, 2 * x :]))
                    assert _block_distances(dropped, len(keep), Y[r : r + 1], y)[0].hex() == got[r].hex()
        return got

    @pytest.mark.parametrize("a, b", [(0, 0), (1, 0), (0, 3), (1, 1), (2, 3), (3, 3), (4, 2), (4, 4),
                                      (5, 5), (5, 6), (2, 9), (1, 18), (2, 17)])
    def test_seeded_blocks_on_both_sides_of_the_table_bound(self, a, b):
        rng = np.random.default_rng(1000 + 10 * a + b)
        for essential in (0, 1, 2):
            self._check(_block(rng, 24, a, essential), a, _block(rng, 24, b, essential), b)
        assert _batched(a, b) == (_matching_table(a, b).size <= _BATCH_ENTRIES)

    def test_table_bound_splits_these_sizes(self):
        # the sizes above fall on both sides of it: 4x4, 2x9 and 1x18 intervals have 1,672, 1,001
        # and 361 table entries; 2x17, 5x5 and 5x6 have 5,833, 15,460 and 44,561
        assert _batched(4, 4) and _batched(2, 9) and _batched(1, 18)
        assert not (_batched(2, 17) or _batched(5, 5) or _batched(5, 6))

    def test_table_chunks_change_no_bit(self):
        # a 4x4 block has 209 matchings: 16 lines a chunk, and a last chunk of 8
        rng = np.random.default_rng(17)
        A, B = _block(rng, 200, 4, 1), _block(rng, 200, 4, 1)
        whole = [x.hex() for x in _block_distances(A, 4, B, 4).tolist()]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(persline.bottleneck, "_PASS_ENTRIES", 209 * 16)
            assert [x.hex() for x in _block_distances(A, 4, B, 4).tolist()] == whole
        assert _batched(4, 4) and _matching_table(4, 4).shape[1] == 209

    def test_every_partial_matching_once(self):
        for a, b in ((0, 0), (1, 2), (3, 3), (2, 4)):
            columns = _matching_table(a, b)
            matchings = {tuple(sorted(set(column.tolist()))) for column in columns.T}
            assert len(matchings) == columns.shape[1] == sum(
                math.comb(a, k) * math.perm(b, k) for k in range(min(a, b) + 1))

    def test_signed_zero_pair_costs_positive_zero(self):
        # birth 0.0, death -0.0: a zero-length pair whose difference is -0.0
        A = np.array([[0.0, -0.0], [0.0, -0.0], [1.0, 1.0]])
        B = np.array([[0.0, -0.0], [0.0, 1.0], [0.25, 0.75]])
        got = self._check(A, 1, B, 1)
        assert [math.copysign(1.0, x) for x in got] == [1.0, 1.0, 1.0]
        assert got == [0.0, 0.5, 0.25]
        assert _block_distances(np.array([[0.0, -0.0]]), 1, np.empty((1, 0)), 0)[0].hex() == "0x0.0p+0"

    def test_differing_essential_counts_are_infinite(self):
        rng = np.random.default_rng(7)
        A, B = _block(rng, 5, 2, 1), _block(rng, 5, 2, 2)
        got = self._check(A, 2, B, 2)
        assert strict_json(got) == "[null, null, null, null, null]"

    def test_essential_gap_overflow_raises_as_per_line(self):
        A, B = np.array([[0.0, 1.0, -1e308]]), np.array([[1e308]])
        with pytest.raises(ValueError, match="largest float") as per_line:
            _search(A, 1, B, 0)
        with pytest.raises(ValueError, match="largest float") as batched:
            _block_distances(A, 1, B, 0)
        assert str(batched.value) == str(per_line.value)

    @staticmethod
    def _check_pass(A, a, B, b):
        """The pass's verdict per row, after checking it and the values against the search;
        with each verdict, whether the search accepts the bound."""
        assert not _batched(a, b)
        want = [x.hex() for x in _search(A, a, B, b)]
        search = []
        for fin_a, fin_b in _finite_parts(A, a, B, b):
            lower = _lower_bound(fin_a, fin_b)
            with np.errstate(over="ignore"):
                feasible = _covers(fin_a, fin_b, lower, None)[0] and _covers(fin_b, fin_a, lower, None)[0]
            search.append((lower.hex(), feasible))
        lower, settled = _pass_bounds(A, a, B, b)
        assert [x.hex() for x in lower] == [h for h, _ in search]
        assert all(feasible_at for ok, (_, feasible_at) in zip(settled, search) if ok)
        for name, value in (("_PASS_ENTRIES", 1 << 16), ("_PASS_ENTRIES", 1 << 10),
                            ("_covered", _rootless), ("_HALL_WIDTH", 0), ("_PASS_ENTRIES", 0)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(persline.bottleneck, name, value)
                assert [x.hex() for x in _block_distances(A, a, B, b).tolist()] == want
                if name == "_PASS_ENTRIES" and value:  # chunks change no verdict
                    assert _pass_bounds(A, a, B, b)[1] == settled
        return settled, [feasible_at for _, feasible_at in search]

    @pytest.mark.parametrize("a, b", [(6, 6), (8, 8), (10, 7), (4, 10)])
    def test_settles_exactly_the_rows_the_search_accepts_at_the_bound(self, a, b):
        # at most 10 live pairs a side: no row reaches a cap
        rng, verdicts = np.random.default_rng(2000 + 10 * a + b), []
        for essential in (0, 1, 2):
            settled, feasible_at = self._check_pass(_block(rng, 64, a, essential), a,
                                                    _block(rng, 64, b, essential), b)
            assert settled == feasible_at
            verdicts += settled
        assert any(verdicts) and not all(verdicts)  # bounds that hold, bounds that fail

    def test_the_full_root_set_can_be_the_only_short_one(self):
        # two roots of A share their one partner: each alone is matched, both are not
        A, a = _pairs([(0.0, 4.0), (0.0, 4.25)], [(0.0, 4.0)])
        B, b = _pairs([(0.0, 4.125)], [(0.0, 4.125)])
        assert self._check_pass(A, a, B, b) == ([False, True], [False, True])
        assert _block_distances(A, a, B, b).tolist() == [2.0, 0.125]

    def test_rows_with_many_roots_are_settled_at_their_bound(self):
        # k-th interval of A matched to the k-th of B at 0.25, every interval a root
        rows = [[(k, k + 4.0) for k in range(n)] for n in (10, 11, 25)]
        A, a = _pairs(*rows)
        B, b = _pairs(*[[(x + 0.25, y) for x, y in row] for row in rows])
        assert self._check_pass(A, a, B, b) == ([True] * 3, [True] * 3)
        assert _block_distances(A, a, B, b).tolist() == [0.25] * 3

    def test_a_root_with_64_partners_is_settled_at_its_bound(self):
        # (100, 102) alone sets the bound 1.0; the one root (0, 3) has every interval
        # of B as a partner, and none of them is a root
        A, a = _pairs([(0.0, 3.0), (100.0, 102.0)], [(0.0, 3.0), (100.0, 102.0)])
        B, b = _pairs(*[[(0.5 + k / 1024, 2.5 - k / 1024) for k in range(n)] for n in (63, 64)])
        assert self._check_pass(A, a, B, b) == ([True, True], [True, True])
        assert _block_distances(A, a, B, b).tolist() == [1.0, 1.0]

    def test_rows_without_live_pairs_and_signed_zeros(self):
        # no live pair on A's side, on B's, on both, on B's against two of A's; births 0.0
        # with deaths -0.0 among the zero-length pairs
        A, a = _pairs([(0.0, -0.0), (2.0, 2.0)], [(0.0, 1.0), (0.0, -0.0)], [(0.0, -0.0)] * 2,
                      [(0.0, -0.0), (0.0, 0.5), (1.0, 3.0)])
        B, b = _pairs([(0.0, 2.0), (0.0, -0.0)], [(3.0, 3.0)], [(0.0, -0.0)],
                      [(0.0, -0.0)] * 6)
        assert self._check_pass(A, a, B, b) == ([True] * 4, [True] * 4)
        got = _block_distances(A, a, B, b).tolist()
        assert [x.hex() for x in got] == [x.hex() for x in (1.0, 0.5, 0.0, 1.0)]

    def test_differing_essential_counts_are_infinite_past_the_table_bound(self):
        rng = np.random.default_rng(8)
        A, B = _block(rng, 5, 6, 1), _block(rng, 5, 6, 2)
        assert strict_json(_block_distances(A, 6, B, 6).tolist()) == "[null, null, null, null, null]"
        assert _search(A, 6, B, 6) == [INF] * 5

    def test_essential_gap_overflow_raises_as_per_line_past_the_table_bound(self):
        A, B = np.hstack((np.zeros((1, 12)), [[-1e308]])), np.hstack((np.ones((1, 12)), [[1e308]]))
        with pytest.raises(ValueError, match="largest float") as per_line:
            _search(A, 6, B, 6)
        for entries in (1 << 16, 0):  # the certified pass, and every row searched with no bound
            with pytest.MonkeyPatch.context() as patch, pytest.raises(ValueError, match="largest float") as block:
                patch.setattr(persline.bottleneck, "_PASS_ENTRIES", entries)
                _block_distances(A, 6, B, 6)
            assert str(block.value) == str(per_line.value)


class TestHall:
    """Hall's test is exact: it accepts a row exactly when one matching covers its roots."""

    def test_equals_an_exhaustive_matching(self):
        rng, verdicts = np.random.default_rng(41), []
        for _ in range(300):
            rows, p, q = int(rng.integers(1, 5)), int(rng.integers(1, 8)), int(rng.integers(1, 8))
            adjacent = rng.random((rows, p, q)) < rng.uniform(0.1, 0.7)
            roots = rng.random((rows, p)) < rng.uniform(0.2, 1.0)
            masks = (adjacent * (1 << np.arange(q, dtype=np.uint64))).sum(axis=2, dtype=np.uint64)
            got = _hall(masks, roots).tolist()
            assert got == [coverable(adj.tolist(), r.tolist()) for adj, r in zip(adjacent, roots)]
            verdicts += got
        assert 0.2 < np.mean(verdicts) < 0.8  # covers found and missed

    @pytest.mark.parametrize("roots, want", [
        ([True] * 3, False),  # three roots on two partners: only the full set is short
        ([True] * 3 + [False], False),  # the same with a non-root
        ([True, False, False], True),  # non-roots need no partner
        ([False] * 3, True),
    ])
    def test_sets_of_roots(self, roots, want):
        masks = np.array([[0b011, 0b011, 0b011, 0][: len(roots)]], dtype=np.uint64)
        assert _hall(masks, np.array([roots])).tolist() == [want]


@st.composite
def _hall_blocks(draw):
    """A block of 1 to 3 rows for the bisection: p and q finite pairs a side, each from 1 to
    _HALL_WIDTH, and 0 to 2 essential births, on the quarter grid (ties everywhere, a ninth
    of the pairs zero-length)."""
    rows, e = draw(st.integers(1, 3)), draw(st.integers(0, 2))

    def side(width):
        grid = st.lists(st.lists(_quarter, min_size=width, max_size=width), min_size=rows, max_size=rows)
        births, lengths = np.array(draw(grid)).reshape(rows, width), np.array(draw(grid)).reshape(rows, width)
        return np.hstack((births, births + lengths, np.array(draw(
            st.lists(st.lists(_quarter, min_size=e, max_size=e), min_size=rows, max_size=rows))).reshape(rows, e)))

    p, q = draw(st.integers(1, _HALL_WIDTH)), draw(st.integers(1, _HALL_WIDTH))
    return side(p), p, side(q), q


class TestBisected:
    """Every row that the bisection settles equals the per-line search from the same lower
    bound bit for bit, sign included, in any chunk size; through _block_distances with every
    row left to it, each equals the search's distance. The pass sends the rows it leaves in a
    chunk to the search instead when they are wider than _HALL_WIDTH."""

    @staticmethod
    def _check(A, a, B, b):
        lower, _ = _pass_bounds(A, a, B, b)
        parts = _finite_parts(A, a, B, b)
        want = [_finite_distance(fin_a, fin_b, low) for (fin_a, fin_b), low in zip(parts, lower)]
        got = _bisected(*_bisection_input(A, a, B, b), np.array(lower)).tolist()
        assert got == want and [math.copysign(1.0, x) for x in got] == [math.copysign(1.0, x) for x in want]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(persline.bottleneck, "_PASS_ENTRIES", 1 << 8)  # a row or two a chunk
            got_small = _bisected(*_bisection_input(A, a, B, b), np.array(lower)).tolist()
            assert [x.hex() for x in got_small] == [x.hex() for x in want]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(persline.bottleneck, "_BATCH_ENTRIES", 0)  # past the table bound
            patch.setattr(persline.bottleneck, "_covered", _rootless)  # no row settled at its bound
            split = [x.hex() for x in _search(A, a, B, b)]
            assert [x.hex() for x in _block_distances(A, a, B, b).tolist()] == split
        return lower, got

    @_property
    @given(_hall_blocks())
    def test_equals_the_search_from_the_bound(self, block):
        self._check(*block)

    def test_a_row_the_greedy_cover_misses_is_settled_at_its_bound(self):
        A, a = _pairs([(0.75, 2.25), (0.5, 2.5), (0.25, 1.5)])
        B, b = _pairs([(0.0, 2.0), (0.5, 1.75), (1.0, 2.75)])
        assert _pass_bounds(A, a, B, b)[1] == [False]  # the greedy order misses the cover that exists
        assert self._check(A, a, B, b) == ([0.5], [0.5])

    def test_seeded_rows_above_their_bound(self):
        # tie-heavy rows of 8 live pairs a side, as on function-Rips H0 blocks
        rng, above = np.random.default_rng(53), 0
        for essential in (0, 1):
            A, B = _block(rng, 48, 8, essential), _block(rng, 48, 8, essential)
            lower, got = self._check(A, 8, B, 8)
            above += sum(g > low for g, low in zip(got, lower))
        assert 10 < above < 96  # rows above their bound, and rows at it

    @staticmethod
    def _paths(A, a, B, b, entries):
        """The arguments of each _bisected call and the bounds that rows were searched from,
        with no row settled at its bound and ``entries`` as _PASS_ENTRIES, once the distances
        are checked against the search."""
        bisected, searched = [], []

        def bisect(*args):
            bisected.append(args)
            return _bisected(*args)

        def search(fin_a, fin_b, lower=None):
            searched.append(lower)
            return _finite_distance(fin_a, fin_b, lower)

        want = [x.hex() for x in _search(A, a, B, b)]
        with pytest.MonkeyPatch.context() as patch:
            for name, value in (("_bisected", bisect), ("_finite_distance", search), ("_covered", _rootless),
                                ("_PASS_ENTRIES", entries), ("_BATCH_ENTRIES", 0)):
                patch.setattr(persline.bottleneck, name, value)
            assert [x.hex() for x in _block_distances(A, a, B, b).tolist()] == want
        return bisected, searched

    @staticmethod
    def _live_rows(rng, *widths):
        """One row per width, of that many live pairs on the quarter grid, 5/4 to 2 long,
        padded by _pairs."""
        rows = []
        for width in widths:
            births = rng.integers(0, 9, width) / 4
            rows.append(list(zip(births.tolist(), (births + rng.integers(5, 9, width) / 4).tolist())))
        return _pairs(*rows)

    def test_rows_past_the_width_go_line_by_line(self):
        rng = np.random.default_rng(59)
        for width in (_HALL_WIDTH, _HALL_WIDTH + 1):  # 4 rows, one chunk
            (A, a), (B, b) = self._live_rows(rng, *[width] * 4), self._live_rows(rng, *[width] * 4)
            bisected, searched = self._paths(A, a, B, b, 1 << 16)
            if width > _HALL_WIDTH:
                assert not bisected and len(searched) == 4
            else:
                assert [len(args[-1]) for args in bisected] == [4] and not searched

    def test_two_chunks_of_one_block_take_either_path(self):
        # one row a chunk: row 0's leftover, 4 pairs wide, is bisected, cropped to its own
        # width; row 1's, one past _HALL_WIDTH, is searched from its bound
        rng = np.random.default_rng(61)
        (A, a), (B, b) = self._live_rows(rng, 4, _HALL_WIDTH + 1), self._live_rows(rng, 4, _HALL_WIDTH + 1)
        bisected, searched = self._paths(A, a, B, b, (_HALL_WIDTH + 1) ** 2)
        assert [args[0].shape for args in bisected] == [(1, 4, 4)]
        assert searched == [_pass_bounds(A, a, B, b)[0][1]]
