"""Exact bottleneck distance between barcodes.

Matched intervals pay the sup-norm gap of their endpoints; unmatched finite
intervals may be deleted to the diagonal at half their length; essential
intervals can only match essential intervals. The distance is the least
threshold delta at which a matching exists, so it is one of the pair or
deletion costs. Three exact reductions keep the search small:

1. Essential split. An essential interval can be neither deleted nor matched
   to a finite one, so the essential and finite parts are matched apart and
   the distance is the larger of their optima. For the essential part,
   matching sorted births in order is optimal: uncrossing two crossed pairs
   never raises their larger birth gap. It is +inf when the counts differ.
2. Edge pruning and the lower bound. A finite pair (a, b) whose cost is at
   least max(diag(a), diag(b)) never helps: deleting both ends costs no more.
   So every interval p is deleted or matched along a kept pair, and the max
   over p of min(diag(p), cheapest kept pair) is a lower bound, tested first.
   It equals min(diag(p), distance to p's nearest interval on the other side),
   as that pair is kept when cheaper than diag(p); a birth-sorted scan outward
   from p finds it, stopping once the birth gap reaches the best cost so far.
3. One-sided coverage. At delta, a matching is feasible iff it covers every
   interval whose deletion cost exceeds delta along pairs of cost <= delta
   (the rest are deleted); no pruning test is needed, since such an interval
   keeps all those pairs. By the Mendelsohn-Dulmage theorem one matching
   covers those intervals of both sides iff one matching covers those of A
   and another those of B, so each test is two one-sided bipartite matchings.

If the bound fails, a binary search of the deletion costs above it gives a
bracket (lo, hi]. A kept pair costing c in (lo, hi) has an end with diag > c,
so >= hi; only such ends list partners, and only costs in the bracket are
searched: the answer is the first feasible one, or hi. No step lists all kept
pairs. A test walks each interval's birth window for partners within delta at
most once, lazily, and starts from the matchings the last failed test grew
(valid at larger delta). Augmenting paths use an explicit stack.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from itertools import tee
from typing import Callable, Iterator

from .homology import Barcode, Interval


def interval_cost(I: Interval, J: Interval) -> float:
    """Sup-norm matching cost; infinite when exactly one death is infinite."""
    if I.essential and J.essential:
        return abs(I.birth - J.birth)
    if I.essential or J.essential:
        return math.inf
    return max(abs(I.birth - J.birth), abs(I.death - J.death))


def diagonal_cost(I: Interval) -> float:
    """Cost of deleting an interval to the diagonal: half its length."""
    if I.essential:
        return math.inf
    return (I.death - I.birth) / 2.0


# A finite side: (birth, death, deletion cost) triples sorted by birth.
_Side = list[tuple[float, float, float]]


def _split(barcode: Barcode) -> tuple[list[float], _Side]:
    """Essential births and finite (birth, death, diag) triples, both sorted."""
    essential, finite = [], []
    for iv in barcode:
        birth, death = iv.birth, iv.death
        if math.isinf(death):
            essential.append(birth)
        else:
            finite.append((birth, death, (death - birth) / 2.0))
    essential.sort()
    finite.sort()
    return essential, finite


def _split_pairs(pairs: list[tuple[int, int]], values: list[float]) -> tuple[list[float], _Side]:
    """_split of the barcode of creator/destroyer ``pairs`` under ``values``, zero-length dropped."""
    essential, finite = [], []
    for i, j in pairs:
        birth = values[i]
        if j < 0:
            essential.append(birth)
        elif (death := values[j]) > birth:
            finite.append((birth, death, (death - birth) / 2.0))
    essential.sort()
    finite.sort()
    return essential, finite


def _essential_distance(births_a: list[float], births_b: list[float]) -> float:
    """Bottleneck optimum of the essential parts: births matched in sorted order."""
    if len(births_a) != len(births_b):
        return math.inf
    return max((abs(x - y) for x, y in zip(births_a, births_b)), default=0.0)


def _outward(Q: _Side, x: float) -> tuple[range, range]:
    """Indices of Q from ``x``'s place in the sorted births, rightward and
    leftward: along each the birth gap to ``x`` grows, rounding included."""
    start = bisect_left(Q, (x,))
    return range(start, len(Q)), range(start - 1, -1, -1)


def _nearest_bound(P: _Side, Q: _Side, bound: float) -> float:
    """The larger of ``bound`` and each p's min(diag(p), distance to its nearest q)."""
    for x, y, best in P:
        if best <= bound:
            continue
        for run in _outward(Q, x):
            for j in run:
                xq, yq, _ = Q[j]
                gap = abs(x - xq)
                if gap >= best or best <= bound:
                    break
                dy = abs(y - yq)
                if dy < best:
                    best = gap if gap >= dy else dy
        bound = max(bound, best)
    return bound


def _bracket_costs(P: _Side, Q: _Side, lo: float, hi: float) -> set[float]:
    """Costs strictly between ``lo`` and ``hi`` of the pairs (p, q) with diag(p) >= hi."""
    costs = set()
    for x, y, r in P:
        if r < hi:
            continue
        for run in _outward(Q, x):
            for j in run:
                xq, yq, _ = Q[j]
                gap = abs(x - xq)
                if gap >= hi:
                    break
                cost = max(gap, abs(y - yq))
                if lo < cost < hi:
                    costs.add(cost)
    return costs


def _covers(P: _Side, Q: _Side, delta: float, match: list[int]) -> bool:
    """Whether one matching along pairs of cost <= delta covers every p whose
    deletion cost exceeds delta.

    ``match`` maps each q to its partner in P or -1. On entry it is a matching
    valid at delta (pairs of cost <= delta); partners that need no cover are
    released, and it is grown in place by augmenting paths.
    """
    roots = [u for u, (_, _, r) in enumerate(P) if r > delta]
    if len(roots) > len(match):
        return False
    for v, u in enumerate(match):
        if u >= 0 and P[u][2] <= delta:
            match[v] = -1
    covered, below, walks = set(match), -delta, {}

    def walk(u: int) -> Iterator[int]:
        x, y, _ = P[u]
        for run in _outward(Q, x):
            for j in run:
                xq, yq, _ = Q[j]
                if not below <= x - xq <= delta:
                    break
                if below <= y - yq <= delta:
                    yield j

    def partners(u: int) -> Iterator[int]:
        walks[u], fresh = tee(walks.get(u) or walk(u))
        return fresh

    # Every root is tried, so a failed test leaves the next one a larger start.
    # The stamp moves only on success: what a failed search saw stays dead.
    seen, stamp, ok = [-1] * len(match), 0, True
    for u in roots:
        if u not in covered:
            if _augment(u, partners, match, seen, stamp):
                stamp += 1
            else:
                ok = False
    return ok


def _augment(root: int, partners: Callable[[int], Iterator[int]], match: list[int],
             seen: list[int], stamp: int) -> bool:
    """Depth-first search for an augmenting path from ``root``; flips it if found.

    ``us[k]`` reached ``us[k + 1]`` through the right vertex ``vs[k]``, which
    ``us[k + 1]`` is matched to. Right vertices marked ``stamp`` are skipped."""
    us, vs, todo = [root], [], [partners(root)]
    while todo:
        for v in todo[-1]:
            if seen[v] == stamp:
                continue
            seen[v] = stamp
            w = match[v]
            if w < 0:
                match[v] = us[-1]
                for u, v2 in zip(us, vs):
                    match[v2] = u
                return True
            us.append(w)
            vs.append(v)
            todo.append(partners(w))
            break
        else:
            todo.pop()
            us.pop()
            if vs:
                vs.pop()
    return False


def _finite_feasible(A: _Side, B: _Side, delta: float, match_a: list[int],
                     match_b: list[int]) -> bool:
    """The two one-sided coverage tests; both run, growing the given matchings in place."""
    return all([_covers(A, B, delta, match_a), _covers(B, A, delta, match_b)])


def _first_feasible(A: _Side, B: _Side, costs: list[float], match_a: list[int],
                    match_b: list[int]) -> tuple[int, list[int], list[int]]:
    """Binary search: first feasible index of ``costs`` (or their count), last failed matchings."""
    lo, hi = 0, len(costs)
    while lo < hi:
        mid = (lo + hi) // 2
        trial_a, trial_b = match_a[:], match_b[:]
        if _finite_feasible(A, B, costs[mid], trial_a, trial_b):
            hi = mid
        else:
            lo = mid + 1
            match_a, match_b = trial_a, trial_b
    return lo, match_a, match_b


def _finite_distance(A: _Side, B: _Side) -> float:
    """Least candidate cost at which the finite parts can be matched."""
    lower = _nearest_bound(B, A, _nearest_bound(A, B, -math.inf))
    match_a, match_b = [-1] * len(B), [-1] * len(A)
    if _finite_feasible(A, B, lower, match_a, match_b):
        return lower
    # feasible at the largest deletion cost, where no interval needs cover
    deletions = sorted({r for side in (A, B) for _, _, r in side if r > lower})
    k, match_a, match_b = _first_feasible(A, B, deletions, match_a, match_b)
    lo, hi = deletions[k - 1] if k else lower, deletions[k]
    pairs = sorted(_bracket_costs(A, B, lo, hi) | _bracket_costs(B, A, lo, hi))
    k, _, _ = _first_feasible(A, B, pairs, match_a, match_b)
    return pairs[k] if k < len(pairs) else hi


def feasible(A: Barcode, B: Barcode, delta: float) -> bool:
    """Decide whether a partial matching exists with all costs <= delta:
    matched pairs within interval_cost, every unmatched interval within
    diagonal_cost."""
    (ess_a, fin_a), (ess_b, fin_b) = _split(A), _split(B)
    if (ess_a or ess_b) and _essential_distance(ess_a, ess_b) > delta:
        return False
    return _finite_feasible(fin_a, fin_b, delta, [-1] * len(fin_b), [-1] * len(fin_a))


def bottleneck_distance(A: Barcode, B: Barcode) -> float:
    """Minimum delta for which a feasible matching exists.

    Returns +inf exactly when the essential-interval counts differ (no
    matching can ever pair an essential with a finite interval or delete it).
    """
    return _split_distance(*_split(A), *_split(B))


def _split_distance(ess_a: list[float], fin_a: _Side, ess_b: list[float], fin_b: _Side) -> float:
    parts = []
    if ess_a or ess_b:
        parts.append(_essential_distance(ess_a, ess_b))
        if math.isinf(parts[0]):
            return math.inf
    if fin_a or fin_b:
        parts.append(_finite_distance(fin_a, fin_b))
    # Integer endpoints (from hand-written JSON) still give a float.
    return float(max(parts, default=0.0))
