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
2. Edge pruning. A finite pair (a, b) whose cost is at least
   max(diag(a), diag(b)) never helps: deleting both ends instead costs no
   more. Such pairs are dropped. Every interval is then deleted or matched
   along a kept pair, so the search starts at the lower bound
   max over intervals of min(deletion cost, cheapest kept pair).
3. One-sided coverage. At delta, a matching is feasible iff it covers every
   interval whose deletion cost exceeds delta along kept pairs of cost <= delta
   (the rest are deleted). By the Mendelsohn-Dulmage theorem one matching
   covers those intervals of both sides iff one matching covers those of A
   and another those of B, so each test is two one-sided bipartite matchings,
   with no diagonal copies of the intervals.

Kept pairs sit in per-interval rows sorted by cost, so the pairs usable at
delta are a prefix of each row. Augmenting paths are searched with an
explicit stack, so barcode size is not limited by the recursion depth.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

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
# The kept pairs of one interval: their costs ascending, and the partners.
_Row = tuple[list[float], list[int]]
# Deletion costs of both sides, then the rows of both sides.
_Graph = tuple[list[float], list[float], list[_Row], list[_Row]]


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


def _essential_distance(births_a: list[float], births_b: list[float]) -> float:
    """Bottleneck optimum of the essential parts: births matched in sorted order."""
    if len(births_a) != len(births_b):
        return math.inf
    return max((abs(x - y) for x, y in zip(births_a, births_b)), default=0.0)


def _finite_graph(A: _Side, B: _Side) -> _Graph:
    """Kept pairs of two finite sides, as cost-sorted rows of both sides."""
    rows_a: list[list[tuple[float, int]]] = [[] for _ in A]
    rows_b: list[list[tuple[float, int]]] = [[] for _ in B]
    _scan(A, B, rows_a, rows_b, False)
    _scan(B, A, rows_b, rows_a, True)
    return ([a[2] for a in A], [b[2] for b in B], _sorted_rows(rows_a), _sorted_rows(rows_b))


def _scan(P: _Side, Q: _Side, rows_p: list[list[tuple[float, int]]],
          rows_q: list[list[tuple[float, int]]], rescan: bool) -> None:
    """Record the kept pairs (p, q) whose birth gap is below diag(p).

    A kept pair has birth gap <= cost < the diag of one of its ends, so the
    scans from both sides find it. Each p scans Q outward from its own birth
    and stops where the gap reaches diag(p); the gap grows monotonically
    along sorted births, rounding included. With ``rescan``, pairs whose gap
    is below diag(q) were recorded from Q's side and are skipped.
    """
    births = [q[0] for q in Q]
    for i, (x, y, r) in enumerate(P):
        start = bisect_left(births, x)
        for j, step, stop in ((start, 1, len(Q)), (start - 1, -1, -1)):
            while j != stop:
                xq, yq, rq = Q[j]
                gap = abs(x - xq)
                if gap >= r:
                    break
                if not (rescan and gap < rq):
                    # interval_cost's sup-norm gap, inlined; same float either way round
                    dy = abs(y - yq)
                    cost = gap if gap >= dy else dy
                    if cost < r or cost < rq:
                        rows_p[i].append((cost, j))
                        rows_q[j].append((cost, i))
                j += step


def _sorted_rows(rows: list[list[tuple[float, int]]]) -> list[_Row]:
    out = []
    for row in rows:
        row.sort()
        out.append(([c for c, _ in row], [v for _, v in row]))
    return out


def _covers(rows: list[_Row], diag: list[float], delta: float, match: list[int]) -> bool:
    """Whether one matching along pairs of cost <= delta covers every vertex
    whose deletion cost exceeds delta.

    ``match`` maps each right vertex to its left partner or -1. On entry it is
    a matching valid at delta (pairs of cost <= delta); partners that need no
    cover are released, and it is grown in place by augmenting paths.
    """
    adj = {}
    for u, d in enumerate(diag):
        if d > delta:
            costs, nbrs = rows[u]
            k = bisect_right(costs, delta)
            if not k:
                return False
            adj[u] = nbrs[:k]
    if len(adj) > len(match):
        return False
    covered = set()
    for v, u in enumerate(match):
        if u >= 0:
            if u in adj:
                covered.add(u)
            else:
                match[v] = -1
    seen = [-1] * len(match)
    return all(root in covered or _augment(root, adj, match, seen) for root in adj)


def _augment(root: int, adj: dict[int, list[int]], match: list[int], seen: list[int]) -> bool:
    """Depth-first search for an augmenting path from ``root``; flips it if found.

    ``us[k]`` reached ``us[k + 1]`` through the right vertex ``vs[k]``, which
    ``us[k + 1]`` is matched to. ``seen`` marks right vertices with the root
    that last visited them.
    """
    us, vs, todo = [root], [], [iter(adj[root])]
    while todo:
        for v in todo[-1]:
            if seen[v] == root:
                continue
            seen[v] = root
            w = match[v]
            if w < 0:
                match[v] = us[-1]
                for u, v2 in zip(us, vs):
                    match[v2] = u
                return True
            us.append(w)
            vs.append(v)
            todo.append(iter(adj[w]))
            break
        else:
            todo.pop()
            us.pop()
            if vs:
                vs.pop()
    return False


def _finite_feasible(graph: _Graph, delta: float, match_a: list[int],
                     match_b: list[int]) -> bool:
    """The two one-sided coverage tests, growing the given matchings in place."""
    diag_a, diag_b, rows_a, rows_b = graph
    return _covers(rows_a, diag_a, delta, match_a) and _covers(rows_b, diag_b, delta, match_b)


def _finite_distance(A: _Side, B: _Side) -> float:
    """Least candidate cost at which the finite parts can be matched."""
    graph = _finite_graph(A, B)
    diag_a, diag_b, rows_a, rows_b = graph
    lower = max(min(d, costs[0]) if costs else d
                for diag, rows in ((diag_a, rows_a), (diag_b, rows_b))
                for d, (costs, _) in zip(diag, rows))
    candidates = {d for d in diag_a if d >= lower}
    candidates.update(d for d in diag_b if d >= lower)
    for costs, _ in rows_a:
        candidates.update(costs[bisect_left(costs, lower):])
    ordered = sorted(candidates)
    # Feasibility is monotone in delta and holds at the largest deletion
    # cost, which every kept pair undercuts. The lower bound is often the
    # optimum on nearby barcodes, so it is tested first. A matching grown at
    # an infeasible delta stays valid at every larger one and seeds the next
    # test.
    match_a, match_b = [-1] * len(diag_b), [-1] * len(diag_a)
    lo, hi, mid = 0, len(ordered) - 1, 0
    while lo < hi:
        trial_a, trial_b = match_a[:], match_b[:]
        if _finite_feasible(graph, ordered[mid], trial_a, trial_b):
            hi = mid
        else:
            lo = mid + 1
            match_a, match_b = trial_a, trial_b
        mid = (lo + hi) // 2
    return ordered[lo]


def feasible(A: Barcode, B: Barcode, delta: float) -> bool:
    """Decide whether a partial matching exists with all costs <= delta:
    matched pairs within interval_cost, every unmatched interval within
    diagonal_cost."""
    ess_a, fin_a = _split(A)
    ess_b, fin_b = _split(B)
    if ess_a or ess_b:
        if _essential_distance(ess_a, ess_b) > delta:
            return False
    graph = _finite_graph(fin_a, fin_b)
    return _finite_feasible(graph, delta, [-1] * len(fin_b), [-1] * len(fin_a))


def bottleneck_distance(A: Barcode, B: Barcode) -> float:
    """Minimum delta for which a feasible matching exists.

    Returns +inf exactly when the essential-interval counts differ (no
    matching can ever pair an essential with a finite interval or delete it).
    """
    ess_a, fin_a = _split(A)
    ess_b, fin_b = _split(B)
    parts = []
    if ess_a or ess_b:
        parts.append(_essential_distance(ess_a, ess_b))
        if math.isinf(parts[0]):
            return math.inf
    if fin_a or fin_b:
        parts.append(_finite_distance(fin_a, fin_b))
    # Integer endpoints (from hand-written JSON) still give a float.
    return float(max(parts, default=0.0))
