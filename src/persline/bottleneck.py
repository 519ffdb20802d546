"""Exact bottleneck distance between barcodes; the feasibility test at a delta stays private.

Matched intervals pay the sup-norm gap of their endpoints; unmatched finite
intervals may be deleted to the diagonal at half their length; essential
intervals can only match essential intervals, and intervals match only within
their degree. Per degree the distance is the least threshold delta at which a
matching exists, so it is one of the pair or deletion costs, all >= +0.0; a
degree one side lacks is matched against nothing, and the distance of two
barcodes is the largest over their degrees. Three exact reductions keep the
search small:

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
   as that pair is kept when cheaper than diag(p). :func:`_bound` takes each
   side's half in numpy, its intervals a chunk at a time in birth order, each
   chunk against the other side's births within the chunk's largest diag
   (:func:`_window`): a pair costs at least its birth gap, so one past that
   window costs more than every diag in the chunk and lowers no min.
3. One-sided coverage. At delta, a matching is feasible iff it covers every
   interval whose deletion cost exceeds delta along pairs of cost <= delta
   (the rest are deleted); no pruning test is needed, since such an interval
   keeps all those pairs. By the Mendelsohn-Dulmage theorem one matching
   covers those intervals of both sides iff one matching covers those of A
   and another those of B, so each test is two one-sided bipartite matchings.

The bound is tested first (:func:`_covers`). A pair that joins a root at delta
has a birth gap <= delta < the root's diag, so a window of reach delta around a
chunk of roots, inside that of their largest diag, holds every such pair, and
np.nonzero of one boolean matrix lists them. A greedy pass gives each root its
first free partner; an augmenting path (explicit stack) is searched from each
root it leaves. Sides with at most _PASS_ENTRIES pairs skip the windows: one
matrix of every pair cost serves both halves of the bound and both covers. If a
side's roots are not all covered there, that side is searched apart from the
bound (reduction 3: each side's coverage only grows with delta, so the distance
is the larger of the two sides' least thresholds at which their roots are
covered). Each root left uncovered grows one alternating tree a layer at a
time: S holds the root and the matches of T, T the partners within delta of S,
each matched into S. When the tree cannot grow, S is a Hall violator: its roots
need |S| partners and have |T| = |S| - 1. It stays one at every threshold below
its next event, the least deletion cost in S or the least pair cost from S to a
partner outside T, since only those change S's roots or its partners; so no
threshold below that event is feasible, and delta rises to exactly it, and the
same tree goes on. The root is done when a path ends at a free partner or at
one whose match needs no cover at delta (flipped), or a vertex of S is deleted
at delta (the path to it flipped, unless it is the root); the matching stays
valid as delta rises. So every raise is forced, and the last delta covers every
root: it is the side's least threshold, a deletion or pair cost from the same
floats the test compares. A tree computes pair costs only from its own
vertices, one numpy row each: the root's to every partner, a later vertex's
only to the partners outside T whose birth gap is at most the least deletion
cost in S (delta never passes it in that tree; :func:`_window`). So no step
lists the pairs of an interval that no tree holds. Endpoints that are not all
floats (integers from hand-written JSON) keep Python's exact arithmetic in
object arrays (:func:`_arrays`).

Many lines at once. The line engine hands over M's and N's barcodes along a
block of lines as two arrays; :func:`_block_distances` alone matches them.
Every line has the same a finite and e essential pairs on M's side (and b, e'
on N's), zero-length pairs included: rank d does not depend on the order, so
every block of a call takes one of two paths. If the table of partial
matchings of a with b is small (:func:`_batched`), each one's cost is read off
one (lines, a*b + a + b + 1) array of pair and deletion costs, and the
distance is the min over matchings of the max over their columns, the larger
of that and the sorted essential births' gap; +inf when e != e'. Else one pass
(:func:`_pass_distances`) takes the block a chunk of lines at a time. It drops
the zero-length pairs (:func:`_live`), computes the chunk's pair costs once,
takes per line the max over both sides of min(diag(p), min_q cost(p, q)), the
lower bound, and looks for a matching at it on each side that covers the roots
(diag > the bound) along pairs of cost <= the bound (:func:`_covered`, greedy).
If both are found, by Mendelsohn-Dulmage (reduction 3) the bound is feasible:
it is the distance. The chunk's other lines go on from their bound, so the
greedy test need only be sound: bisected together on the same costs, cropped
to their own width (:func:`_bisected`), or, if one of them has more than
_HALL_WIDTH live pairs a side, searched one at a time (:func:`_sides`). A
block whose single line has more pair costs than _PASS_ENTRIES is searched
line by line with no bound.

The bisection's test is exact. By reduction 3 a line is feasible at delta iff
each side's roots are covered along pairs of cost <= delta, and by Hall's
theorem a side's roots are covered iff every set S of them has at least |S|
such partners (:func:`_hall`): at most 2**_HALL_WIDTH sets a side, each one
union of partner bitmasks and one popcount. Feasibility only grows with delta,
and changes only at a deletion cost or at a pair cost below one of its ends'
deletion costs (a pair that costs at least both ends' deletions joins no root
at its cost, as in reduction 2). So each line's candidates are its bound and
those costs above it, sorted, and one probe tests every line's middle
candidate; the least feasible one is the distance. The width cap is where the
2**width sets a probe outgrow the search (see _HALL_WIDTH). The paths agree bit
for bit:

- the pass computes the floats that :func:`_bound` and :func:`_covers`
  compare, so its bound is theirs, and a cover it finds proves their test
  passes at it;
- the bisection compares those floats too, and its test is exact, so it finds
  the least feasible candidate from the bound; the search finds each side's
  least threshold from the bound, and the larger of the two is that candidate;
- a zero-length pair is never a root (it is deleted at +0.0), and pairing it
  with p costs at least diag(p) (as below): more than the bound if p is a
  root, and never less than p's own min(diag(p), ...);
- the table pass is the min over matchings of the max over the same float
  costs that the threshold search compares (it tests the rounded endpoint
  differences against delta, and a cost is one of them, exactly halved for a
  deletion);
- the pairs with death <= birth that the split forms drop change no value,
  rounding included: none is a root (death < birth is only in library rows),
  and matching (b, d) to q costs max(fl|b - b_q|, fl|d - d_q|) >= diag(q) by
  monotone rounding and exact scaling by 2, so deleting q instead is no worse;
- a deletion costs |death - birth| / 2, so a pair with birth 0.0 and death
  -0.0 costs +0.0, and every cost, so every distance, is >= +0.0.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import chain, combinations, permutations
from typing import Iterable, Iterator

import numpy as np

from .homology import Barcode

# The largest matching table (partial matchings times columns, see
# _matching_table) for which a block of lines is matched in one numpy pass
# rather than from the certified lower bound (_pass_distances). The table pass's
# time grows with the table, the certified pass's hardly: on rips-matchdist's blocks
# of 128 lines (seed 1, AMD EPYC, numpy 2.4) they met near 2,000 entries (2x11
# intervals, 1,729 entries: 0.11 ms on both; 2x12, 2,198: 0.13 against 0.10 ms),
# and 2x17 (5,833) took 0.29 ms against 0.10 to 0.16 ms. 4x4 intervals (209
# matchings, 1,672 entries) are inside, as is every tiny-verify block; 2x12 is
# outside. The matchings alone do not bound it: 1 and b intervals have b + 1 of
# them, of b + 1 columns each.
_BATCH_ENTRIES = 2_000
# Bounds the numpy passes over a block, lines taken a chunk at a time: the largest temporaries
# hold at most _PASS_ENTRIES entries of at most 8 bytes each (512 KiB). They are the (lines, a',
# b') pair costs and adjacency of a chunk of the pass that certifies a line's lower bound
# (_pass_distances), the (lines, matchings) worst costs of the table pass (_table_distances),
# the (2 * lines, 2**width) subset unions of the bisection (_bisected), the (intervals, birth
# window) pair costs of a chunk of one side's lower bound (_bound) and of its roots at the bound
# (_covers), or the one matrix of every pair cost that both read if it is no larger
# (_finite_distance), and the (tree vertices, partners) pair costs of a layer of the search
# above the lower bound (_raised). A block whose single line has more pair costs than
# _PASS_ENTRIES is searched line by line with no bound.
_PASS_ENTRIES = 1 << 16
# The most live pairs a side for which the lines of a chunk that the certified bound leaves
# are bisected together (_bisected); if one is wider, that chunk's are searched one at a
# time. A probe tests 2**width sets of roots a side, so its cost doubles with each pair,
# while the search's grows slowly. On unsettled lines of near barcodes (uniform births
# and lengths, endpoints moved by N(0, 0.05); 10 lines a call, best of 7, 2-vCPU Xeon,
# numpy 2.4) the bisection took 0.051, 0.110 and 0.209 ms a line at widths 8, 11 and 12,
# the search 0.125, 0.162 and 0.178 ms. At 30 lines a call they met at width 12 (0.175
# against 0.179 ms). A call also costs about 0.3 ms however few its lines: one line alone
# is bisected 2.6x slower than it is searched, four break even. rips-matchdist's H0 blocks are 8 pairs wide and
# leave 1 to 38 lines each (median 7); rips25-H0's are 24 wide, rips40-H0's 19 to 39.
_HALL_WIDTH = 11
_ESSENTIAL_OVERFLOW = "two matched essential births differ by more than the largest float"
_Pairs = list[tuple[float, float, float]]  # finite (birth, death, half the length), sorted
_Side = np.ndarray  # (3, n): the births, deaths and half lengths of _Pairs, float64 or object


def _split(A: Iterable, B: Iterable) -> list[tuple[list[float], _Pairs, list[float], _Pairs]]:
    """Per degree of A or B: A's and B's essential births and finite (birth, death,
    diag) triples, each sorted. An Interval is a (birth, death, degree) row."""
    split: dict[int, tuple[list, list, list, list]] = {}
    for at, rows in ((0, A), (2, B)):
        for birth, death, degree in rows:
            parts = split.get(degree) or split.setdefault(degree, ([], [], [], []))
            if math.isinf(death):
                parts[at].append(birth)
            elif death > birth:
                parts[at + 1].append((birth, death, (death - birth) / 2.0))
    for parts in split.values():
        for part in parts:
            part.sort()
    return list(split.values())


def _arrays(A: _Pairs, B: _Pairs) -> tuple[_Side, _Side]:
    """A's and B's finite triples as :data:`_Side` arrays: float64 arrays, whose arithmetic is
    Python's, if every endpoint is a float, else object arrays, which keep Python's own."""
    exact = all(issubclass(kind, float) for kind in set(map(type, chain.from_iterable(A + B))))
    return tuple(np.fromiter(chain.from_iterable(side), float if exact else object, 3 * len(side)).reshape(-1, 3).T
                 for side in (A, B))


def _blocks(P: _Side, Q: _Side, rows: np.ndarray, cost: np.ndarray | None,
            reach: float | None = None) -> Iterator[tuple[np.ndarray, int, np.ndarray]]:
    """Each chunk of P's ``rows`` (in birth order), the start of its window of Q's births within
    ``reach`` of the chunk's (if None, within its largest diag; :func:`_window`), and their pair
    costs; one chunk against all of Q if ``cost``, every pair cost of P with Q, is given."""
    if cost is not None:
        yield rows, 0, cost[rows]
        return
    every = Q[0].tolist()
    step = max(_PASS_ENTRIES // max(len(every), 1), 1)  # (rows, window) <= _PASS_ENTRIES
    for start in range(0, len(rows), step):
        chunk = rows[start : start + step]
        births, deaths, diag = P[:, chunk]
        lo, hi = _window(every, births[0], births[-1], diag.max() if reach is None else reach)
        yield chunk, lo, np.maximum(np.abs(births[:, None] - Q[0, lo:hi]), np.abs(deaths[:, None] - Q[1, lo:hi]))


def _bound(P: _Side, Q: _Side, bound: float, cost: np.ndarray | None) -> float:
    """The larger of ``bound`` and each p's min(diag(p), min_q cost(p, q)), by :func:`_blocks`
    windowed by their largest diag: a pair past that window costs more than every diag there."""
    for rows, _, block in _blocks(P, Q, np.flatnonzero(P[2] > bound), cost):  # the rest cannot raise it
        bound = np.minimum(P[2, rows], block.min(axis=1, initial=math.inf)).max(initial=bound)
    return bound


def _covers(P: _Side, Q: _Side, delta: float, cost: np.ndarray | None) -> tuple[bool, list[int]]:
    """Whether one matching along pairs of cost <= delta covers every p whose deletion cost
    exceeds delta (the roots), and the matching found, each q's partner in P or -1: a greedy
    pass over partner lists, then augmenting paths from the roots it leaves."""
    roots, match = np.flatnonzero(P[2] > delta), [-1] * Q.shape[1]
    if len(roots) > len(match):
        return False, match
    partners, left = {}, []
    for chunk, lo, block in _blocks(P, Q, roots, cost, delta):
        rows, columns = np.nonzero(block <= delta)
        flat, ends, begin = (columns + lo).tolist(), np.cumsum(np.bincount(rows, minlength=len(chunk))).tolist(), 0
        for u, end in zip(chunk.tolist(), ends):
            partners[u], begin = flat[begin:end], end
            for v in partners[u]:
                if match[v] < 0:
                    match[v] = u
                    break
            else:
                left.append(u)
    # Every root is tried, so a failed test leaves _raised a larger start.
    # The stamp moves only on success: what a failed search saw stays dead.
    seen, stamp, ok = [-1] * len(match), 0, True
    for u in left:
        found = _augment(u, partners, match, seen, stamp)
        stamp, ok = stamp + found, ok and found
    return ok, match


def _augment(root: int, partners: dict[int, list[int]], match: list[int], seen: list[int], stamp: int) -> bool:
    """Depth-first search for an augmenting path from ``root``; flips it if found.

    ``us[k]`` reached ``us[k + 1]`` through the right vertex ``vs[k]``, which
    ``us[k + 1]`` is matched to. Right vertices marked ``stamp`` are skipped."""
    us, vs, todo = [root], [], [iter(partners[root])]
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
            todo.append(iter(partners[w]))
            break
        else:
            todo.pop()
            us.pop()
            if vs:
                vs.pop()
    return False


def _finite_distance(A: _Side, B: _Side, lower: float | None = None) -> float:
    """Least threshold at which the finite parts can be matched: the larger of the two
    sides' least thresholds from the lower bound (reduction 3); ``lower``, if given, is
    that bound (reduction 2)."""
    with np.errstate(over="ignore"):  # a pair cost past the largest float is +inf, as in Python
        costs = (None, None)
        if A.shape[1] * B.shape[1] <= _PASS_ENTRIES:  # one matrix of every pair cost serves each pass
            cost = np.maximum(np.abs(A[0, :, None] - B[0]), np.abs(A[1, :, None] - B[1]))
            costs = (cost, cost.T)
        if lower is None:
            lower = _bound(B, A, _bound(A, B, 0.0, costs[0]), costs[1])
        distance = lower
        for P, Q, cost in ((A, B, costs[0]), (B, A, costs[1])):
            covered, match = _covers(P, Q, lower, cost)
            if not covered:
                distance = max(distance, _raised(P, Q, lower, match))
        return distance


def _raised(P: _Side, Q: _Side, delta: float, match: list[int]) -> float:
    """Least threshold from ``delta`` at which one matching along pairs of cost <= it covers
    every p whose deletion cost exceeds it, by one alternating tree per root that ``match``,
    the matching :func:`_covers` found at ``delta``, leaves uncovered (see the module
    docstring)."""
    births_p, deaths_p, _ = P
    firsts, _, diag = columns = P.tolist()
    every = Q[0].tolist()  # Q's births, sorted
    step = max(_PASS_ENTRIES // max(len(match), 1), 1)  # (S vertices, partners) <= _PASS_ENTRIES a layer
    covered = set(match)
    for root, (x, y, r) in enumerate(zip(*columns)):
        if r <= delta or root in covered:
            continue
        (births, deaths), outside = Q[:2], np.arange(len(match))  # the partners outside T
        slack = np.maximum(np.abs(births - x), np.abs(deaths - y))  # their cheapest pair cost from S
        via = np.full(len(match), root)  # the vertex of S that has it
        parent, enter, layer, least, holder, end = {}, {}, [], r, root, None  # holder: S's least diag
        while end is None:
            for k in range(0, len(layer), step):
                chunk = layer[k : k + step]
                for u in chunk:
                    if diag[u] < least:
                        least, holder = diag[u], u
                # delta stays <= least, so only partners that close in birth can join
                lo, hi = np.searchsorted(outside, _window(every, min(firsts[u] for u in chunk),
                                                          max(firsts[u] for u in chunk), least)).tolist()
                new = np.array(chunk)
                cost = np.maximum(np.abs(births[lo:hi] - births_p[new, None]),
                                  np.abs(deaths[lo:hi] - deaths_p[new, None]))
                best = cost.argmin(axis=0)
                cost = cost[best, np.arange(hi - lo)]
                better = cost < slack[lo:hi]
                np.copyto(slack[lo:hi], cost, where=better)
                np.copyto(via[lo:hi], new[best], where=better)
            opened, layer = slack <= delta, []
            if not opened.any():
                delta = min(least, slack.min(initial=math.inf))
                if least <= delta:  # holder is deleted at delta
                    if holder == root:
                        break
                    end = enter[holder]
                continue
            for q, s in zip(outside[opened].tolist(), via[opened].tolist()):
                parent[q], u = s, match[q]
                if u < 0 or diag[u] <= delta:  # free, or its match needs no cover
                    end = q
                    break
                enter[u] = q
                layer.append(u)
            keep = ~opened
            outside, births, deaths, slack, via = (z[keep] for z in (outside, births, deaths, slack, via))
        while end is not None:  # flip the path from the root to end
            s = parent[end]
            match[end], end = s, enter.get(s)
    return delta


def _window(births: list[float], first: float, last: float, reach: float) -> tuple[int, int]:
    """The index range of the sorted ``births`` whose gap to some point of [first, last] can
    be at most ``reach``: the gap to ``first`` (``last``) grows leftward (rightward), rounding
    included, so each end is found by a bisection and a step past any rounded inside."""
    lo = bisect_left(births, first - reach)
    while lo and abs(first - births[lo - 1]) <= reach:
        lo -= 1
    hi = bisect_right(births, last + reach)
    while hi < len(births) and abs(births[hi] - last) <= reach:
        hi += 1
    return lo, hi


def bottleneck_distance(A: Barcode, B: Barcode) -> float:
    """Minimum delta for which a feasible matching exists: the largest per-degree distance.

    Returns +inf exactly when the essential-interval counts of a degree differ
    (no matching can ever pair an essential with a finite interval or delete
    it). A and B may also be lists of (birth, death, degree) rows.
    """
    return max((_split_distance(*parts) for parts in _split(A, B)), default=0.0)


def _split_distance(ess_a: list[float], fin_a: _Pairs, ess_b: list[float], fin_b: _Pairs) -> float:
    """One degree's distance from its :func:`_split` parts, essential births matched in sorted order."""
    if len(ess_a) != len(ess_b):
        return math.inf
    gap = max((abs(x - y) for x, y in zip(ess_a, ess_b)), default=0.0)  # 0.0 for two empty sides
    try:  # float() of an integer too large for a float raises OverflowError
        fits = float(gap) < math.inf
    except OverflowError:
        fits = False
    if not fits:
        raise ValueError(_ESSENTIAL_OVERFLOW)
    # Integer endpoints (from hand-written JSON) still give a float.
    return float(max(gap, _finite_distance(*_arrays(fin_a, fin_b))))


def _batched(a: int, b: int) -> bool:
    """Whether the matching table of a and b intervals has at most _BATCH_ENTRIES entries."""
    count, width = 0, max(a + b, 1)
    for k in range(min(a, b) + 1):
        count += math.comb(a, k) * math.perm(b, k)
        if count * width > _BATCH_ENTRIES:
            return False
    return True


@lru_cache(maxsize=16)
def _matching_table(a: int, b: int) -> np.ndarray:
    """Every partial matching of a intervals with b, as one column of max(a + b, 1)
    indices into a cost row [a*b pair costs, (i, j) at i*b + j | a deletions |
    b deletions | 0.0]: its pairs, the deletions of the unmatched, then 0.0.

    Built on first use and kept between calls, as ``cli.build_parser`` is and, per complex,
    ``MultiFilteredComplex._relation_cache``: at most 16 tables (every size pair up to
    3x3) of at most _BATCH_ENTRIES intp entries, 256 KB in all."""
    rows, zero = [], a * b + a + b
    for k in range(min(a, b) + 1):
        for I in combinations(range(a), k):
            for J in permutations(range(b), k):
                row = ([i * b + j for i, j in zip(I, J)] + [a * b + i for i in range(a) if i not in I]
                       + [a * b + a + j for j in range(b) if j not in J])
                rows.append(row + [zero] * (max(a + b, 1) - len(row)))
    table = np.array(rows, dtype=np.intp).T.copy()
    table.flags.writeable = False  # one cached table serves every caller
    return table


def _table_distances(A: np.ndarray, a: int, B: np.ndarray, b: int) -> np.ndarray:
    """The finite parts' distance per row, the min over the matching table of its worst cost."""
    with np.errstate(over="ignore"):
        births = np.abs(A[:, :a, None] - B[:, None, :b])
        deaths = np.abs(A[:, a : 2 * a, None] - B[:, None, b : 2 * b])
        pairs = np.maximum(births, deaths).reshape(len(A), a * b)
        costs = np.hstack((pairs, np.abs(A[:, a : 2 * a] - A[:, :a]) / 2.0,
                           np.abs(B[:, b : 2 * b] - B[:, :b]) / 2.0, np.zeros((len(A), 1))))
    columns, out = _matching_table(a, b), np.empty(len(A))
    step = max(_PASS_ENTRIES // columns.shape[1], 1)  # lines a chunk, (lines, matchings) <= _PASS_ENTRIES
    for start in range(0, len(A), step):
        chunk = costs[start : start + step]
        worst = chunk[:, columns[0]]  # one table column at a time bounds memory
        for column in columns[1:]:
            np.maximum(worst, chunk[:, column], out=worst)
        out[start : start + step] = worst.min(axis=1)
    return out


def _live(X: np.ndarray, x: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Births, deaths and diag of each row's finite pairs with death > birth, moved to
    the front and cropped to the most any row has; diag is -inf past a row's own."""
    births, deaths = X[:, :x], X[:, x : 2 * x]
    live = deaths > births
    order = np.argsort(~live, axis=1, kind="stable")[:, : live.sum(axis=1).max(initial=0)]
    births, deaths = np.take_along_axis(births, order, 1), np.take_along_axis(deaths, order, 1)
    with np.errstate(over="ignore"):
        diag = np.where(np.take_along_axis(live, order, 1), (deaths - births) / 2.0, -math.inf)
    return births, deaths, diag


def _pair_costs(births_a: np.ndarray, deaths_a: np.ndarray, diag_a: np.ndarray, births_b: np.ndarray,
                deaths_b: np.ndarray, diag_b: np.ndarray) -> np.ndarray:
    """Per row, the (a', b') costs of matching the live pairs of :func:`_live`: the larger
    endpoint gap, +inf where either is past its row's own. Those get birth +inf on A's side
    and -inf on B's, so each birth gap to or between them is +inf, whole rows and columns."""
    births_a = np.where(diag_a == -math.inf, math.inf, births_a)
    births_b = np.where(diag_b == -math.inf, -math.inf, births_b)
    with np.errstate(over="ignore"):
        return np.maximum(np.abs(births_a[:, :, None] - births_b[:, None, :]),
                          np.abs(deaths_a[:, :, None] - deaths_b[:, None, :]))


def _covered(adjacent: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Per row, whether a greedy matching in ``adjacent`` (rows, p, q) covers the row's
    roots (rows, p): the roots in order of fewest partners, each takes the free partner
    that the fewest roots share. A matching found proves the cover; False can also
    mean that the greedy order missed one, which :func:`_hall`'s exact test then finds."""
    near = adjacent & roots[:, :, None]
    shared, count = near.sum(axis=1), roots.sum(axis=1)
    order = np.argsort(np.where(roots, near.sum(axis=2), adjacent.shape[2] + 1), axis=1, kind="stable")
    free, ok, rows = np.ones_like(shared, dtype=bool), np.ones(len(roots), dtype=bool), np.arange(len(roots))
    for k in range(int(count.max(initial=0))):
        open_ = adjacent[rows, order[:, k]] & free
        pick = np.where(open_, shared, adjacent.shape[1] + 1).argmin(axis=1)
        found, root = open_[rows, pick], k < count
        free[rows[root & found], pick[root & found]] = False
        ok &= found | ~root
    return ok


def _sides(births: np.ndarray, deaths: np.ndarray, diag: np.ndarray) -> Iterator[_Side]:
    """Each row of :func:`_live`'s arrays as a _Side: its own pairs, by birth."""
    for side in np.stack((births, deaths, diag), axis=1):  # a row at a time: a block is large
        side = side[:, side[2] > -math.inf]
        yield side[:, np.argsort(side[0], kind="stable")]


def _hall(masks: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Per row, whether one matching covers the row's roots (rows, p): by Hall's theorem,
    whether every set S of them has at least |S| partners. ``masks`` (rows, p) holds each
    p's partners as uint64 bits; a non-root's is taken as all ones, whose popcount 64 is
    at least |S|, so a set that holds one passes."""
    width = masks.shape[1]
    unions = np.zeros((len(masks), 1 << width), np.uint64)  # column s: the union over the set s
    masks = np.where(roots, masks, ~np.uint64(0))
    for i in range(width):  # the sets of the first i + 1 columns that hold column i
        np.bitwise_or(unions[:, : 1 << i], masks[:, i : i + 1], out=unions[:, 1 << i : 2 << i])
    return (np.bitwise_count(unions) >= np.bitwise_count(np.arange(1 << width))).all(axis=1)


def _bisected(pair_cost: np.ndarray, diag_a: np.ndarray, diag_b: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Per row, the finite parts' distance: the least of ``lower`` and the row's candidate
    costs above it at which both sides pass :func:`_hall`, by one bisection of all rows.
    ``pair_cost`` (rows, p, q) and the diags are :func:`_pair_costs`' and :func:`_live`'s,
    with at most _HALL_WIDTH pairs a side."""
    p, q = diag_a.shape[1], diag_b.shape[1]
    width = max(p, q)
    out, step = np.empty(len(lower)), max(_PASS_ENTRIES >> (width + 1), 1)  # 2 * step * 2**width unions a chunk
    bits = np.left_shift(1, np.arange(width, dtype=np.uint64), dtype=np.uint64)
    for start in range(0, len(lower), step):
        rows = slice(start, start + step)
        k, low = len(lower[rows]), lower[rows, None]
        diag = np.full((2, k, width), -math.inf)  # each side's, padded to width: never a root
        diag[0, :, :p], diag[1, :, :q] = diag_a[rows], diag_b[rows]
        cost = np.full((k, width, width), math.inf)  # [r, i, j]: A's i with B's j
        cost[:, :p, :q] = pair_cost[rows]
        # the distance is lower, a deletion cost or a pair cost below an end's (reduction 2)
        useful = cost < np.maximum(diag[0, :, :, None], diag[1, :, None, :])
        every = np.hstack((np.where(useful, cost, math.nan).reshape(k, -1), diag[0], diag[1]))
        above = every >= low
        candidates = np.sort(np.hstack((low, np.where(above, every, math.inf))), axis=1)
        # hi: the last candidate, at or above every deletion cost, so no root: feasible
        n, lo, hi = np.arange(k), np.zeros(k, np.intp), above.sum(axis=1)
        for _ in range(int(hi.max(initial=0)).bit_length()):  # a settled row stays: lo == hi passes
            mid = (lo + hi) // 2
            delta = candidates[n, mid, None]
            adjacent = cost <= delta[:, :, None]
            ok = _hall(np.vstack((adjacent @ bits, bits @ adjacent)), (diag > delta).reshape(2 * k, width))
            ok = ok[:k] & ok[k:]
            lo, hi = np.where(ok, lo, mid + 1), np.where(ok, mid, hi)
        out[rows] = candidates[n, lo]
    return out


def _pass_distances(A: np.ndarray, a: int, B: np.ndarray, b: int) -> np.ndarray:
    """The finite parts' distance per row, past the table bound: a chunk of rows at a time,
    each row's lower bound certified, and the rows it leaves bisected, or searched from
    their bound if wider than _HALL_WIDTH (see the module docstring)."""
    live_a, live_b = _live(A, a), _live(B, b)
    step = _PASS_ENTRIES // max(live_a[2].shape[1] * live_b[2].shape[1], 1)  # rows a chunk
    if not step:  # one row's pair costs exceed _PASS_ENTRIES: each row searched with no bound
        return np.array([_finite_distance(x, y) for x, y in zip(_sides(*live_a), _sides(*live_b))])
    out = np.empty(len(A))
    for start in range(0, len(A), step):
        chunk_a, chunk_b = ([x[start : start + step] for x in live] for live in (live_a, live_b))
        cost, da, db = _pair_costs(*chunk_a, *chunk_b), chunk_a[2], chunk_b[2]
        # the lower bound, settled where a greedy cover of the roots is found at it on both sides
        low = np.maximum(np.minimum(da, cost.min(axis=2, initial=math.inf)).max(axis=1, initial=0.0),
                         np.minimum(db, cost.min(axis=1, initial=math.inf)).max(axis=1, initial=0.0))
        adjacent = cost <= low[:, None, None]
        out[start : start + step] = low
        rest = np.flatnonzero(~(_covered(adjacent, da > low[:, None])
                                & _covered(adjacent.transpose(0, 2, 1), db > low[:, None])))
        rest_a, rest_b = ([x[rest] for x in chunk] for chunk in (chunk_a, chunk_b))
        p, q = ((x[2] > -math.inf).sum(axis=1).max(initial=0) for x in (rest_a, rest_b))
        if max(p, q) <= _HALL_WIDTH:  # cropped to the leftover rows' own width
            out[start + rest] = _bisected(cost[rest, :p, :q], rest_a[2][:, :p], rest_b[2][:, :q], low[rest])
        else:
            for r, x, y in zip(rest, _sides(*rest_a), _sides(*rest_b)):
                out[start + r] = _finite_distance(x, y, float(low[r]))
    return out


def _block_distances(A: np.ndarray, a: int, B: np.ndarray, b: int) -> np.ndarray:
    """Bottleneck distance of each row of A with the same row of B, as a float array.

    A row holds a barcode's a finite births, their a deaths in the same order
    and its essential births; so does B's with b. One pass over the matching
    table (:func:`_table_distances`) or, past its bound, the certified lower
    bound with the rows it leaves bisected or searched (:func:`_pass_distances`;
    see the module docstring). An essential gap that overflows raises ValueError.
    """
    if A.shape[1] - 2 * a != B.shape[1] - 2 * b:  # the essential counts differ
        return np.full(len(A), math.inf)
    with np.errstate(over="ignore"):  # the sorted essential births' largest gap first, as in _split_distance
        gap = np.abs(np.sort(A[:, 2 * a :], axis=1) - np.sort(B[:, 2 * b :], axis=1)).max(axis=1, initial=0.0)
    if not (gap < math.inf).all():
        raise ValueError(_ESSENTIAL_OVERFLOW)
    return np.maximum(gap, (_table_distances if _batched(a, b) else _pass_distances)(A, a, B, b))
