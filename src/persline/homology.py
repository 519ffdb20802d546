"""One-parameter persistent homology over F2 and the multiparameter rank invariant.

Barcodes come from plain left-to-right column reduction of the boundary
matrix, with columns stored as integer bitmasks (xor = addition over F2).
Homology in degree d depends only on the boundary maps of degrees d and
d + 1, so only the columns of the d- and (d + 1)-simplices are reduced, less
what a complex takes out once (:meth:`MultiFilteredComplex._relations`): the
(d + 1)-simplices that are sums of earlier relations, then the pairs of a
(d + 1)-simplex and a facet of the same grade, whose other cofaces take up the
pair's boundary. All three cuts are exact. One engine,
:func:`_value_pairs`, pairs value rows over those simplices. The degree-d
pairing depends only on the order of the d- and (d + 1)-simplices, not on
the values: that order is the cache key and the whole input of the one
reduction, :func:`_pairs`. A pairing is cached as the indices of the f
creators of the classes that die, their f destroyers and the e creators of
the classes that never die (f and e depend only on the complex and the
degree: rank d does not depend on the order), and a block of rows is one
gather of its values through them. Lines feed it their push values
(:func:`_line_values`); ``matching`` and ``stability`` hand the blocks to
``bottleneck._block_distances``, which matches them as they are;
:func:`line_barcodes` reads the rows as intervals, and a scalar filtration
is its one-parameter case (:func:`compute_barcode`). The rank invariant of
H(K_u) -> H(K_v) is one row: K_u enters at 0, K_v \\ K_u at 1 and the rest
at 2, and the rank is the number of classes born at 0 still alive at 1.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .complexes import (
    Grade,
    Line,
    MultiFilteredComplex,
    ScalarFiltration,
    _canonical_lines,
    _line_arrays,
    push_values,
)

# push entries (lines x kept simplices) in one block: bounds the line engine's push, sort and
# gather arrays however many lines there are (:func:`_block_lines`)
_BLOCK_ENTRIES = 1 << 14


class Interval(NamedTuple):
    """Half-open interval [birth, death) of a given homology degree: the
    (birth, death, degree) row that barcode JSON is read into.

    ``death`` is math.inf for essential classes. Zero-length intervals are
    never emitted by the reduction.
    """

    birth: float
    death: float
    degree: int

    @property
    def essential(self) -> bool:
        return math.isinf(self.death)


Barcode = tuple[Interval, ...]


def _pairs(order: list[int], boundary: Sequence[tuple[int, ...]], low: int, mid: int, essential: int
           ) -> tuple[list[int], list[int], list[int]]:
    """Persistence pairs in degree d of the filtration whose cache key is ``order``.

    ``order`` lists the d-simplices, indices in [low, mid), and the (d + 1)-simplices,
    indices from mid on, as the filtration adds them, each after its faces;
    ``boundary[i]`` lists the faces of simplex i. Returns three lists of simplex
    indices: the creators of the classes that die, their destroyers (in the same
    order), and the creators of the classes that never die.

    A d-face's row is its place in ``order``, after every (d - 1)-face, whose row is
    its own index. That is exact: whether a d-column reduces to zero, all that is
    read of it, does not depend on the order of the rows (it does exactly when its
    boundary is a sum of earlier ones). A reduced column's pivot is a creator not yet
    paired, so a (d + 1)-column is zero, and is skipped, while no creator is unpaired;
    and once every d-simplex is placed and only ``essential`` classes are unpaired
    (their number, which the order does not change; -1 while it is not known).
    """
    pos = list(range(mid))  # rows; a d-simplex's is set when it is placed
    left = mid - low  # d-simplices not yet placed
    pivots: dict[int, int] = {}
    killer: dict[int, int] = {}
    creators: list[int] = []
    for j, i in enumerate(order, low):
        top = i >= mid
        if not top:
            pos[i], left = j, left - 1
        elif len(creators) == len(killer):
            continue
        elif not left and len(creators) - len(killer) == essential:
            break
        col = 0
        for f in boundary[i]:
            col ^= 1 << pos[f]
        while col:
            row = col.bit_length() - 1
            prev = pivots.get(row)
            if prev is None:
                pivots[row] = col
                if top:
                    killer[row] = i
                break
            col ^= prev
        if not (col or top):  # a d-column reduced to zero
            creators.append(j)
    born = [j for j in creators if j in killer]
    kept = [order[j - low] for j in creators if j not in killer]
    return [order[j - low] for j in born], [killer[j] for j in born], kept


def compute_barcode(F: ScalarFiltration, degree: int) -> Barcode:
    """Barcode of the sublevel persistence module of F in one degree.

    The one-parameter view of the line engine: F's complex along the line
    s*(1,) + (0,), whose push (g - 0.0) / 1.0 is g bit for bit, signed zeros
    included. A degree above the dimension of F gives the empty barcode.
    """
    return line_barcodes(F.complex, [Line((1.0,), (0.0,))], degree)[0]


def line_barcodes(M: MultiFilteredComplex, lines: Sequence[Line], degree: int) -> list[Barcode]:
    """Barcodes of M restricted to each line, in one batch (:func:`_line_values`)."""
    return [tuple(sorted([Interval(b, d, degree) for b, d in zip(row[:f], row[f : 2 * f]) if d > b]
                         + [Interval(b, math.inf, degree) for b in row[2 * f :]]))
            for values, f in _line_values(M, *_line_arrays(lines, M.dim), degree)
            for row in map(np.ndarray.tolist, values)]  # a row at a time: a block of floats is large


def _block_lines(degree: int, *complexes: MultiFilteredComplex) -> int:
    """Lines per block for the line engine in ``degree`` on each of ``complexes``: _BLOCK_ENTRIES
    over the most simplices one of them keeps (at least 16), and at least one. So a block holds
    at most 1,024 lines, and 128 lines at 128 kept simplices; one size serves every complex."""
    return max(1, _BLOCK_ENTRIES // max(16, *(len(X._relations(degree)[0]) for X in complexes)))


def _line_values(M: MultiFilteredComplex, directions: np.ndarray, offsets: np.ndarray, degree: int,
                 block: int | None = None) -> Iterator[tuple[np.ndarray, int]]:
    """:func:`_value_pairs` of M's push values onto the lines of the (k, n) canonical line
    arrays ``directions`` and ``offsets``, ``block`` lines at a time (by default M's
    :func:`_block_lines`); row r is line r's.

    Overflow (ValueError naming the first simplex and line, in line order) is looked for only on
    the lines where the push of the componentwise min grade of M's simplices of dimension <=
    degree + 1 is -inf or that of their max +inf: pushes are monotone, so elsewhere every push,
    of dropped relations too, is finite. Those flagged lines are pushed one at a time, in line
    order, all before the first block is yielded.
    """
    if directions.shape[1] != M.dim:
        raise ValueError(f"complex dimension {M.dim} != line dimension {directions.shape[1]}")
    grades, G = M.grade_array[M._relations(degree)[0]], M.grade_array[: M.skeleton(degree)]
    block = block or _block_lines(degree, M)
    ends = push_values(np.vstack((G.min(axis=0, initial=math.inf), G.max(axis=0, initial=-math.inf))),
                       directions, offsets)
    flagged = ~((ends[:, 0] > -math.inf) & (ends[:, 1] < math.inf))
    for m, b in zip(directions[flagged, None], offsets[flagged, None]):  # (1, n) each, in line order
        bad = np.flatnonzero(~np.isfinite(push_values(G, m, b)))
        if len(bad):
            raise ValueError(f"simplex {M.table[bad[0]]}: push onto {_canonical_lines(m, b)[0]} overflows")
    yield from _value_pairs(M, (push_values(grades, directions[s : s + block], offsets[s : s + block])
                                for s in range(0, len(directions), block)), degree)


def _value_pairs(M: MultiFilteredComplex, blocks: Iterable[np.ndarray], degree: int
                 ) -> Iterator[tuple[np.ndarray, int]]:
    """Per (rows, n) array of ``blocks``, value rows over M's relation subset for ``degree``
    in table order: the persistence pairs of each row's filtration as one (rows, 2f + e)
    array of its values, with f. A row holds f finite births, their f deaths (zero-length
    pairs kept) and e essential births; f and e depend only on M and ``degree``.

    A stable argsort of each row orders the simplices by (value, dimension, vertex ids),
    faces first. The pairing is cached for the call by the order of the d- and
    (d + 1)-simplices alone (d = degree), all that :func:`_pairs` reads: whether a
    d-column reduces to zero depends only on which d-simplices come before it, and the
    low of a reduced (d + 1)-column only on the order of the d-simplices and the
    (d + 1)-columns before it. A cache entry is the 2f + e indices of a pairing in the
    narrowest integer type that holds them, so that a cache of many orders stays small.
    The rows of a block with one key share one lookup (np.unique over the keys).
    """
    keep, boundary = M._relations(degree)
    # local indices: below low the (d - 1)-faces, all kept; from mid on the (d + 1)-simplices
    low, mid = M.skeleton(degree - 2), int(np.searchsorted(keep, M.skeleton(degree - 1)))
    key_type = np.min_scalar_type(len(keep) - 1)  # the narrowest keeps large caches small
    cache: dict[bytes, np.ndarray] = {}
    finite = essential = -1
    for P in blocks:
        orders = np.argsort(P, axis=1, kind="stable").astype(key_type)
        keys = orders[orders >= low].reshape(len(P), -1)  # row r's cache key
        # one void per row, to find the distinct keys; empty keys (no d-simplex) are all one
        rows = keys.view(np.dtype((np.void, keys.shape[1] * keys.itemsize)))[:, 0] if keys.size \
            else np.zeros(len(P), "V1")
        _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
        entries = []
        for r in first.tolist():
            entry = cache.get(key := keys[r].tobytes())
            if entry is None:
                born, killed, kept = _pairs(np.frombuffer(key, key_type).tolist(), boundary, low, mid, essential)
                finite, essential = len(born), len(kept)
                entry = cache[key] = np.array(born + killed + kept, dtype=key_type)
            entries.append(entry)
        yield np.take_along_axis(P, np.array(entries, dtype=np.intp)[inverse.reshape(-1)], axis=1), finite


@dataclass(frozen=True)
class RankQuery:
    """Query for the rank of the transition map H(K_u) -> H(K_v), u <= v."""

    u: Grade
    v: Grade
    degree: int

    def __post_init__(self):
        for name, g in (("u", self.u), ("v", self.v)):
            if any(math.isnan(x) for x in g):
                raise ValueError(f"grade {name} {g} has a NaN coordinate")
        if not all(a <= b for a, b in zip(self.u, self.v)):
            raise ValueError(f"rank query requires u <= v, got u={self.u}, v={self.v}")


def rank_invariant(M: MultiFilteredComplex, q: RankQuery) -> int:
    """Rank over F2 of the inclusion-induced map H(K_u) -> H(K_v).

    One value row of :func:`_value_pairs` over M's relation subset for the degree, which
    leaves every rank as it is: 0 on K_u, 1 on K_v \\ K_u and 2 elsewhere, a filtration
    of the whole complex. The rank is the number of classes born at 0 that die at 2 or never.
    """
    for name, g in (("u", q.u), ("v", q.v)):
        if len(g) != M.dim:
            raise ValueError(f"grade {name} has {len(g)} coordinates, expected {M.dim}")
    grades = M.grade_array[M._relations(q.degree)[0]]
    row = 2 - (grades <= q.v).all(axis=1) - (grades <= q.u).all(axis=1)
    (values,), f = next(_value_pairs(M, [row[None]], q.degree))
    return int(((values[:f] == 0) & (values[f : 2 * f] == 2)).sum() + (values[2 * f :] == 0).sum())


def strict_dumps(value) -> str:
    """Strict JSON text of one value: an infinite float is null, NaN raises ValueError, and anything
    else is json.dumps(value, allow_nan=False), which walks no dict or list for infinities. The sign
    of an infinity is not kept: only a stability report's margin can be -inf, and its globalPass
    (false) tells it from +inf. :func:`_table` writes each float cell of the per-line tables so."""
    if isinstance(value, float) and math.isinf(value):
        return "null"
    return json.dumps(value, allow_nan=False)


def _table(row: str, floats: Iterable[Sequence[float]], *texts: Iterable[str], strict: bool = True,
           sep: str = ", ") -> str:
    """``row % cells`` for each row of the columns, joined by ``sep``: the cells of the float
    columns ``floats`` (1-d, read as float64), then those of the ``texts``. A float's text is
    float.__repr__, or, if ``strict``, its strict_dumps (null for an infinity, json's ValueError
    for NaN): for a float that is what json.dumps writes. Each distinct bit pattern of a
    column (0.0 and -0.0 apart) is formatted once, and the rows are filled in C."""
    cells = []
    for values in floats:
        bits, at = np.unique(np.asarray(values, np.float64).view(np.uint64), return_inverse=True)
        unique = bits.view(np.float64)
        column = list(map(float.__repr__, unique.tolist()))
        if strict:
            for i in np.flatnonzero(~np.isfinite(unique)).tolist():
                column[i] = strict_dumps(float(unique[i]))
        cells.append(map(column.__getitem__, at.tolist()))
    return sep.join(map(row.__mod__, zip(*cells, *texts)))


def barcode_to_json(barcode: Barcode) -> str:
    """JSON array of {degree, birth, death}, an infinite endpoint (an essential death) null.

    Sorted by (degree, birth, death) so equal barcodes serialize identically.
    """
    ordered = sorted(barcode, key=lambda iv: (iv.degree, iv.birth, iv.death))
    null = lambda x: None if x in (math.inf, -math.inf) else x
    return strict_dumps([{"degree": iv.degree, "birth": null(iv.birth), "death": null(iv.death)}
                         for iv in ordered])


def _barcode_rows(text: str) -> list[tuple[float, float, int]]:
    """Barcode JSON as (birth, death, degree) rows, death inf for null. A bad item
    raises ValueError naming it; types are checked before any arithmetic."""
    try:
        items = json.loads(text)
    except RecursionError:  # arrays or objects nested past the interpreter's recursion limit
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(items, list):
        raise ValueError("expected a JSON array of intervals")
    try:
        rows = [(it["birth"], math.inf if it["death"] is None else it["death"], it["degree"]) for it in items]
    except (KeyError, TypeError):  # the first item that is not an object with these keys
        item = next(it for it in items
                    if not isinstance(it, dict) or not it.keys() >= {"birth", "death", "degree"})
        raise ValueError(f"bad interval {item!r}: expected an object with keys birth, death "
                         "and degree") from None
    inf, number = math.inf, (float, int)  # a bool is not a number here
    for birth, death, degree in rows:
        if type(degree) is not int or degree < 0 or type(birth) not in number or type(death) not in number:
            raise ValueError(f"bad interval {Interval(birth, death, degree)}: "
                             "degree must be an int >= 0; birth and death numbers, not booleans")
        try:  # float() of an integer too large for a float raises OverflowError
            fits = math.isfinite(birth) and (death == inf or 0.0 <= float(death - birth) < inf)
        except OverflowError:
            fits = False
        if not fits:
            raise ValueError(f"bad interval {Interval(birth, death, degree)}: birth must be "
                             "finite, death >= birth or null, death - birth a finite float")
    return rows


def barcode_from_json(text: str) -> Barcode:
    """Inverse of barcode_to_json; a bad interval or a non-array raises ValueError."""
    return tuple(Interval(*row) for row in _barcode_rows(text))
