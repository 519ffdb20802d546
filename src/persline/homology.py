"""One-parameter persistent homology over F2 and the multiparameter rank invariant.

Barcodes come from plain left-to-right column reduction of the boundary
matrix, with columns stored as integer bitmasks (xor = addition over F2).
Homology in degree d depends only on the boundary maps of degrees d and
d + 1, so only simplices of dimension <= d + 1 are reduced; the truncation
is exact. The persistence pairing depends only on the simplex order, not on
the entry values, so lines that order a complex alike share one reduction.
The rank invariant of a transition map H(K_u) -> H(K_v) is read off one
filtration of the whole complex: K_u enters at 0, K_v \\ K_u at 1 and the
rest at 2, and the rank equals the number of classes born at 0 that are
still alive at 1.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .complexes import (
    Grade,
    Line,
    MultiFilteredComplex,
    ScalarFiltration,
    Simplex,
    face_indices,
    leq,
    push_values,
)

# lines whose push values are held at once: bounds the temporaries of
# line_barcodes to a few (LINE_BLOCK, N) arrays however many lines there are
LINE_BLOCK = 128


@dataclass(frozen=True, order=True)
class Interval:
    """Half-open interval [birth, death) of a given homology degree.

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


def order_simplices(F: ScalarFiltration) -> list[tuple[Simplex, float]]:
    """Total order by (entry value, dimension, lexicographic vertex ids).

    Monotonicity of F guarantees every face precedes its cofaces.
    """
    return sorted(F.simplices, key=lambda sv: (sv[1], len(sv[0]), sv[0]))


def _pairs(
    order: Sequence[int], boundary: Sequence[tuple[int, ...]], degree: int, essential: int = -1
) -> list[tuple[int, int]]:
    """Persistence pairs in one degree of the filtration that adds simplices in ``order``.

    ``boundary[i]`` lists the faces of simplex i; every face comes before its
    cofaces in ``order``. Returns (creator, destroyer) simplex indices for
    the classes of degree ``degree``, with -1 for a class that never dies.

    Only columns of dimension ``degree`` and ``degree + 1`` are reduced;
    lower ones never meet them. A reduced column's pivot is a creator not
    yet paired, so a (degree + 1)-column is zero, and is skipped, while no
    creator is unpaired; and, when ``essential`` (the number of classes
    that never die, which the order does not change) is known, once every
    degree-simplex is placed and only the essential classes are unpaired.
    """
    pos = [0] * len(order)
    for j, i in enumerate(order):
        pos[i] = j
    # a k-simplex has k + 1 faces and a vertex none: columns are told apart by that count
    own, up = (degree + 1 if degree else 0), degree + 2
    left = list(map(len, boundary)).count(own)  # degree-simplices not yet placed
    pivots: dict[int, int] = {}
    killer: dict[int, int] = {}
    creators: list[int] = []
    for j, i in enumerate(order):
        n_faces = len(boundary[i])
        if n_faces == own:
            left -= 1
        elif n_faces != up or len(creators) == len(killer):
            continue
        elif not left and len(creators) - len(killer) == essential:
            break
        col = 0
        for f in boundary[i]:
            col ^= 1 << pos[f]
        while col:
            low = col.bit_length() - 1
            prev = pivots.get(low)
            if prev is None:
                pivots[low] = col
                if n_faces == up:
                    killer[low] = i
                break
            col ^= prev
        else:
            if n_faces != up:
                creators.append(j)
    return [(order[j], killer.get(j, -1)) for j in creators]


def _intervals(pairs: list[tuple[int, int]], values: list[float], degree: int) -> Barcode:
    """Sorted intervals of the given creator/destroyer pairs; zero-length ones dropped."""
    intervals: list[Interval] = []
    for i, j in pairs:
        birth = values[i]
        if j < 0:
            intervals.append(Interval(birth, math.inf, degree))
        elif values[j] > birth:
            intervals.append(Interval(birth, values[j], degree))
    intervals.sort()
    return tuple(intervals)


def _check_degree(degree: int) -> None:
    if degree < 0:
        raise ValueError(f"degree {degree} is negative")


def compute_barcode(F: ScalarFiltration, degree: int) -> Barcode:
    """Barcode of the sublevel persistence module of F in one degree.

    A degree above the dimension of F gives the empty barcode.
    """
    _check_degree(degree)
    kept = [sv for sv in order_simplices(F) if len(sv[0]) <= degree + 2]
    boundary = face_indices([s for s, _ in kept])
    return _intervals(_pairs(range(len(kept)), boundary, degree), [v for _, v in kept], degree)


def line_barcodes(M: MultiFilteredComplex, lines: Sequence[Line], degree: int) -> list[Barcode]:
    """Barcodes of M restricted to each line, in one batch.

    Equal, line by line, to ``compute_barcode(restrict(M, L), degree)``.
    It reads the prefix of M's face-index table that holds the simplices of
    dimension <= degree + 1. The push values of a block of lines are one
    array, checked for overflow only (ValueError): the push is monotone, and
    M was checked face <= coface when built. The table is in the (dimension,
    vertex ids) tiebreak order, so a stable argsort of each row is the total
    order of :func:`order_simplices`. The pairing is cached by that order for
    the length of this call, so each distinct order is reduced once; births
    and deaths are then read from each line's own push values.
    """
    return [_intervals(pairs, values, degree) for pairs, values in _line_pairs(M, lines, degree)]


def _line_pairs(M: MultiFilteredComplex, lines: Sequence[Line], degree: int
                ) -> Iterator[tuple[list[tuple[int, int]], list[float]]]:
    """Per line, the creator/destroyer pairs (-1: never destroyed) and the push values."""
    for L in lines:
        if L.dim != M.dim:
            raise ValueError(f"complex dimension {M.dim} != line dimension {L.dim}")
    _check_degree(degree)
    size = M.skeleton(degree)
    if not size or len(M.table[size - 1]) <= degree:  # no simplex of dimension degree
        yield from [([], [])] * len(lines)
        return
    boundary = M.boundary[:size]
    # a key is a whole order; the narrowest index type keeps large caches small
    key_type = np.min_scalar_type(size - 1)
    cache: dict[bytes, list[tuple[int, int]]] = {}
    essential = -1
    for start in range(0, len(lines), LINE_BLOCK):
        P = push_values(M.grade_array[:size], lines[start : start + LINE_BLOCK])
        if not np.isfinite(P).all():
            k, i = np.argwhere(~np.isfinite(P))[0]
            raise ValueError(f"simplex {M.table[i]}: push onto {lines[start + k]} overflows")
        orders = np.argsort(P, axis=1, kind="stable").astype(key_type)
        for values, order in zip(P, orders):
            key = order.tobytes()
            pairs = cache.get(key)
            if pairs is None:
                pairs = cache[key] = _pairs(order.tolist(), boundary, degree, essential)
                essential = sum(1 for _, j in pairs if j < 0)
            yield pairs, values.tolist()


def betti_at(M: MultiFilteredComplex, u: Grade, degree: int) -> int:
    """dim over F2 of H_degree of the sublevel complex at u: the rank of the identity map."""
    return rank_invariant(M, RankQuery(u, u, degree))


@dataclass(frozen=True)
class RankQuery:
    """Query for the rank of the transition map H(K_u) -> H(K_v), u <= v."""

    u: Grade
    v: Grade
    degree: int

    def __post_init__(self):
        if not leq(self.u, self.v):
            raise ValueError(f"rank query requires u <= v, got u={self.u}, v={self.v}")


def rank_invariant(M: MultiFilteredComplex, q: RankQuery) -> int:
    """Rank over F2 of the inclusion-induced map H(K_u) -> H(K_v).

    One value row over M's face-index table, 0 on K_u, 1 on K_v \\ K_u and
    2 elsewhere, is a filtration of the whole complex; the rank is the
    number of classes born at 0 that die after 1 or never. Only the
    simplices of dimension <= degree + 1 are read.
    """
    for name, g in (("u", q.u), ("v", q.v)):
        if len(g) != M.dim:
            raise ValueError(f"grade {name} has {len(g)} coordinates, expected {M.dim}")
    _check_degree(q.degree)
    size = M.skeleton(q.degree)
    grades = M.grade_array[:size]
    row = (2 - (grades <= q.v).all(axis=1) - (grades <= q.u).all(axis=1)).tolist()
    order = sorted(range(size), key=row.__getitem__)
    pairs = _pairs(order, M.boundary[:size], q.degree)
    return sum(1 for i, j in pairs if row[i] == 0 and (j < 0 or row[j] == 2))


def strict_dumps(payload) -> str:
    """Strict JSON text: an infinite float is written as null; NaN raises ValueError.

    Payloads without a non-finite float, nearly all of them, are dumped
    directly; only when that raises is the payload walked for infinities.
    The sign of an infinity is not kept: only a stability report's margin
    can be -inf, and its globalPass (false) tells it from +inf.
    """
    try:
        return json.dumps(payload, allow_nan=False)
    except ValueError:
        return json.dumps(_inf_to_null(payload), allow_nan=False)


def _inf_to_null(value):
    if isinstance(value, float):
        return None if math.isinf(value) else value
    if isinstance(value, dict):
        return {k: _inf_to_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_inf_to_null(v) for v in value]
    return value


def barcode_to_json(barcode: Barcode) -> str:
    """JSON array of {degree, birth, death}, death null for infinity.

    Sorted by (degree, birth, death) so equal barcodes serialize identically.
    """
    ordered = sorted(barcode, key=lambda iv: (iv.degree, iv.birth, iv.death))
    return strict_dumps(
        [{"degree": iv.degree, "birth": iv.birth, "death": iv.death} for iv in ordered]
    )


def barcode_from_json(text: str) -> Barcode:
    """Inverse of barcode_to_json; NaN, a non-finite birth or death < birth raise ValueError."""
    items = json.loads(text)
    barcode = tuple(
        Interval(it["birth"], math.inf if it["death"] is None else it["death"], it["degree"])
        for it in items
    )
    for iv in barcode:
        if not math.isfinite(iv.birth) or not iv.death >= iv.birth:
            raise ValueError(f"bad interval {iv}: birth must be finite, death >= birth or null")
    return barcode
