"""One-parameter persistent homology over F2 and the multiparameter rank invariant.

Barcodes come from plain left-to-right column reduction of the boundary
matrix, with columns stored as integer bitmasks (xor = addition over F2).
The rank invariant of a transition map H(K_u) -> H(K_v) is read off a
two-step filtration: K_u enters at 0, K_v \\ K_u at 1, and the rank equals
the number of classes born at 0 that survive the whole filtration.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .complexes import (
    Grade,
    MultiFilteredComplex,
    ScalarFiltration,
    Simplex,
    faces,
    leq,
)


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


def _reduce(ordered: list[tuple[Simplex, float]]) -> tuple[dict[int, int], list[int], list[int]]:
    """Reduce the full boundary matrix.

    Returns (pivot row -> column index, reduced columns by index, zero columns).
    """
    index = {s: i for i, (s, _) in enumerate(ordered)}
    columns: list[int] = [0] * len(ordered)
    low_to_col: dict[int, int] = {}
    zeroed: list[int] = []
    for j, (simplex, _) in enumerate(ordered):
        col = 0
        for face in faces(simplex):
            col ^= 1 << index[face]
        while col:
            low = col.bit_length() - 1
            if low not in low_to_col:
                break
            col ^= columns[low_to_col[low]]
        columns[j] = col
        if col:
            low_to_col[col.bit_length() - 1] = j
        else:
            zeroed.append(j)
    return low_to_col, columns, zeroed


def compute_barcode(F: ScalarFiltration, degree: int) -> Barcode:
    """Barcode of the sublevel persistence module of F in one degree."""
    max_dim = F.max_dim()
    if degree < 0 or degree > max_dim:
        raise ValueError(f"degree {degree} out of range [0, {max_dim}]")
    ordered = order_simplices(F)
    low_to_col, _, zeroed = _reduce(ordered)
    paired = {i: j for i, j in low_to_col.items()}
    intervals: list[Interval] = []
    for i in zeroed:
        simplex_i, birth = ordered[i]
        if len(simplex_i) - 1 != degree:
            continue
        if i in paired:
            death = ordered[paired[i]][1]
            if death > birth:
                intervals.append(Interval(birth, death, degree))
        else:
            intervals.append(Interval(birth, math.inf, degree))
    intervals.sort()
    return tuple(intervals)


def betti_at(M: MultiFilteredComplex, u: Grade, degree: int) -> int:
    """dim over F2 of H_degree of the sublevel complex at u, by elimination."""
    sub = [s for s, g in M.simplices if leq(g, u)]
    return _homology_dim(sub, degree)


def _f2_rank(columns: list[int]) -> int:
    """Rank of a set of F2 column vectors given as bitmasks."""
    pivots: dict[int, int] = {}
    rank = 0
    for col in columns:
        while col:
            low = col.bit_length() - 1
            if low not in pivots:
                pivots[low] = col
                rank += 1
                break
            col ^= pivots[low]
    return rank


def _boundary_columns(simplices: list[Simplex], dim: int) -> list[int]:
    """Boundary matrix of dim-simplices as bitmask columns over (dim-1)-simplices."""
    rows = {s: i for i, s in enumerate(simplices) if len(s) == dim}
    cols = []
    for s in simplices:
        if len(s) - 1 != dim:
            continue
        col = 0
        for face in faces(s):
            col ^= 1 << rows[face]
        cols.append(col)
    return cols


def _homology_dim(simplices: list[Simplex], degree: int) -> int:
    n_deg = sum(1 for s in simplices if len(s) - 1 == degree)
    rank_down = _f2_rank(_boundary_columns(simplices, degree)) if degree > 0 else 0
    rank_up = _f2_rank(_boundary_columns(simplices, degree + 1))
    return n_deg - rank_down - rank_up


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

    Uses a two-step filtration (K_u at 0, K_v \\ K_u at 1); the rank is the
    number of classes born at 0 that are still alive past 1, i.e. the
    essential intervals of that filtration born at 0.
    """
    two_step = []
    for s, g in M.simplices:
        if leq(g, q.u):
            two_step.append((s, 0.0))
        elif leq(g, q.v):
            two_step.append((s, 1.0))
    if not two_step:
        return 0
    F = ScalarFiltration(tuple(two_step))
    if q.degree > F.max_dim():
        return 0
    barcode = compute_barcode(F, q.degree)
    return sum(1 for iv in barcode if iv.birth <= 0.0 and iv.death > 1.0)


def strict_dumps(payload) -> str:
    """Strict JSON text: +inf is written as null; NaN and -inf raise ValueError."""
    return json.dumps(_inf_to_null(payload), allow_nan=False)


def _inf_to_null(value):
    if isinstance(value, float):
        return None if value == math.inf else value
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
    """Inverse of barcode_to_json; a NaN endpoint or a non-finite birth raises ValueError."""
    items = json.loads(text)
    barcode = tuple(
        Interval(it["birth"], math.inf if it["death"] is None else it["death"], it["degree"])
        for it in items
    )
    for iv in barcode:
        if not math.isfinite(iv.birth) or math.isnan(iv.death):
            raise ValueError(f"bad interval {iv}: birth must be finite, death a number or null")
    return barcode
