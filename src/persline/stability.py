"""Stability verification harness.

Builds pairs of multifiltered complexes whose interleaving distance has a
certified upper bound (diagonal shift by eps, or sup-norm grade
perturbation bounded by eps), then checks the stability inequalities as
empirical facts: no weighted per-line bottleneck distance in the table of
matching_distance_lb exceeds the certified bound, and restrictions of one
module to two nearby lines stay within the explicit eta bound. A
:class:`StabilityReport` derives every verdict from its bound and lhs values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bottleneck import _block_distances
from .complexes import (
    Grade,
    Line,
    MultiFilteredComplex,
    _canonical_lines,
    _line_arrays,
    diagonal_shift,
    sup_norm,
)
from .homology import _line_values, _table, strict_dumps
from .matching import LineGrid, matching_distance_lb

VERIFY_TOL = 1e-9


@dataclass(frozen=True)
class InterleavedPair:
    """Two complexes with a certified interleaving upper bound epsilon."""

    M: MultiFilteredComplex
    N: MultiFilteredComplex
    epsilon: float
    construction: str  # "diagonal-shift" | "grade-perturbation"


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Per-line inequality checks, lhs <= bound + tolerance: row k of the (k, n)
    arrays ``directions`` and ``offsets`` is a canonical line, ``lhs[k]`` its value."""

    construction: str
    bound_name: str  # "epsilon" | "eta"
    bound: float
    directions: np.ndarray
    offsets: np.ndarray
    lhs: tuple[float, ...]

    @cached_property
    def _passes(self) -> list[bool]:  # the one place the rule is written
        return (np.array(self.lhs) <= self.bound + VERIFY_TOL).tolist()

    @property
    def global_pass(self) -> bool:
        return all(self._passes)

    @property
    def worst_margin(self) -> float:  # correctly rounded subtraction is monotone: no margin is less
        return self.bound - max(self.lhs)

    @property
    def entries(self) -> tuple[tuple[Line, float, float, bool], ...]:  # (line, lhs, rhs, pass)
        rows = zip(_canonical_lines(self.directions, self.offsets), self.lhs, self._passes)
        return tuple((L, lhs, self.bound, ok) for L, lhs, ok in rows)


@dataclass(frozen=True)
class EtaBound:
    """Explicit interleaving bound between restrictions to two lines."""

    L: Line
    L_prime: Line
    c: Grade
    A: float
    B: float
    C: float
    K: float
    eta: float


def shift_pair(M: MultiFilteredComplex, epsilon: float) -> InterleavedPair:
    """Diagonal-shift construction: the shift morphism itself interleaves."""
    return InterleavedPair(M, diagonal_shift(M, epsilon), epsilon, "diagonal-shift")


def perturb_grades(M: MultiFilteredComplex, epsilon: float, seed: int) -> InterleavedPair:
    """Random sup-norm grade perturbation, monotonicity restored by face maxima.

    Each grade moves by a uniform vector in [-eps, eps]^n; a simplex's final
    grade is the componentwise max of the perturbed grades over all its
    subsimplices, which stays within eps of the original because M was
    monotone. The certified epsilon is the realized max displacement.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if not math.isfinite(2 * epsilon):
        raise ValueError(f"epsilon {epsilon}: 2 * epsilon must be finite")
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):  # drawn in input order; an inf is named by the finite-grade check
        fixed = M.grade_array + rng.uniform(-epsilon, epsilon, size=M.grade_array.shape)[M._order]
    for d, B in enumerate(M.boundary):  # faces first; a tie keeps the simplex's own, as max does
        rows = fixed[M.skeleton(d - 2) : M.skeleton(d - 1)]
        for face in map(fixed.__getitem__, B.T):
            np.copyto(rows, face, where=face > rows)
    N = M._with_grades(fixed)
    certified = float(np.abs(fixed - M.grade_array).max(initial=0.0))
    return InterleavedPair(M, N, certified, "grade-perturbation")


def verify_rank_stability(pair: InterleavedPair, grid: LineGrid, degree: int) -> StabilityReport:
    """Check m_star * d_B(restrictions) <= epsilon on every line of matchdist's table."""
    r = matching_distance_lb(pair.M, pair.N, grid, degree)
    return StabilityReport(pair.construction, "epsilon", pair.epsilon, r.directions, r.offsets, r.distances)


def eta_bound(L: Line, Lp: Line, c: Grade) -> EtaBound:
    """Explicit interleaving bound between the restrictions to L and Lp.

    With C the larger direction sup-norm, B the larger offset sup-norm, and
    A the larger of max_j |c_j - b_j| scaled by direction-norm over m_star
    for each line, the bound is
    eta = (K * ||m - m'||_inf + C * ||b - b'||_inf) / (m_star * m'_star),
    K = A + 2B. L, Lp and c must have one dimension (else ValueError).
    """
    if not L.dim == Lp.dim == len(c):
        raise ValueError(f"lines of dimension {L.dim} and {Lp.dim}, grade c of dimension {len(c)}: "
                         "eta needs one dimension")
    C = max(sup_norm(L.direction), sup_norm(Lp.direction))
    B = max(sup_norm(L.offset), sup_norm(Lp.offset))
    A = max(
        max(abs(cj - bj) for cj, bj in zip(c, L.offset)) * sup_norm(L.direction) / L.m_star,
        max(abs(cj - bj) for cj, bj in zip(c, Lp.offset)) * sup_norm(Lp.direction) / Lp.m_star,
    )
    K = A + 2.0 * B
    dm = sup_norm(tuple(a - b for a, b in zip(L.direction, Lp.direction)))
    db = sup_norm(tuple(a - b for a, b in zip(L.offset, Lp.offset)))
    # dm == 0 drops the K * dm term: K may be inf, and inf * 0 is NaN
    num, den = (K * dm if dm else 0.0) + C * db, L.m_star * Lp.m_star
    eta = num / den if den else num / L.m_star / Lp.m_star  # the product underflowed
    return EtaBound(L, Lp, c, A, B, C, K, eta)


def verify_internal_stability(M: MultiFilteredComplex, L: Line, Lp: Line, degree: int) -> StabilityReport:
    """Check d_B of the two line restrictions of M against the eta bound."""
    directions, offsets = _line_arrays([L, Lp], M.dim)
    # the componentwise max grade: past it every sublevel set is the full complex
    bound = eta_bound(L, Lp, M.bounding_box()[1])
    values, f = next(_line_values(M, directions, offsets, degree, 2))  # both lines in one block
    lhs = float(_block_distances(values[:1], f, values[1:], f)[0])
    return StabilityReport("internal", "eta", bound.eta, directions[1:], offsets[1:], (lhs,))


def report_to_json(report: StabilityReport) -> str:
    """JSON {construction, epsilon|eta, entries: [{line: {m, b}, lhs, rhs, pass}],
    globalPass, worstMargin}, the bytes json.dumps writes of that object.

    Strict: an infinite lhs or margin (a line where the essential counts of
    the two restrictions differ) is written as null. The entries come from
    one row template (:func:`homology._table`), each distinct lhs and line
    coordinate formatted once; the scalars, the bound too, from strict_dumps.
    """
    bound, cells = strict_dumps(report.bound), ", ".join(["%s"] * report.directions.shape[1])
    row = f'{{"line": {{"m": [{cells}], "b": [{cells}]}}, "lhs": %s, "rhs": {bound}, "pass": %s}}'
    entries = _table(row, [*report.directions.T, *report.offsets.T, report.lhs],
                     map(("false", "true").__getitem__, report._passes))
    return (f'{{"construction": {strict_dumps(report.construction)}, {strict_dumps(report.bound_name)}: '
            f'{bound}, "entries": [{entries}], "globalPass": {strict_dumps(report.global_pass)}, '
            f'"worstMargin": {strict_dumps(report.worst_margin)}}}')
