"""Stability verification harness.

Builds pairs of multifiltered complexes whose interleaving distance has a
certified upper bound (diagonal shift by eps, or sup-norm grade
perturbation bounded by eps), then checks the stability inequalities as
empirical facts: the weighted per-line bottleneck distance never exceeds
the certified bound, and restrictions of one module to two nearby lines
stay within the explicit eta bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bottleneck import bottleneck_distance
from .complexes import (
    Grade,
    Line,
    MultiFilteredComplex,
    diagonal_shift,
    faces,
    sup_norm,
)
from .homology import line_barcodes, strict_dumps
from .matching import LineGrid, default_offset_box, line_distances, sample_lines

VERIFY_TOL = 1e-9


@dataclass(frozen=True)
class InterleavedPair:
    """Two complexes with a certified interleaving upper bound epsilon."""

    M: MultiFilteredComplex
    N: MultiFilteredComplex
    epsilon: float
    construction: str  # "diagonal-shift" | "grade-perturbation"


@dataclass(frozen=True)
class StabilityReport:
    """Per-line inequality checks: pass iff lhs <= rhs + tolerance."""

    construction: str
    bound_name: str  # "epsilon" | "eta"
    bound: float
    entries: tuple[tuple[Line, float, float, bool], ...]
    global_pass: bool
    worst_margin: float


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
    jittered: dict = {}
    for simplex, grade in M.simplices:
        delta = rng.uniform(-epsilon, epsilon, size=M.dim)
        jittered[simplex] = tuple(float(g + d) for g, d in zip(grade, delta))
    fixed: dict = {}
    for simplex in M.table:  # faces first
        g = jittered[simplex]
        for face in faces(simplex):
            g = tuple(max(a, b) for a, b in zip(g, fixed[face]))
        fixed[simplex] = g
    new_simplices = tuple((s, fixed[s]) for s, _ in M.simplices)
    N = MultiFilteredComplex(M.dim, new_simplices)
    certified = max(
        (sup_norm(tuple(a - b for a, b in zip(fixed[s], g))) for s, g in M.simplices),
        default=0.0,
    )
    return InterleavedPair(M, N, certified, "grade-perturbation")


def verify_rank_stability(pair: InterleavedPair, grid: LineGrid, degree: int) -> StabilityReport:
    """Check m_star * d_B(restrictions) <= epsilon on every sampled line."""
    lines = sample_lines(grid, default_offset_box(pair.M, pair.N))
    rhs = pair.epsilon
    entries = [
        (L, lhs, rhs, lhs <= rhs + VERIFY_TOL)
        for L, lhs in zip(lines, line_distances(pair.M, pair.N, lines, degree))
    ]
    global_pass = all(ok for _, _, _, ok in entries)
    worst = min((rhs - lhs for _, lhs, rhs, _ in entries), default=math.inf)
    return StabilityReport(
        pair.construction, "epsilon", pair.epsilon, tuple(entries), global_pass, worst
    )


def eta_bound(L: Line, Lp: Line, c: Grade) -> EtaBound:
    """Explicit interleaving bound between the restrictions to L and Lp.

    With C the larger direction sup-norm, B the larger offset sup-norm, and
    A the larger of max_j |c_j - b_j| scaled by direction-norm over m_star
    for each line, the bound is
    eta = (K * ||m - m'||_inf + C * ||b - b'||_inf) / (m_star * m'_star),
    K = A + 2B.
    """
    C = max(sup_norm(L.direction), sup_norm(Lp.direction))
    B = max(sup_norm(L.offset), sup_norm(Lp.offset))
    A = max(
        max(abs(cj - bj) for cj, bj in zip(c, L.offset)) * sup_norm(L.direction) / L.m_star,
        max(abs(cj - bj) for cj, bj in zip(c, Lp.offset)) * sup_norm(Lp.direction) / Lp.m_star,
    )
    K = A + 2.0 * B
    dm = sup_norm(tuple(a - b for a, b in zip(L.direction, Lp.direction)))
    db = sup_norm(tuple(a - b for a, b in zip(L.offset, Lp.offset)))
    eta = (K * dm + C * db) / (L.m_star * Lp.m_star)
    return EtaBound(L, Lp, c, A, B, C, K, eta)


def verify_internal_stability(
    M: MultiFilteredComplex, L: Line, Lp: Line, degree: int
) -> StabilityReport:
    """Check d_B of the two line restrictions of M against the eta bound."""
    # the componentwise max grade: past it every sublevel set is the full complex
    bound = eta_bound(L, Lp, M.bounding_box()[1])
    lhs = bottleneck_distance(*line_barcodes(M, [L, Lp], degree))
    ok = lhs <= bound.eta + VERIFY_TOL
    entries = ((Lp, lhs, bound.eta, ok),)
    return StabilityReport("internal", "eta", bound.eta, entries, ok, bound.eta - lhs)


def report_to_json(report: StabilityReport) -> str:
    """JSON {construction, epsilon|eta, entries, globalPass, worstMargin}.

    Strict: an infinite lhs or margin (a line where the essential counts of
    the two restrictions differ) is written as null.
    """
    payload = {
        "construction": report.construction,
        report.bound_name: report.bound,
        "entries": [
            {
                "line": {"m": list(L.direction), "b": list(L.offset)},
                "lhs": lhs,
                "rhs": rhs,
                "pass": ok,
            }
            for L, lhs, rhs, ok in report.entries
        ],
        "globalPass": report.global_pass,
        "worstMargin": report.worst_margin,
    }
    return strict_dumps(payload)
