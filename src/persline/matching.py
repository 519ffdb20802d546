"""Sampled lower bound for the multidimensional matching distance.

The matching distance is the supremum, over admissible lines in canonical
form, of m_star times the bottleneck distance between the barcodes of the
two restrictions. Sampling a finite grid of lines yields a lower bound;
no discretization error bound is claimed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .bottleneck import bottleneck_distance
from .complexes import (
    Grade,
    Line,
    MultiFilteredComplex,
    canonicalize_line,
)
from .homology import line_barcodes, strict_dumps

_DEDUP_DECIMALS = 9


@dataclass(frozen=True)
class LineGrid:
    """Sampling grid over admissible lines.

    ``offset_box`` bounds the raw offsets before projection to the canonical
    sum-zero hyperplane; when None the caller derives it from the data.
    """

    direction_steps: int = 16
    offset_steps: int = 8
    offset_box: tuple[Grade, Grade] | None = None
    extra_lines: tuple[Line, ...] = ()

    def __post_init__(self):
        if self.direction_steps < 1 or self.offset_steps < 1:
            raise ValueError("direction_steps and offset_steps must be >= 1")
        if self.offset_box is not None:
            lo, hi = self.offset_box
            if any(a > b for a, b in zip(lo, hi)):
                raise ValueError(f"degenerate offset box: min {lo} exceeds max {hi}")


@dataclass(frozen=True)
class MatchResult:
    """Maximum weighted per-line distance, its witness line, and the full table."""

    value: float
    argmax_line: Line
    per_line: tuple[tuple[Line, float], ...]


def _axis_samples(lo: float, hi: float, steps: int) -> list[float]:
    if steps == 1:
        return [(lo + hi) / 2.0]
    step = (hi - lo) / (steps - 1)
    return [lo + i * step for i in range(steps)]


def _sample_directions(n: int, steps: int) -> list[tuple[float, ...]]:
    if n == 2:
        # angles strictly inside (0, pi/2); steps=1 gives the diagonal;
        # snapping kills float noise like tan(pi/4) = 1 - 1ulp
        out = []
        for k in range(1, steps + 1):
            theta = (math.pi / 2.0) * k / (steps + 1)
            c, s = math.cos(theta), math.sin(theta)
            top = max(c, s)
            out.append((round(c / top, 12), round(s / top, 12)))
        return out
    delta = 1.0 / (steps + 1)
    grids = [_axis_samples(delta, 1.0, steps) for _ in range(n)]
    out = []

    def rec(prefix: tuple[float, ...]):
        if len(prefix) == n:
            top = max(prefix)
            out.append(tuple(m / top for m in prefix))
            return
        for x in grids[len(prefix)]:
            rec(prefix + (x,))

    rec(())
    return out


def _line_key(L: Line) -> tuple:
    return (
        tuple(round(m, _DEDUP_DECIMALS) for m in L.direction),
        tuple(round(b, _DEDUP_DECIMALS) for b in L.offset),
    )


def sample_lines(grid: LineGrid, bounding_hint: tuple[Grade, Grade]) -> list[Line]:
    """Grid of canonical admissible lines; deduplicated, extra lines appended."""
    lo, hi = grid.offset_box if grid.offset_box is not None else bounding_hint
    if any(a > b for a, b in zip(lo, hi)):
        raise ValueError(f"degenerate offset box: min {lo} exceeds max {hi}")
    n = len(lo)
    offsets: list[tuple[float, ...]] = [()]
    for i in range(n):
        axis = _axis_samples(lo[i], hi[i], grid.offset_steps)
        offsets = [o + (x,) for o in offsets for x in axis]
    lines: list[Line] = []
    seen = set()
    for m in _sample_directions(n, grid.direction_steps):
        for o in offsets:
            L = canonicalize_line(m, o)
            key = _line_key(L)
            if key not in seen:
                seen.add(key)
                lines.append(L)
    for L in grid.extra_lines:
        key = _line_key(L)
        if key not in seen:
            seen.add(key)
            lines.append(L)
    lines.sort(key=_line_key)
    return lines


def default_offset_box(
    M: MultiFilteredComplex, N: MultiFilteredComplex, pad_fraction: float = 0.1
) -> tuple[Grade, Grade]:
    """Union of both grade bounding boxes, expanded by a fraction per side."""
    lo_m, hi_m = M.bounding_box()
    lo_n, hi_n = N.bounding_box()
    lo = tuple(min(a, b) for a, b in zip(lo_m, lo_n))
    hi = tuple(max(a, b) for a, b in zip(hi_m, hi_n))
    pad = tuple(max((h - l) * pad_fraction, pad_fraction) for l, h in zip(lo, hi))
    return (
        tuple(l - p for l, p in zip(lo, pad)),
        tuple(h + p for h, p in zip(hi, pad)),
    )


def line_distances(
    M: MultiFilteredComplex, N: MultiFilteredComplex, lines: list[Line], degree: int
) -> list[float]:
    """m_star times the bottleneck distance of the two restricted barcodes, per line."""
    pairs = zip(lines, line_barcodes(M, lines, degree), line_barcodes(N, lines, degree))
    return [L.m_star * bottleneck_distance(bar_m, bar_n) for L, bar_m, bar_n in pairs]


def per_line_distance(
    M: MultiFilteredComplex, N: MultiFilteredComplex, L: Line, degree: int
) -> float:
    """m_star times the bottleneck distance of the two restricted barcodes."""
    return line_distances(M, N, [L], degree)[0]


def matching_distance_lb(
    M: MultiFilteredComplex, N: MultiFilteredComplex, grid: LineGrid, degree: int
) -> MatchResult:
    """Max of per-line distances over the sampled grid (a matching-distance lower bound)."""
    lines = sample_lines(grid, default_offset_box(M, N))
    table = tuple(zip(lines, line_distances(M, N, lines, degree)))
    best_line, best = table[0]
    for L, d in table[1:]:
        if d > best:
            best_line, best = L, d
    return MatchResult(best, best_line, table)


def match_result_to_json(result: MatchResult) -> str:
    """JSON {value, argmax: {m, b}, table: [{m, b, mStar, distance}]}.

    An infinite distance (a line where the essential counts differ) is null.
    """
    payload = {
        "value": result.value,
        "argmax": {
            "m": list(result.argmax_line.direction),
            "b": list(result.argmax_line.offset),
        },
        "table": [
            {
                "m": list(L.direction),
                "b": list(L.offset),
                "mStar": L.m_star,
                "distance": d,
            }
            for L, d in result.per_line
        ],
    }
    return strict_dumps(payload)


def match_result_to_csv(result: MatchResult) -> str:
    """Flat per-line table; vector fields are space-joined."""
    rows = ["m,b,mStar,distance"]
    for L, d in result.per_line:
        m = " ".join(repr(x) for x in L.direction)
        b = " ".join(repr(x) for x in L.offset)
        rows.append(f"{m},{b},{L.m_star!r},{d!r}")
    return "\n".join(rows) + "\n"
