"""Sampled lower bound for the multidimensional matching distance.

The matching distance is the supremum, over admissible lines in canonical
form, of m_star times the bottleneck distance between the barcodes of the
two restrictions. Sampling a finite grid of lines yields a lower bound;
no discretization error bound is claimed. A finer grid can give less; a
grid that holds another's lines (``extra_lines``) never does.

The sampled grid stays two float64 arrays, canonical directions and offsets
with one row per line, from sampling to output; its ``Line`` objects
(:func:`sample_lines`, ``per_line``) are built only on request.

The per-line distances run a block of lines at a time, M's and N's in
lockstep: each block's barcodes are two arrays of push values, used and
dropped before the next block, while both pairing caches, compact index
arrays, live for the call. Both blocks have one size, the most lines that
keep each array within ``homology._BLOCK_ENTRIES`` push values (one line at
least): a small pair runs its whole grid as one block.
``bottleneck._block_distances`` matches each pair of blocks and chooses how
(the ``bottleneck`` docstring has the table and the certified pass).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .bottleneck import _block_distances
from .complexes import (
    Grade,
    InadmissibleLineError,
    Line,
    MultiFilteredComplex,
    _canonical_form,
    _canonical_lines,
    _line_arrays,
)
from .homology import _block_lines, _line_values, _table, strict_dumps

_DEDUP_DECIMALS = 9
_BOX_PAD = 0.1
# _grid peaks near 120 B per raw line and parameter: 4 GB at the cap in 2 parameters, 6 GB in 3
_MAX_GRID_LINES = 2**24  # raw lines, before dedup; 16x8 in 3 parameters samples 2,097,152


@dataclass(frozen=True)
class LineGrid:
    """Sampling grid over admissible lines: steps per direction and per offset axis."""

    direction_steps: int = 16
    offset_steps: int = 8
    extra_lines: tuple[Line, ...] = ()

    def __post_init__(self):
        if self.direction_steps < 1 or self.offset_steps < 1:
            raise ValueError("direction_steps and offset_steps must be >= 1")


@dataclass(frozen=True, eq=False)
class MatchResult:
    """Maximum weighted per-line distance and the table: the canonical line in row k
    of the (k, n) arrays ``directions`` and ``offsets`` has distance ``distances[k]``."""

    value: float
    directions: np.ndarray
    offsets: np.ndarray
    distances: tuple[float, ...]

    @property
    def per_line(self) -> tuple[tuple[Line, float], ...]:
        return tuple(zip(_canonical_lines(self.directions, self.offsets), self.distances))


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
    axis = _axis_samples(1.0 / (steps + 1), 1.0, steps)
    return [tuple(m / max(p) for m in p) for p in product(axis, repeat=n)]


def _round_keys(x: np.ndarray) -> np.ndarray:
    """Python's round(v, 9) of every entry v: the double nearest N / 10**9, N the integer
    nearest v * 10**9 (ties to even), which is rint(y), y = fl(v * 1e9), unless y is within
    its rounding error of a tie (then Python's round is called), or v if |y| >= 2**53."""
    scale = 10.0**_DEDUP_DECIMALS
    with np.errstate(over="ignore", invalid="ignore"):
        y = x * scale
        n = np.rint(y)
        exact = np.abs(y) < 2.0**53  # beyond, doubles near v are more than 1e-9 apart
        keys = np.where(exact, n / scale, x)
        near_tie = exact & (0.5 - np.abs(y - n) <= np.abs(y) * 2.0**-53)
    for i in zip(*np.nonzero(near_tie)):
        keys[i] = round(float(x[i]), _DEDUP_DECIMALS)
    return keys


def _grid(grid: LineGrid, box: tuple[Grade, Grade]) -> tuple[np.ndarray, np.ndarray]:
    """The canonical (directions, offsets) arrays of :func:`sample_lines`' lines."""
    lo, hi = box
    if any(a > b for a, b in zip(lo, hi)):
        raise ValueError(f"degenerate offset box: min {lo} exceeds max {hi}")
    n = len(lo)
    lines = grid.direction_steps ** (n if n > 2 else 1) * grid.offset_steps**n + len(grid.extra_lines)
    if lines > _MAX_GRID_LINES:  # the user's grid, checked before sampling: a usage error, not a defect
        raise ValueError(f"grid {grid.direction_steps}x{grid.offset_steps} in {n} parameters: "
                         f"its {lines} lines exceed the cap of {_MAX_GRID_LINES}")
    # every offset, the last axis fastest: itertools.product's order
    axes = np.meshgrid(*(_axis_samples(a, b, grid.offset_steps) for a, b in zip(lo, hi)), indexing="ij")
    raw_o = np.stack(axes, axis=-1).reshape(-1, len(lo))
    raw_m = np.array(_sample_directions(len(lo), grid.direction_steps))
    # every pair, directions outermost
    m, b, finite = _canonical_form(np.repeat(raw_m, len(raw_o), axis=0), np.tile(raw_o, (len(raw_m), 1)))
    if not finite.all():
        raise InadmissibleLineError(
            f"offset box from {lo} to {hi}: a sampled line has no finite canonical form")
    extra_m, extra_b = _line_arrays(grid.extra_lines, len(lo))
    m, b = np.vstack((m, extra_m)), np.vstack((b, extra_b))
    # the first line met per key, the extra lines after the grid's: a stable sort by key
    keys = _round_keys(np.hstack((m, b)))
    order = np.lexsort(keys.T[::-1])
    first = np.insert((keys[order[1:]] != keys[order[:-1]]).any(axis=1), 0, True)
    return m[order[first]], b[order[first]]


def sample_lines(grid: LineGrid, box: tuple[Grade, Grade]) -> list[Line]:
    """Grid of canonical admissible lines, the extra lines after the grid's.

    ``box`` = (lo, hi) bounds the raw offsets before each line is put in
    canonical form. The first line met per 9-decimal key is kept, and the
    lines are sorted by key.
    """
    return _canonical_lines(*_grid(grid, box))


def default_offset_box(M: MultiFilteredComplex, N: MultiFilteredComplex) -> tuple[Grade, Grade]:
    """Union of both grade bounding boxes, expanded by a fraction per side."""
    if M.dim != N.dim:
        raise ValueError(f"complexes of dimension {M.dim} and {N.dim}: no line restricts both")
    lo_m, hi_m = M.bounding_box()
    lo_n, hi_n = N.bounding_box()
    lo = tuple(min(a, b) for a, b in zip(lo_m, lo_n))
    hi = tuple(max(a, b) for a, b in zip(hi_m, hi_n))
    pad = tuple(max((h - l) * _BOX_PAD, _BOX_PAD) for l, h in zip(lo, hi))
    box = tuple(l - p for l, p in zip(lo, pad)), tuple(h + p for h, p in zip(hi, pad))
    if not all(math.isfinite(h - l) for l, h in zip(*box)):
        raise ValueError(f"grades from {lo} to {hi}: the padded offset box overflows")
    return box


def line_distances(
    M: MultiFilteredComplex, N: MultiFilteredComplex, lines: list[Line], degree: int
) -> list[float]:
    """m_star times the bottleneck distance of the two restricted barcodes, per line."""
    return _distances(M, N, *_line_arrays(lines, M.dim), degree)


def _distances(M: MultiFilteredComplex, N: MultiFilteredComplex, directions: np.ndarray,
               offsets: np.ndarray, degree: int) -> list[float]:
    """:func:`line_distances` of canonical line arrays, a block of lines at a time,
    M's and N's in lockstep, so in blocks of one size, set by the one that keeps more
    simplices. Every push of M is checked for overflow before N's first, as when all of
    M's lines ran first."""
    m_star, out, block = directions.min(axis=1), [], _block_lines(degree, M, N)
    blocks = zip(*(_line_values(X, directions, offsets, degree, block) for X in (M, N)))
    for (values_m, a), (values_n, b) in blocks:
        s = m_star[len(out) : len(out) + len(values_m)]
        out += (_block_distances(values_m, a, values_n, b) * s).tolist()
    return out


def matching_distance_lb(
    M: MultiFilteredComplex, N: MultiFilteredComplex, grid: LineGrid, degree: int
) -> MatchResult:
    """Max of per-line distances over the sampled grid (a matching-distance lower bound)."""
    box = default_offset_box(M, N)
    try:
        directions, offsets = _grid(grid, box)
    except InadmissibleLineError as exc:  # a line of the grid, not one the user gave
        raise ValueError(f"grades in the boxes {M.bounding_box()} and {N.bounding_box()}, "
                         f"padded to the {exc}") from None
    distances = tuple(_distances(M, N, directions, offsets, degree))
    return MatchResult(max(distances), directions, offsets, distances)


def match_result_to_json(result: MatchResult) -> str:
    """JSON {value, argmax: {m, b}, table: [{m, b, mStar, distance}]}, as json.dumps writes it.

    An infinite distance (a line where the essential counts differ) is null.
    """
    k, cells = result.distances.index(result.value), ", ".join(["%s"] * result.directions.shape[1])
    line = f'{{"m": [{cells}], "b": [{cells}]'
    argmax = _table(line + "}", [*result.directions[k : k + 1].T, *result.offsets[k : k + 1].T])
    table = _table(line + ', "mStar": %s, "distance": %s}', _columns(result))
    return f'{{"value": {strict_dumps(result.value)}, "argmax": {argmax}, "table": [{table}]}}'


def match_result_to_csv(result: MatchResult) -> str:
    """Flat per-line table, floats as repr (inf spelled inf); vector fields are space-joined."""
    cells = " ".join(["%s"] * result.directions.shape[1])
    return "m,b,mStar,distance\n" + _table(f"{cells},{cells},%s,%s\n", _columns(result), strict=False, sep="")


def _columns(result: MatchResult) -> list:
    """The table's float columns: each coordinate of m and of b, then mStar and the distance."""
    return [*result.directions.T, *result.offsets.T, result.directions.min(axis=1), result.distances]
