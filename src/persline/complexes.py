"""Bifiltered simplicial complexes, admissible lines, and line restriction.

Grades are points of R^n ordered componentwise. A multifiltered complex
assigns one grade per simplex (one-critical); the sublevel complex at u
contains every simplex whose grade is <= u componentwise. Admissible lines
u = s*m + b with all m_i > 0 restrict a multifiltration to an ordinary
scalar filtration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

Grade = tuple[float, ...]
Simplex = tuple[int, ...]

CANONICAL_TOL = 1e-12


class ParseError(ValueError):
    """Malformed input text; carries the offending line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ValidationError(ValueError):
    """Structurally invalid complex (missing face, non-monotone grade, duplicate)."""


class InadmissibleLineError(ValueError):
    """Line direction has a non-positive component."""


def leq(u: Grade, v: Grade) -> bool:
    """Componentwise u <= v."""
    return all(a <= b for a, b in zip(u, v))


def lt(u: Grade, v: Grade) -> bool:
    """Componentwise strict u < v."""
    return all(a < b for a, b in zip(u, v))


def sup_norm(u: Sequence[float]) -> float:
    return max(abs(x) for x in u)


def faces(simplex: Simplex) -> list[Simplex]:
    """Codimension-1 faces; empty for a vertex."""
    if len(simplex) == 1:
        return []
    return [simplex[:i] + simplex[i + 1 :] for i in range(len(simplex))]


@dataclass(frozen=True)
class Line:
    """Admissible line u = s*m + b in canonical form.

    Canonical means max_i m_i = 1 and sum_i b_i = 0; m_star caches min_i m_i,
    the weight used by the matching distance. Construct through
    :func:`canonicalize_line` rather than directly.
    """

    direction: Grade
    offset: Grade
    m_star: float = field(default=0.0)

    def __post_init__(self):
        if len(self.direction) != len(self.offset):
            raise InadmissibleLineError("direction and offset dimensions differ")
        if any(m <= 0 for m in self.direction):
            raise InadmissibleLineError(f"direction {self.direction} has a non-positive component")
        if abs(max(self.direction) - 1.0) > CANONICAL_TOL:
            raise InadmissibleLineError(f"direction {self.direction} not normalized to max = 1")
        if abs(sum(self.offset)) > CANONICAL_TOL:
            raise InadmissibleLineError(f"offset {self.offset} does not sum to 0")
        object.__setattr__(self, "m_star", min(self.direction))

    @property
    def dim(self) -> int:
        return len(self.direction)

    def point_at(self, s: float) -> Grade:
        return tuple(s * m + b for m, b in zip(self.direction, self.offset))

    def sort_key(self) -> tuple:
        return (self.direction, self.offset)


def canonicalize_line(raw_direction: Sequence[float], raw_offset: Sequence[float]) -> Line:
    """Canonical parameterization of the line {s*raw_direction + raw_offset}.

    Rescales the direction to max_i m_i = 1 and slides the offset along the
    line so its coordinates sum to zero. The point set is unchanged.
    """
    if len(raw_direction) != len(raw_offset):
        raise InadmissibleLineError("direction and offset dimensions differ")
    if any(m <= 0 for m in raw_direction):
        raise InadmissibleLineError(f"direction {tuple(raw_direction)} has a non-positive component")
    top = max(raw_direction)
    m = tuple(x / top for x in raw_direction)
    s0 = -sum(raw_offset) / sum(m)
    b = tuple(o + s0 * mi for o, mi in zip(raw_offset, m))
    return Line(m, b)


@dataclass(frozen=True)
class MultiFilteredComplex:
    """Finite one-critical multifiltered simplicial complex.

    ``simplices`` keeps input order (serialization is order-preserving).
    Validation enforces face closure, monotone grades along faces, and no
    duplicates; missing faces are an error, never auto-completed.
    """

    dim: int
    simplices: tuple[tuple[Simplex, Grade], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("ambient dimension must be >= 1")
        seen: dict[Simplex, Grade] = {}
        for simplex, grade in self.simplices:
            if len(grade) != self.dim:
                raise ValidationError(
                    f"simplex {simplex}: grade {grade} has dimension {len(grade)}, expected {self.dim}"
                )
            if any(not math.isfinite(g) for g in grade):
                raise ValidationError(f"simplex {simplex}: non-finite grade {grade}")
            if tuple(simplex) != tuple(sorted(set(simplex))):
                raise ValidationError(f"simplex {simplex}: vertex ids must be distinct and sorted")
            if any(v < 0 for v in simplex):
                raise ValidationError(f"simplex {simplex}: negative vertex id")
            if simplex in seen:
                raise ValidationError(f"duplicate simplex {simplex}")
            seen[simplex] = grade
        for simplex, grade in self.simplices:
            for face in faces(simplex):
                if face not in seen:
                    raise ValidationError(f"simplex {simplex}: missing face {face}")
                if not leq(seen[face], grade):
                    raise ValidationError(
                        f"non-monotone grades: face {face} at {seen[face]} vs simplex {simplex} at {grade}"
                    )

    def grades(self) -> list[Grade]:
        return [g for _, g in self.simplices]

    def grade_of(self, simplex: Simplex) -> Grade:
        for s, g in self.simplices:
            if s == simplex:
                return g
        raise KeyError(simplex)

    def bounding_box(self) -> tuple[Grade, Grade]:
        """Componentwise (min, max) over all grades."""
        if not self.simplices:
            raise ValidationError("empty complex has no bounding box")
        lo = tuple(min(g[i] for g in self.grades()) for i in range(self.dim))
        hi = tuple(max(g[i] for g in self.grades()) for i in range(self.dim))
        return lo, hi

    def sublevel(self, u: Grade) -> list[tuple[Simplex, Grade]]:
        return [(s, g) for s, g in self.simplices if leq(g, u)]


@dataclass(frozen=True)
class ScalarFiltration:
    """One-parameter filtration: each simplex with a real entry value."""

    simplices: tuple[tuple[Simplex, float], ...]

    def __post_init__(self):
        entry = {s: v for s, v in self.simplices}
        for simplex, value in self.simplices:
            for face in faces(simplex):
                if face not in entry:
                    raise ValidationError(f"simplex {simplex}: missing face {face}")
                if entry[face] > value:
                    raise ValidationError(
                        f"non-monotone entries: face {face} at {entry[face]} vs simplex {simplex} at {value}"
                    )

    def max_dim(self) -> int:
        return max((len(s) - 1 for s, _ in self.simplices), default=-1)


def parse_bifiltration(text: str) -> MultiFilteredComplex:
    """Parse the textual multifiltration format.

    Header line ``bifiltration <n>``; every following non-empty, non-comment
    line is ``<vertex ids> ; <n reals>``. '#' starts a comment line.
    """
    entries: list[tuple[Simplex, Grade]] = []
    ambient: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if ambient is None:
            parts = stripped.split()
            if len(parts) != 2 or parts[0] != "bifiltration":
                raise ParseError("expected header 'bifiltration <n>'", lineno)
            try:
                ambient = int(parts[1])
            except ValueError:
                raise ParseError(f"bad ambient dimension {parts[1]!r}", lineno) from None
            if ambient < 1:
                raise ParseError("ambient dimension must be >= 1", lineno)
            continue
        if ";" not in stripped:
            raise ParseError("expected '<k> <vertex ids> ; <grade>'", lineno)
        left, _, right = stripped.partition(";")
        try:
            numbers = [int(v) for v in left.split()]
        except ValueError:
            raise ParseError(f"bad simplex description {left.strip()!r}", lineno) from None
        if not numbers:
            raise ParseError("empty simplex description", lineno)
        k, verts = numbers[0], tuple(numbers[1:])
        if k < 0:
            raise ParseError(f"negative simplex dimension {k}", lineno)
        if len(verts) != k + 1:
            raise ParseError(
                f"{k}-simplex needs {k + 1} vertex ids, got {len(verts)}", lineno
            )
        if len(set(verts)) != len(verts):
            raise ParseError(f"repeated vertex id in simplex {verts}", lineno)
        try:
            grade = tuple(float(x) for x in right.split())
        except ValueError:
            raise ParseError(f"bad grade {right.strip()!r}", lineno) from None
        if len(grade) != ambient:
            raise ParseError(f"grade has {len(grade)} coordinates, expected {ambient}", lineno)
        entries.append((tuple(sorted(verts)), grade))
    if ambient is None:
        raise ParseError("empty input: missing 'bifiltration <n>' header")
    return MultiFilteredComplex(ambient, tuple(entries))


def serialize_bifiltration(M: MultiFilteredComplex) -> str:
    """Inverse of :func:`parse_bifiltration`; preserves simplex order."""
    lines = [f"bifiltration {M.dim}"]
    for simplex, grade in M.simplices:
        ids = " ".join(str(v) for v in simplex)
        coords = " ".join(repr(float(g)) for g in grade)
        lines.append(f"{len(simplex) - 1} {ids} ; {coords}")
    return "\n".join(lines) + "\n"


def push_to_line(g: Grade, L: Line) -> float:
    """Least s with g <= s*m + b componentwise: max_i (g_i - b_i) / m_i.

    The push is monotone: g <= g' componentwise implies push(g) <= push(g'),
    because correctly rounded subtraction and division by m_i > 0 are
    monotone, and so is the maximum.
    """
    if len(g) != L.dim:
        raise ValueError(f"grade dimension {len(g)} != line dimension {L.dim}")
    return max((gi - bi) / mi for gi, bi, mi in zip(g, L.offset, L.direction))


def push_values(grades: np.ndarray, lines: Sequence[Line]) -> np.ndarray:
    """Push of every grade onto every line, as a (len(lines), N) array.

    ``grades`` is an (N, n) float64 array. Entry [k, j] equals
    ``push_to_line(grades[j], lines[k])`` bit for bit: the same float
    operations, taken one coordinate at a time so that no (lines, N, n)
    temporary exists. The running maximum keeps the earlier coordinate on a
    tie, as Python's max does, so a signed zero comes out as it does there
    (np.maximum may return either zero).
    """
    m = np.array([L.direction for L in lines], dtype=np.float64)
    b = np.array([L.offset for L in lines], dtype=np.float64)
    P = (grades[:, 0] - b[:, :1]) / m[:, :1]
    for i in range(1, grades.shape[1]):
        c = (grades[:, i] - b[:, i : i + 1]) / m[:, i : i + 1]
        np.copyto(P, c, where=c > P)
    return P


def restrict(M: MultiFilteredComplex, L: Line) -> ScalarFiltration:
    """Scalar filtration of M along L: each simplex enters at its push value."""
    if M.dim != L.dim:
        raise ValueError(f"complex dimension {M.dim} != line dimension {L.dim}")
    return ScalarFiltration(tuple((s, push_to_line(g, L)) for s, g in M.simplices))


def diagonal_shift(M: MultiFilteredComplex, epsilon: float) -> MultiFilteredComplex:
    """Subtract epsilon from every grade coordinate.

    The sublevel module of the result at u equals M's at u + (eps,...,eps).
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    shifted = tuple(
        (s, tuple(c - epsilon for c in g)) for s, g in M.simplices
    )
    return MultiFilteredComplex(M.dim, shifted)
