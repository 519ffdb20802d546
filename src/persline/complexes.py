"""Bifiltered simplicial complexes, admissible lines, and line restriction.

Grades are points of R^n ordered componentwise. A multifiltered complex
assigns one grade per simplex (one-critical); the sublevel complex at u
contains every simplex whose grade is <= u componentwise. Admissible lines
u = s*m + b with all m_i > 0 restrict a multifiltration to an ordinary
scalar filtration.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

Grade = tuple[float, ...]
Simplex = tuple[int, ...]

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


def sup_norm(u: Sequence[float]) -> float:
    return max(abs(x) for x in u)


def faces(simplex: Simplex) -> list[Simplex]:
    """Codimension-1 faces; empty for a vertex."""
    if len(simplex) == 1:
        return []
    return [simplex[:i] + simplex[i + 1 :] for i in range(len(simplex))]


def face_indices(simplices: Sequence[Simplex]) -> list[tuple[int, ...]]:
    """The faces of each simplex, as a tuple of indices into ``simplices``.

    Raises ValidationError for the first simplex listed twice, and else for
    the first simplex with a face that is not listed.
    """
    index = {s: i for i, s in enumerate(simplices)}
    if len(index) < len(simplices):
        duplicate = next(s for i, s in enumerate(simplices) if index[s] != i)
        raise ValidationError(f"duplicate simplex {duplicate}")
    boundary = []
    for simplex in simplices:
        try:
            boundary.append(tuple(index[f] for f in faces(simplex)))
        except KeyError as exc:
            raise ValidationError(f"simplex {simplex}: missing face {exc.args[0]}") from None
    return boundary


@dataclass(frozen=True)
class Line:
    """Admissible line u = s*m + b, stored in canonical form.

    The constructor accepts any parameterization with all m_i > 0 and stores
    the canonical one of the same point set: the direction rescaled to
    max_i m_i = 1 and the offset slid along the line so that its coordinates
    sum to zero. m_star = min_i m_i is the weight used by the matching
    distance. A parameterization whose canonical form is not finite is
    rejected.
    """

    direction: Grade
    offset: Grade
    m_star: float = field(init=False)

    def __post_init__(self):
        if len(self.direction) != len(self.offset):
            raise InadmissibleLineError("direction and offset dimensions differ")
        if any(m <= 0 for m in self.direction):
            raise InadmissibleLineError(f"direction {tuple(self.direction)} has a non-positive component")
        top = max(self.direction)
        m = tuple(x / top for x in self.direction)
        s0 = -sum(self.offset) / sum(m)
        b = tuple(o + s0 * mi for o, mi in zip(self.offset, m))
        if not all(map(math.isfinite, m + b)):  # a NaN input, or a sum that overflows
            raise InadmissibleLineError(
                f"direction {tuple(self.direction)} and offset {tuple(self.offset)} have no finite canonical form"
            )
        object.__setattr__(self, "direction", m)
        object.__setattr__(self, "offset", b)
        object.__setattr__(self, "m_star", min(m))

    @property
    def dim(self) -> int:
        return len(self.direction)

    def point_at(self, s: float) -> Grade:
        return tuple(s * m + b for m, b in zip(self.direction, self.offset))


def canonicalize_line(raw_direction: Sequence[float], raw_offset: Sequence[float]) -> Line:
    """The line {s*raw_direction + raw_offset} in canonical form: ``Line(raw_direction, raw_offset)``."""
    return Line(raw_direction, raw_offset)


@dataclass(frozen=True)
class MultiFilteredComplex:
    """Finite one-critical multifiltered simplicial complex.

    ``simplices`` keeps input order (serialization is order-preserving).
    Validation enforces face closure, monotone grades along faces, and no
    duplicates; missing faces are an error, never auto-completed.

    The constructor also builds the face-index table that the line engine
    and the rank invariant read: ``table`` holds the simplices in
    (dimension, vertex ids) order, ``boundary[i]`` the faces of ``table[i]``
    as indices into it, and ``grade_array[i]`` its grade. In that order
    every face comes before its cofaces, and the simplices of dimension
    <= d + 1 are a prefix (:meth:`skeleton`).
    """

    dim: int
    simplices: tuple[tuple[Simplex, Grade], ...]
    table: tuple[Simplex, ...] = field(init=False, repr=False, compare=False)
    boundary: list[tuple[int, ...]] = field(init=False, repr=False, compare=False)
    grade_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("ambient dimension must be >= 1")
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
        entries = sorted(self.simplices, key=lambda sg: (len(sg[0]), sg[0]))
        table = tuple(s for s, _ in entries)
        boundary = face_indices(table)
        grades = np.array([g for _, g in entries], dtype=np.float64).reshape(len(table), self.dim)
        face = np.array([f for fs in boundary for f in fs], dtype=np.intp)
        coface = np.repeat(np.arange(len(table)), [len(fs) for fs in boundary])
        bad = np.flatnonzero((grades[face] > grades[coface]).any(axis=1))
        if len(bad):
            (f, gf), (c, gc) = entries[face[bad[0]]], entries[coface[bad[0]]]
            raise ValidationError(f"non-monotone grades: face {f} at {gf} vs simplex {c} at {gc}")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "boundary", boundary)
        object.__setattr__(self, "grade_array", grades)

    def skeleton(self, degree: int) -> int:
        """Length of the table prefix that holds the simplices of dimension <= degree + 1."""
        return bisect_right(self.table, degree + 2, key=len)

    def bounding_box(self) -> tuple[Grade, Grade]:
        """Componentwise (min, max) over all grades."""
        if not self.simplices:
            raise ValidationError("empty complex has no bounding box")
        columns = list(zip(*(g for _, g in self.simplices)))
        return tuple(map(min, columns)), tuple(map(max, columns))


@dataclass(frozen=True)
class ScalarFiltration:
    """One-parameter filtration: each simplex, listed once, with a finite entry value."""

    simplices: tuple[tuple[Simplex, float], ...]

    def __post_init__(self):
        boundary = face_indices([s for s, _ in self.simplices])
        for (simplex, value), fs in zip(self.simplices, boundary):
            if not math.isfinite(value):
                raise ValidationError(f"simplex {simplex}: non-finite entry {value}")
            for face, entry in (self.simplices[f] for f in fs):
                if entry > value:
                    raise ValidationError(
                        f"non-monotone entries: face {face} at {entry} vs simplex {simplex} at {value}"
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
